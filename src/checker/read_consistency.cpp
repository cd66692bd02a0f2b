//===- checker/read_consistency.cpp - Read Consistency (Alg. 4) ------------===//

#include "checker/read_consistency.h"

#include "support/thread_pool.h"

using namespace awdit;

bool awdit::detail::runTxnRangePass(const History &H, ThreadPool *Pool,
                                    std::vector<Violation> &Out,
                                    TxnRangePass Pass) {
  std::vector<std::vector<Violation>> Ranges = collectChunks<Violation>(
      Pool, H.numTxns(), TxnGrain,
      [&](size_t Begin, size_t End, std::vector<Violation> &Buf) {
        Pass(H, static_cast<TxnId>(Begin), static_cast<TxnId>(End), Buf);
      });
  size_t Before = Out.size();
  for (std::vector<Violation> &Range : Ranges)
    Out.insert(Out.end(), std::make_move_iterator(Range.begin()),
               std::make_move_iterator(Range.end()));
  return Out.size() == Before;
}

bool awdit::checkReadConsistency(const History &H, std::vector<Violation> &Out,
                                 ThreadPool *Pool) {
  return detail::runTxnRangePass(H, Pool, Out, checkReadConsistencyRange);
}

bool awdit::checkReadConsistencyRange(const History &H, TxnId Begin,
                                      TxnId End, std::vector<Violation> &Out) {
  size_t Before = Out.size();
  const std::vector<Transaction> &Txns = H.transactions();

  // LatestOwnWrite[S]: op index of the latest own write to T.WriteKeys[S]
  // seen so far in the po scan, NoOp before the first; used for the
  // own-write axioms (Fig. 2c/2d/2e same-txn). One scratch array reused
  // across the range.
  std::vector<uint32_t> LatestOwnWrite;
  for (TxnId Id = Begin; Id < End; ++Id) {
    const Transaction &T = Txns[Id];
    if (!T.Committed)
      continue;

    LatestOwnWrite.assign(T.WriteKeys.size(), NoOp);
    size_t NextRead = 0;
    for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx) {
      const Operation &Op = T.Ops[OpIdx];
      uint32_t Slot = T.writeKeySlot(Op.K);
      if (Op.isWrite()) {
        if (Slot != NoOp)
          LatestOwnWrite[Slot] = OpIdx;
        continue;
      }
      const ReadInfo &RI = T.Reads[NextRead++];

      // (a) No thin-air reads.
      if (RI.Writer == NoTxn) {
        Out.push_back({ViolationKind::ThinAirRead, Id, OpIdx, NoTxn, {}});
        continue;
      }
      // (b) No aborted reads.
      if (!Txns[RI.Writer].Committed) {
        Out.push_back(
            {ViolationKind::AbortedRead, Id, OpIdx, RI.Writer, {}});
        continue;
      }

      uint32_t OwnLatest = Slot == NoOp ? NoOp : LatestOwnWrite[Slot];
      if (RI.Writer == Id) {
        // (c) No future reads: the observed own write must be po-earlier.
        if (RI.WriterOp > OpIdx) {
          Out.push_back({ViolationKind::FutureRead, Id, OpIdx, Id, {}});
          continue;
        }
        // (e, same txn) Observe latest own write.
        if (OwnLatest != RI.WriterOp) {
          Out.push_back(
              {ViolationKind::NotLatestWriteSameTxn, Id, OpIdx, Id, {}});
          continue;
        }
      } else {
        // (d) Observe own writes: reading externally is wrong if an own
        // po-earlier write to the key exists.
        if (OwnLatest != NoOp) {
          Out.push_back(
              {ViolationKind::NotOwnWrite, Id, OpIdx, RI.Writer, {}});
          continue;
        }
        // (e, other txn) Observe latest write: the observed write must be
        // the final write to the key inside the writer transaction — one
        // derived flag of the writer's op, never a rebuilt index.
        if (!Txns[RI.Writer].isFinalWrite(RI.WriterOp, Op.K)) {
          Out.push_back({ViolationKind::NotLatestWriteOtherTxn, Id, OpIdx,
                         RI.Writer,
                         {}});
          continue;
        }
      }
    }
  }
  return Out.size() == Before;
}
