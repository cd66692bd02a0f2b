//===- history/history_builder.cpp - History construction -----------------===//

#include "history/history_builder.h"

#include "history/wr_resolver.h"
#include "support/assert.h"
#include "support/dense_key_ids.h"

using namespace awdit;

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

SessionId HistoryBuilder::addSession() {
  return static_cast<SessionId>(NumSessions++);
}

TxnId HistoryBuilder::beginTxn(SessionId S) {
  AWDIT_ASSERT(S < NumSessions, "beginTxn: unknown session");
  Txns.push_back(PendingTxn{S, /*Aborted=*/false, {}});
  return static_cast<TxnId>(Txns.size() - 1);
}

void HistoryBuilder::read(TxnId T, Key K, Value V) {
  append(T, Operation::read(K, V));
}

void HistoryBuilder::write(TxnId T, Key K, Value V) {
  append(T, Operation::write(K, V));
}

void HistoryBuilder::append(TxnId T, Operation Op) {
  AWDIT_ASSERT(T < Txns.size(), "append: unknown transaction");
  Txns[T].Ops.push_back(Op);
}

void HistoryBuilder::commit(TxnId T) {
  AWDIT_ASSERT(T < Txns.size(), "commit: unknown transaction");
  Txns[T].Aborted = false;
}

void HistoryBuilder::abortTxn(TxnId T) {
  AWDIT_ASSERT(T < Txns.size(), "abortTxn: unknown transaction");
  Txns[T].Aborted = true;
}

std::optional<History> HistoryBuilder::build(std::string *Err) const {
  History H;
  std::string LocalErr;

  // Copy the raw transactions; an optional synthetic initial transaction is
  // appended at the end so user-visible TxnIds are stable.
  size_t NumUserTxns = Txns.size();
  size_t NumWrites = 0;
  H.Txns.resize(NumUserTxns);
  H.Sessions.resize(NumSessions);
  for (size_t I = 0; I < NumUserTxns; ++I) {
    Transaction &T = H.Txns[I];
    T.Session = Txns[I].Session;
    T.Committed = !Txns[I].Aborted;
    T.Ops = Txns[I].Ops;
    for (const Operation &Op : T.Ops)
      NumWrites += Op.isWrite();
  }

  // Index every write site by (key, value) and collect all keys.
  WriteSiteIndex WriteIndex(NumWrites);
  DenseKeyIds AllKeys;
  for (size_t I = 0; I < NumUserTxns; ++I) {
    const Transaction &T = H.Txns[I];
    for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx) {
      const Operation &Op = T.Ops[OpIdx];
      AllKeys.intern(Op.K);
      if (!Op.isWrite())
        continue;
      if (!WriteIndex.record(Op.K, Op.V, static_cast<TxnId>(I), OpIdx)) {
        fail(Err, duplicateWriteMessage(Op.K, Op.V));
        return std::nullopt;
      }
    }
  }

  // Optionally synthesize the initial transaction for reads of 0 on keys
  // that nothing writes.
  if (ImplicitInit) {
    DenseKeyIds InitKeys;
    for (size_t I = 0; I < NumUserTxns; ++I) {
      for (const Operation &Op : H.Txns[I].Ops) {
        if (!Op.isRead() || Op.V != 0)
          continue;
        if (WriteIndex.find(Op.K, 0))
          continue;
        InitKeys.intern(Op.K);
      }
    }
    if (InitKeys.size() > 0) {
      Transaction Init;
      Init.Session = static_cast<SessionId>(NumSessions);
      Init.Committed = true;
      for (uint32_t Id = 0; Id < InitKeys.size(); ++Id)
        Init.Ops.push_back(Operation::write(InitKeys.keyOf(Id), 0));
      TxnId InitId = static_cast<TxnId>(H.Txns.size());
      H.Txns.push_back(std::move(Init));
      H.Sessions.emplace_back();
      for (uint32_t OpIdx = 0; OpIdx < InitKeys.size(); ++OpIdx)
        WriteIndex.record(InitKeys.keyOf(OpIdx), 0, InitId, OpIdx);
    }
  }

  // Assign session orders. Aborted transactions are excluded from so
  // (H|s contains only committed transactions, Definition 2.2) but keep a
  // SoIndex for diagnostics.
  for (size_t I = 0; I < H.Txns.size(); ++I) {
    Transaction &T = H.Txns[I];
    if (!T.Committed)
      continue;
    std::vector<TxnId> &Sess = H.Sessions[T.Session];
    T.SoIndex = static_cast<uint32_t>(Sess.size());
    Sess.push_back(static_cast<TxnId>(I));
  }

  // Resolve reads and derive per-transaction indices. Stamp[W] == I + 1
  // marks writer W as already listed in transaction I's ReadFroms.
  size_t TotalOps = 0;
  size_t CommittedCount = 0;
  std::vector<TxnId> Stamp(H.Txns.size(), 0);
  std::vector<std::pair<Key, uint32_t>> WriteScratch;
  for (size_t I = 0; I < H.Txns.size(); ++I) {
    Transaction &T = H.Txns[I];
    TotalOps += T.Ops.size();
    if (T.Committed)
      ++CommittedCount;

    T.deriveWriteKeys(WriteScratch);
    T.Reads.reserve(T.Ops.size() - WriteScratch.size());
    for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx) {
      const Operation &Op = T.Ops[OpIdx];
      if (Op.isWrite())
        continue;
      ReadInfo RI{OpIdx, Op.K, Op.V, NoTxn, NoOp};
      if (const WriteSite *Site = WriteIndex.find(Op.K, Op.V)) {
        RI.Writer = Site->T;
        RI.WriterOp = Site->Op;
      }
      uint32_t ReadIdx = static_cast<uint32_t>(T.Reads.size());
      T.Reads.push_back(RI);
      // External reads: distinct committed writer transaction. These drive
      // the txn-level wr relation used by all three isolation axioms.
      if (RI.Writer != NoTxn && RI.Writer != static_cast<TxnId>(I) &&
          H.Txns[RI.Writer].Committed) {
        T.ExtReads.push_back(ReadIdx);
        if (Stamp[RI.Writer] != static_cast<TxnId>(I + 1)) {
          Stamp[RI.Writer] = static_cast<TxnId>(I + 1);
          T.ReadFroms.push_back(RI.Writer);
        }
      }
    }
  }

  H.TotalOps = TotalOps;
  H.CommittedCount = CommittedCount;
  H.KeyCount = AllKeys.size();
  return H;
}
