//===- checker/check_ra.cpp - AWDIT Read Atomic (Alg. 2) -------------------===//

#include "checker/check_ra.h"

#include "checker/commit_graph.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "support/thread_pool.h"

#include <algorithm>

using namespace awdit;

bool awdit::checkRepeatableReads(const History &H, std::vector<Violation> &Out,
                                 ThreadPool *Pool) {
  return detail::runTxnRangePass(H, Pool, Out, checkRepeatableReadsRange);
}

bool awdit::checkRepeatableReadsRange(const History &H, TxnId Begin,
                                      TxnId End,
                                      std::vector<Violation> &Out) {
  size_t Before = Out.size();
  // (key, po rank) of each external read, and the ranks of the reads that
  // disagree with the first read of their key; reused across the range.
  std::vector<std::pair<Key, uint32_t>> ByKey;
  std::vector<uint32_t> Failing;
  for (TxnId Id = Begin; Id < End; ++Id) {
    const Transaction &T = H.txn(Id);
    // Only external reads matter: the guard in Algorithm 2 line 25 skips
    // own-transaction writers.
    const std::vector<uint32_t> &Ext = T.ExtReads;
    if (!T.Committed || Ext.size() < 2)
      continue;
    ByKey.clear();
    for (uint32_t I = 0; I < Ext.size(); ++I)
      ByKey.emplace_back(T.Reads[Ext[I]].K, I);
    std::sort(ByKey.begin(), ByKey.end());
    // Within a key's run (po order), every read must observe the writer
    // of the run's first read.
    Failing.clear();
    TxnId First = NoTxn;
    for (size_t J = 0; J < ByKey.size(); ++J) {
      TxnId Writer = T.Reads[Ext[ByKey[J].second]].Writer;
      if (J == 0 || ByKey[J].first != ByKey[J - 1].first)
        First = Writer;
      else if (Writer != First)
        Failing.push_back(ByKey[J].second);
    }
    std::sort(Failing.begin(), Failing.end());
    for (uint32_t I : Failing) {
      const ReadInfo &RI = T.Reads[Ext[I]];
      Out.push_back({ViolationKind::NonRepeatableRead, Id, RI.OpIndex,
                     RI.Writer,
                     {}});
    }
  }
  return Out.size() == Before;
}

bool awdit::checkRa(const History &H, std::vector<Violation> &Out,
                    size_t MaxWitnesses, SaturationStats *Stats,
                    ThreadPool *Pool) {
  // Lines 2-3: Read Consistency, then repeatable reads.
  if (!checkReadConsistency(H, Out, Pool))
    return false;
  if (!checkRepeatableReads(H, Out, Pool))
    return false;

  // Lines 5-18: per-session saturation, each session's edges into its
  // unit's own buffer. The so-case last-writer table is sequential along
  // so, but sessions are independent.
  auto Inferred = collectChunks<std::vector<uint64_t>>(
      Pool, H.numSessions(), 1,
      [&H](size_t Begin, size_t End, detail::EdgeRuns &Runs) {
        detail::RaScratch Scratch;
        for (size_t S = Begin; S < End; ++S)
          detail::saturateRaSession(H, static_cast<SessionId>(S), Scratch,
                                    detail::appendRuns(Runs));
      });

  // Line 4: co' <- so ∪ wr, built once the kernel is done (as in checkRc);
  // it then adopts every session's edges.
  CommitGraph Co(H);
  for (detail::EdgeRuns &Runs : Inferred)
    for (std::vector<uint64_t> &Run : Runs)
      Co.adoptInferred(std::move(Run));

  if (Stats) {
    Stats->InferredEdges = Co.numInferredEdges();
    Stats->GraphEdges = Co.numEdges();
  }

  // Line 19: cycle check.
  return Co.checkAcyclic(Out, MaxWitnesses);
}
