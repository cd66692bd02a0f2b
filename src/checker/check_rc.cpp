//===- checker/check_rc.cpp - AWDIT Read Committed (Alg. 1) ----------------===//

#include "checker/check_rc.h"

#include "checker/commit_graph.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "support/thread_pool.h"

using namespace awdit;

bool awdit::checkRc(const History &H, std::vector<Violation> &Out,
                    size_t MaxWitnesses, SaturationStats *Stats,
                    ThreadPool *Pool) {
  // Line 2: Read Consistency (Algorithm 4).
  if (!checkReadConsistency(H, Out, Pool))
    return false;

  // Lines 4-21: saturate co' over all transactions, each range into its
  // own edge buffer (transactions are independent).
  auto Inferred = collectChunks<std::vector<uint64_t>>(
      Pool, H.numTxns(), detail::TxnGrain,
      [&H](size_t Begin, size_t End, detail::EdgeRuns &Runs) {
        detail::RcScratch Scratch;
        detail::saturateRcRange(H, static_cast<TxnId>(Begin),
                                static_cast<TxnId>(End), Scratch,
                                detail::appendRuns(Runs));
      });

  // Line 3: co' <- so ∪ wr, built once the kernel is done; it then adopts
  // every range's edges.
  CommitGraph Co(H);
  for (detail::EdgeRuns &Runs : Inferred)
    for (std::vector<uint64_t> &Run : Runs)
      Co.adoptInferred(std::move(Run));

  if (Stats) {
    Stats->InferredEdges = Co.numInferredEdges();
    Stats->GraphEdges = Co.numEdges();
  }

  // Line 22: report a cycle if co' has one.
  return Co.checkAcyclic(Out, MaxWitnesses);
}
