//===- checker/checker.cpp - AWDIT checking facade --------------------------===//

#include "checker/checker.h"

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_ra_single_session.h"
#include "checker/check_rc.h"
#include "support/assert.h"
#include "support/thread_pool.h"

#include <optional>

using namespace awdit;

namespace {

/// Histories with fewer transactions than this run inline even when more
/// than one worker is requested: below it, thread startup dominates.
constexpr size_t ParallelThreshold = 4096;

} // namespace

CheckReport awdit::checkIsolation(const History &H, IsolationLevel Level,
                                  const CheckOptions &Options) {
  CheckReport Report;
  SaturationStats Sat;

  // The level's checker runs its units of work on a pool when more than
  // one worker is requested (or available, with Threads = 0) and the
  // history is large enough to amortize thread startup.
  size_t Threads =
      Options.Threads == 0 ? ThreadPool::defaultThreads() : Options.Threads;
  std::optional<ThreadPool> Pool;
  if (Threads > 1 && H.numTxns() >= ParallelThreshold)
    Pool.emplace(Threads);
  ThreadPool *P = Pool ? &*Pool : nullptr;

  switch (Level) {
  case IsolationLevel::ReadCommitted:
    Report.Consistent = checkRc(H, Report.Violations, Options.MaxWitnesses,
                                &Sat, P);
    break;
  case IsolationLevel::ReadAtomic:
    if (isSingleSession(H)) {
      Report.Consistent = checkRaSingleSession(H, Report.Violations);
      Report.Stats.UsedFastPath = true;
    } else {
      Report.Consistent = checkRa(H, Report.Violations, Options.MaxWitnesses,
                                  &Sat, P);
    }
    break;
  case IsolationLevel::CausalConsistency:
    Report.Consistent = checkCc(H, Report.Violations, Options.MaxWitnesses,
                                &Sat, P);
    break;
  }

  Report.Stats.InferredEdges = Sat.InferredEdges;
  Report.Stats.GraphEdges = Sat.GraphEdges;
  AWDIT_ASSERT(Report.Consistent == Report.Violations.empty(),
               "verdict must agree with the violation list");
  return Report;
}
