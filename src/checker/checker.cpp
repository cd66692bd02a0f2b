//===- checker/checker.cpp - AWDIT checking facade --------------------------===//

#include "checker/checker.h"

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_ra_single_session.h"
#include "checker/check_rc.h"
#include "checker/parallel.h"
#include "checker/read_consistency.h"
#include "checker/saturation_state.h"
#include "support/assert.h"
#include "support/thread_pool.h"

#include <optional>

using namespace awdit;

namespace {

/// The sequential engine path: the read-level axiom passes of the batch
/// algorithms, then the incremental saturation engine run as one
/// cold-start delta, then the canonical acyclicity pass. Structured
/// exactly like checkRc/checkRa/checkCc (same passes, same kernels, same
/// canonicalization), so verdicts, violation lists, statistics, and
/// witness cycles are bit-identical to them on every history.
bool checkSequentialViaEngine(const History &H, IsolationLevel Level,
                              std::vector<Violation> &Out,
                              size_t MaxWitnesses, SaturationStats *Stats) {
  if (!checkReadConsistency(H, Out))
    return false;
  if (Level == IsolationLevel::ReadAtomic && !checkRepeatableReads(H, Out))
    return false;
  SaturationState Engine(Level, SaturationState::Mode::Batch);
  Engine.coldStart(H);
  // The batch CC checker never reports saturation stats when so ∪ wr is
  // already cyclic (it stops before saturating); mirror that.
  bool SkipStats =
      Level == IsolationLevel::CausalConsistency && Engine.baseCyclic();
  return Engine.finalizeAcyclic(H, Out, MaxWitnesses,
                                SkipStats ? nullptr : Stats);
}

} // namespace

CheckReport awdit::checkIsolation(const History &H, IsolationLevel Level,
                                  const CheckOptions &Options) {
  CheckReport Report;
  SaturationStats Sat;

  // The parallel engine kicks in when more than one worker is requested
  // (or available, with Threads = 0) and the history is large
  // enough to amortize thread startup. The OnTheFly CC variant is pinned
  // to the sequential path: its purpose is bounded memory.
  size_t Threads =
      Options.Threads == 0 ? ThreadPool::defaultThreads() : Options.Threads;
  bool UseParallel =
      Threads > 1 && H.numTxns() >= Options.ParallelThreshold &&
      !(Level == IsolationLevel::CausalConsistency &&
        Options.Cc == CcVariant::OnTheFly);
  std::optional<ThreadPool> Pool;
  if (UseParallel)
    Pool.emplace(Threads);

  switch (Level) {
  case IsolationLevel::ReadCommitted:
    Report.Consistent =
        UseParallel
            ? checkRcParallel(H, *Pool, Report.Violations,
                              Options.MaxWitnesses, &Sat)
            : checkSequentialViaEngine(H, Level, Report.Violations,
                                       Options.MaxWitnesses, &Sat);
    break;
  case IsolationLevel::ReadAtomic:
    if (Options.UseSingleSessionFastPath && isSingleSession(H)) {
      Report.Consistent = checkRaSingleSession(H, Report.Violations);
      Report.Stats.UsedFastPath = true;
    } else if (UseParallel) {
      Report.Consistent = checkRaParallel(H, *Pool, Report.Violations,
                                          Options.MaxWitnesses, &Sat);
    } else {
      Report.Consistent = checkSequentialViaEngine(
          H, Level, Report.Violations, Options.MaxWitnesses, &Sat);
    }
    break;
  case IsolationLevel::CausalConsistency:
    if (UseParallel)
      Report.Consistent = checkCcParallel(H, *Pool, Report.Violations,
                                          Options.MaxWitnesses, &Sat);
    else if (Options.Cc == CcVariant::OnTheFly)
      Report.Consistent = checkCcOnTheFly(H, Report.Violations,
                                          Options.MaxWitnesses, &Sat);
    else
      Report.Consistent = checkSequentialViaEngine(
          H, Level, Report.Violations, Options.MaxWitnesses, &Sat);
    break;
  }

  Report.Stats.InferredEdges = Sat.InferredEdges;
  Report.Stats.GraphEdges = Sat.GraphEdges;
  AWDIT_ASSERT(Report.Consistent == Report.Violations.empty(),
               "verdict must agree with the violation list");
  return Report;
}
