//===- checker/checker.h - AWDIT checking facade ------------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the AWDIT library: check a history against a
/// weak isolation level and obtain a verdict, violations with witnesses,
/// and run statistics. This is the API the examples, the CLI tool, and the
/// benchmark harness use. Each level has one one-shot implementation
/// (check_rc.h, check_ra.h, check_cc.h) that runs inline or on a thread
/// pool; this facade picks the level's checker, takes the single-session
/// RA fast path whenever the history qualifies, and builds the pool only
/// when more than one worker is asked for and the history has at least
/// 4096 transactions. Tests and benches that want one path call the
/// level's checker directly.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECKER_H
#define AWDIT_CHECKER_CHECKER_H

#include "checker/isolation_level.h"
#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

/// Options controlling a consistency check: the two knobs the CLI, `awdit
/// serve` and the benchmarks set.
struct CheckOptions {
  /// Maximum number of cycle witnesses to extract (one per SCC, §3.4).
  /// 0 requests verdict-only mode (fastest when violations exist).
  size_t MaxWitnesses = 16;
  /// Workers of the pool the level's checker runs its units of work on
  /// (see check_rc.h). 1 (the default) builds no pool and runs the check
  /// inline; 0 selects one worker per hardware thread. Histories under
  /// 4096 transactions run inline whatever this says: below that, thread
  /// startup dominates the check. Verdicts, violation lists, statistics,
  /// and witness cycles are bit-identical either way on every history
  /// (enforced by tests/test_parallel.cpp).
  unsigned Threads = 1;
};

/// Statistics of a completed check.
struct CheckStats {
  /// Inferred (non so/wr) co' edges added by saturation.
  size_t InferredEdges = 0;
  /// Total edges of the final commit graph.
  size_t GraphEdges = 0;
  /// True if the single-session RA fast path was taken.
  bool UsedFastPath = false;
};

/// The result of checking one history against one isolation level.
struct CheckReport {
  bool Consistent = false;
  std::vector<Violation> Violations;
  CheckStats Stats;
};

/// Checks whether \p H satisfies \p Level using the AWDIT algorithms
/// (Algorithm 1 for RC, Algorithm 2 for RA, Algorithm 3 for CC, and the
/// Theorem 1.6 fast path for single-session RA).
///
/// The one-shot entry point: builds a pool when Options ask for one and the
/// history is large enough, then runs the level's checker over the
/// complete history (checkRc, checkRa or checkCc; checkRaSingleSession for
/// RA on a single-session history). Monitor::finalize() runs it as its
/// canonical pass, so a monitor fed the same history reports bit-identical
/// results (enforced by tests/test_monitor.cpp). Callers that receive
/// transactions incrementally should use Monitor (checker/monitor.h)
/// directly instead of materializing a History first.
CheckReport checkIsolation(const History &H, IsolationLevel Level,
                           const CheckOptions &Options = {});

} // namespace awdit

#endif // AWDIT_CHECKER_CHECKER_H
