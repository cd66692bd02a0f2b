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
/// benchmark harness use.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECKER_H
#define AWDIT_CHECKER_CHECKER_H

#include "checker/isolation_level.h"
#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

/// Implementation variant for the CC checker (both are Algorithm 3; see
/// check_cc.h).
enum class CcVariant : uint8_t {
  /// Full HB matrix + monotone pointer scans (the algorithm as written).
  PointerScan,
  /// On-the-fly HB with recycled rows + binary-search lastWrite (the
  /// variant the paper's tool ships, §5). Lower memory.
  OnTheFly,
};

/// Options controlling a consistency check.
struct CheckOptions {
  /// Maximum number of cycle witnesses to extract (one per SCC, §3.4).
  /// 0 requests verdict-only mode (fastest when violations exist).
  size_t MaxWitnesses = 16;
  /// Use the linear single-session RA fast path (Theorem 1.6) when the
  /// history qualifies and the level is RA.
  bool UseSingleSessionFastPath = true;
  /// Which CC implementation to run. The OnTheFly variant is sequential by
  /// design (its point is O(width·k) memory); selecting it pins the check
  /// to the sequential path regardless of Threads.
  CcVariant Cc = CcVariant::PointerScan;
  /// Worker threads of the sharded parallel engine (checker/parallel.h).
  /// 0 selects one worker per hardware thread; 1 runs the exact legacy
  /// sequential path. Both engines produce bit-identical verdicts,
  /// violation lists, statistics, and witness cycles on every history
  /// (enforced by tests/test_parallel.cpp).
  unsigned Threads = 0;
  /// Histories with fewer transactions than this run sequentially even
  /// when Threads > 1 — below it, thread startup dominates the check.
  /// Set to 0 to force the parallel engine (tests do).
  size_t ParallelThreshold = 4096;
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
/// The one-shot engine: dispatches to the sequential or parallel RC/RA/CC
/// algorithms over a complete history. Monitor::finalize() runs it as its
/// canonical pass, so a monitor fed the same history reports bit-identical
/// results (enforced by tests/test_monitor.cpp). Callers that receive
/// transactions incrementally should use Monitor (checker/monitor.h)
/// directly instead of materializing a History first.
CheckReport checkIsolation(const History &H, IsolationLevel Level,
                           const CheckOptions &Options = {});

} // namespace awdit

#endif // AWDIT_CHECKER_CHECKER_H
