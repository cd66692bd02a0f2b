//===- bench/bench_util.h - Shared benchmark harness helpers ------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the figure/table reproduction binaries: timed checker
/// runs (AWDIT and baselines) with per-history timeouts, and environment
/// knobs for scaling the experiments (AWDIT_BENCH_SCALE=quick|full).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_BENCH_BENCH_UTIL_H
#define AWDIT_BENCH_BENCH_UTIL_H

#include "baseline/baseline.h"
#include "checker/checker.h"
#include "support/timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace awdit::bench {

/// Returns true when AWDIT_BENCH_SCALE=full is set: paper-scale runs
/// (minutes to hours) instead of the quick default.
inline bool fullScale() {
  const char *Env = std::getenv("AWDIT_BENCH_SCALE");
  return Env != nullptr && std::strcmp(Env, "full") == 0;
}

/// One timed run.
struct TimedResult {
  double Seconds = 0.0;
  bool Consistent = false;
  bool TimedOut = false;
};

/// Times an AWDIT check (witness extraction off: the paper measures the
/// decision procedure). \p Threads: the default 1 runs the checker inline,
/// the algorithm the paper's figures measure; > 1 (or 0 = all cores) runs
/// its units of work on a pool of that many workers once the history has
/// 4096 transactions (CheckOptions::Threads).
inline TimedResult timeAwdit(const History &H, IsolationLevel Level,
                             unsigned Threads = 1) {
  CheckOptions Options;
  Options.MaxWitnesses = 1;
  Options.Threads = Threads;
  Timer T;
  CheckReport Report = checkIsolation(H, Level, Options);
  return {T.elapsedSeconds(), Report.Consistent, false};
}

/// Times a baseline run under \p TimeoutSeconds.
inline TimedResult timeBaseline(BaselineChecker &Checker, const History &H,
                                IsolationLevel Level,
                                double TimeoutSeconds) {
  Timer T;
  BaselineResult Res = Checker.check(H, Level, Deadline(TimeoutSeconds));
  double Elapsed = T.elapsedSeconds();
  // Hard timeout semantics: an overshoot past the budget (e.g. the final
  // acyclicity pass after the last deadline poll) counts as DNF.
  bool TimedOut =
      Res.TimedOut || (TimeoutSeconds > 0 && Elapsed > TimeoutSeconds);
  return {Elapsed, Res.Consistent && !TimedOut, TimedOut};
}

/// Formats a timing cell: "12.345" seconds, or "timeout".
inline std::string cell(const TimedResult &R) {
  if (R.TimedOut)
    return "timeout";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", R.Seconds);
  return Buf;
}

} // namespace awdit::bench

#endif // AWDIT_BENCH_BENCH_UTIL_H
