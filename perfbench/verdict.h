//===- perfbench/verdict.h - Expected verdicts and their tally ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark checks every verdict it times. Its inputs come from the
/// simulator in causal mode, so a clean history must be consistent at every
/// level; a history with an injected causality cycle must be inconsistent
/// at every level, with at least one violation. A verdict fails when it
/// differs from that, or when it never arrives (an error, an `ERR` reply, a
/// disconnect).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_PERFBENCH_VERDICT_H
#define AWDIT_PERFBENCH_VERDICT_H

#include <cstdint>
#include <string>
#include <vector>

namespace awdit::perfbench {

/// Why a verdict differs from the expected one; empty when it matches.
inline std::string verdictMismatch(bool Injected, bool Consistent,
                                   uint64_t Violations) {
  if (!Injected && !Consistent)
    return "clean history reported inconsistent (" +
           std::to_string(Violations) + " violations)";
  if (!Injected && Violations)
    return "clean history reported " + std::to_string(Violations) +
           " violations";
  if (Injected && Consistent)
    return "injected anomaly reported consistent";
  if (Injected && !Violations)
    return "injected anomaly reported inconsistent with no violation";
  return {};
}

/// Verdicts attempted and failed, with a name and reason per failure.
struct VerdictTally {
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;

  /// Counts one verdict of \p What (a level or tenant name): \p Reason is
  /// empty when it matched.
  void record(const std::string &What, const std::string &Reason) {
    ++Attempted;
    if (!Reason.empty())
      Failures.push_back(What + ": " + Reason);
  }

  void check(const std::string &What, bool Injected, bool Consistent,
             uint64_t Violations) {
    record(What, verdictMismatch(Injected, Consistent, Violations));
  }
};

} // namespace awdit::perfbench

#endif // AWDIT_PERFBENCH_VERDICT_H
