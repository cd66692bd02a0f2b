//===- checker/check_cc.h - AWDIT Causal Consistency (Alg. 3) -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AWDIT's O(n·k) Causal Consistency checker (paper Algorithm 3 /
/// Theorem 1.2): happens-before computed with session-indexed vector
/// clocks, per-session last-writer tables advanced monotonically along so,
/// and co' acyclicity. checkCc is the one CC implementation, inline or
/// with work-balanced key-id ranges on a thread pool (see check_rc.h).
/// The paper's tool ships a §5 variant (on-the-fly clock rows with
/// recycling and binary-search lastWrite); measured on c-twitter and
/// random histories of 40 000 transactions it was slower than checkCc and
/// no smaller in peak memory, so it is not kept.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECK_CC_H
#define AWDIT_CHECKER_CHECK_CC_H

#include "checker/check_rc.h"
#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

/// The happens-before relation as one vector clock row per transaction.
/// Row t holds, per session s', 1 + SoIndex of the so-latest transaction
/// t' of s' with t' (so ∪ wr)+ t — exclusive of t itself; 0 is bottom.
struct HappensBefore {
  size_t NumSessions = 0;
  /// Flattened row-major [txn][session] clock matrix.
  std::vector<uint32_t> Rows;

  uint32_t get(TxnId T, SessionId S) const {
    return Rows[static_cast<size_t>(T) * NumSessions + S];
  }
};

/// Computes happens-before for \p H (Algorithm 3, ComputeHB). Returns false
/// if so ∪ wr is cyclic, in which case \p HB is unspecified.
bool computeHappensBefore(const History &H, HappensBefore &HB);

/// Checks whether \p H satisfies Causal Consistency. Appends violations to
/// \p Out (at most \p MaxWitnesses cycle witnesses) and returns true iff
/// consistent. With \p Pool, the Read Consistency pass runs over
/// transaction ranges and the per-key inference over work-balanced key-id
/// ranges on it; happens-before is one sequential chain along the
/// topological order either way.
bool checkCc(const History &H, std::vector<Violation> &Out,
             size_t MaxWitnesses = 16, SaturationStats *Stats = nullptr,
             ThreadPool *Pool = nullptr);

} // namespace awdit

#endif // AWDIT_CHECKER_CHECK_CC_H
