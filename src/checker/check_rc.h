//===- checker/check_rc.h - AWDIT Read Committed (Alg. 1) ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AWDIT's O(n^{3/2}) Read Committed checker (paper Algorithm 1 /
/// Theorem 1.1). Builds a saturated, minimal co' using per-transaction
/// reverse scans with a two-slot earliest-writers stack and smaller-set
/// intersections, then decides acyclicity.
///
/// checkRc, checkRa and checkCc are the one-shot implementation of their
/// level, serial or parallel: an optional ThreadPool runs their units of
/// work (transaction ranges, sessions, key-id ranges) on its workers. Each
/// unit writes inferred edges into its own buffer and violations into its
/// own list, concatenated in unit order; the commit graph sorts and
/// deduplicates the edges, so verdicts, violation lists, statistics and
/// witness cycles are the same with or without a pool.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECK_RC_H
#define AWDIT_CHECKER_CHECK_RC_H

#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

class ThreadPool;

/// Statistics of one co'-saturation run, for reporting and benches.
struct SaturationStats {
  size_t InferredEdges = 0;
  size_t GraphEdges = 0;
};

/// Checks whether \p H satisfies Read Committed. Appends violations to
/// \p Out (at most \p MaxWitnesses cycle witnesses) and returns true iff
/// consistent. If Read Consistency already fails, the co' stage is skipped
/// (mirroring Algorithm 1, which exits after CheckReadConsistency). With
/// \p Pool, both passes run over transaction ranges on it.
bool checkRc(const History &H, std::vector<Violation> &Out,
             size_t MaxWitnesses = 16, SaturationStats *Stats = nullptr,
             ThreadPool *Pool = nullptr);

} // namespace awdit

#endif // AWDIT_CHECKER_CHECK_RC_H
