//===- checker/parallel.h - Sharded parallel checking engine -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel counterparts of the RC/RA/CC checkers, selected by
/// CheckOptions::Threads through checkIsolation(). The engine runs the same
/// saturation kernels as the sequential checkers (checker/saturation_impl.h)
/// over independent units of work — transaction ranges for RC and the Read
/// Consistency pass, sessions for RA, work-balanced key-id ranges of one
/// shared key index for CC — and has every unit feed its inferred edges
/// into one merged SaturationState (checker/saturation_state.h) through
/// striped buffers.
/// The state's canonical finalize (SCC pass and witness extraction) stays
/// sequential on the merged edge set.
///
/// Determinism: the merged edge set is canonicalized (sorted, deduplicated)
/// before the graph sees it, and per-range violation lists are concatenated
/// in range order, so verdicts, violation lists, statistics, and witness
/// cycles are bit-identical to the sequential engine on every history.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_PARALLEL_H
#define AWDIT_CHECKER_PARALLEL_H

#include "checker/check_rc.h"
#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

class ThreadPool;

/// Parallel Read Consistency (Algorithm 4): transaction ranges checked on
/// \p Pool, violations concatenated in range order (identical list to
/// checkReadConsistency). Returns true iff no violation was found.
bool checkReadConsistencyParallel(const History &H, ThreadPool &Pool,
                                  std::vector<Violation> &Out);

/// Parallel Read Committed (Algorithm 1) on \p Pool. Same contract and
/// results as checkRc.
bool checkRcParallel(const History &H, ThreadPool &Pool,
                     std::vector<Violation> &Out, size_t MaxWitnesses = 16,
                     SaturationStats *Stats = nullptr);

/// Parallel Read Atomic (Algorithm 2) on \p Pool: one saturation task per
/// session. Same contract and results as checkRa.
bool checkRaParallel(const History &H, ThreadPool &Pool,
                     std::vector<Violation> &Out, size_t MaxWitnesses = 16,
                     SaturationStats *Stats = nullptr);

/// Parallel Causal Consistency (Algorithm 3) on \p Pool: happens-before is
/// filled sequentially (it is a chain computation along the topological
/// order), then the per-key last-writer kernel runs over key-id ranges in
/// parallel. Same contract and results as checkCc.
bool checkCcParallel(const History &H, ThreadPool &Pool,
                     std::vector<Violation> &Out, size_t MaxWitnesses = 16,
                     SaturationStats *Stats = nullptr);

} // namespace awdit

#endif // AWDIT_CHECKER_PARALLEL_H
