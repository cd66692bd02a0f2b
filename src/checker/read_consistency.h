//===- checker/read_consistency.h - Read Consistency (Alg. 4) -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear-time Read Consistency check (paper Definition 2.3 and
/// Algorithm 4): no thin-air reads, no aborted reads, no future reads,
/// observe-own-writes, observe-latest-write. All three isolation levels
/// require Read Consistency as a precondition. Every failing read is
/// reported independently (paper §3.4).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_READ_CONSISTENCY_H
#define AWDIT_CHECKER_READ_CONSISTENCY_H

#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

class ThreadPool;

/// Checks the five Read Consistency axioms of \p H, appending one violation
/// per failing read to \p Out. Returns true iff no violation was found.
/// Hash-free: own writes are tracked in a scratch array aligned with the
/// reader's sorted WriteKeys (a binary search per op), and whether an
/// observed write is its writer's final write is a derived per-op flag
/// (Operation::Overwritten). An op costs O(log |KeysWt|) and nothing is
/// rebuilt per call. With \p Pool, transaction ranges run on it; the
/// violation list is the same.
bool checkReadConsistency(const History &H, std::vector<Violation> &Out,
                          ThreadPool *Pool = nullptr);

/// Range form of checkReadConsistency covering transactions [Begin, End).
/// Transactions are checked independently, so concatenating the outputs of
/// a partition of [0, numTxns) in range order reproduces the whole-history
/// violation list exactly. Returns true iff the range added no violation.
bool checkReadConsistencyRange(const History &H, TxnId Begin, TxnId End,
                               std::vector<Violation> &Out);

namespace detail {

/// Transactions per unit of work of the range-partitioned one-shot passes
/// (the read-level axioms and RC saturation) when they run on a pool.
/// Coarse enough that per-unit scratch allocation is noise.
constexpr size_t TxnGrain = 2048;

/// A per-transaction violation pass over [Begin, End), such as
/// checkReadConsistencyRange.
using TxnRangePass = bool (*)(const History &, TxnId, TxnId,
                              std::vector<Violation> &);

/// Runs \p Pass over every transaction of \p H: inline as one range
/// without a pool, else in TxnGrain ranges on \p Pool, appending the
/// range outputs to \p Out in range order. Returns true iff it appended
/// nothing.
bool runTxnRangePass(const History &H, ThreadPool *Pool,
                     std::vector<Violation> &Out, TxnRangePass Pass);

} // namespace detail

} // namespace awdit

#endif // AWDIT_CHECKER_READ_CONSISTENCY_H
