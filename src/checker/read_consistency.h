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

/// Checks the five Read Consistency axioms of \p H, appending one violation
/// per failing read to \p Out. Returns true iff no violation was found.
/// Hash-free: own writes are tracked in a scratch array aligned with the
/// reader's sorted WriteKeys (a binary search per op), and whether an
/// observed write is its writer's final write is a derived per-op flag
/// (Operation::Overwritten). An op costs O(log |KeysWt|) and nothing is
/// rebuilt per call.
bool checkReadConsistency(const History &H, std::vector<Violation> &Out);

/// Range form of checkReadConsistency covering transactions [Begin, End):
/// the unit of work of the parallel engine's sharded pass. Transactions are
/// checked independently, so concatenating the outputs of a partition of
/// [0, numTxns) in range order reproduces the sequential violation list
/// exactly. Returns true iff the range added no violation.
bool checkReadConsistencyRange(const History &H, TxnId Begin, TxnId End,
                               std::vector<Violation> &Out);

} // namespace awdit

#endif // AWDIT_CHECKER_READ_CONSISTENCY_H
