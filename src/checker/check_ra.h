//===- checker/check_ra.h - AWDIT Read Atomic (Alg. 2) ------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AWDIT's O(n^{3/2}) Read Atomic checker (paper Algorithm 2 /
/// Theorem 1.1): Read Consistency, the repeatable-reads property, and co'
/// saturation handling the so ∪ wr premise as two separate cases (session
/// last-writer table, and smaller-set intersection per wr predecessor).
/// The one-shot RA implementation, inline or with one unit of work per
/// session on a thread pool (see check_rc.h).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_CHECK_RA_H
#define AWDIT_CHECKER_CHECK_RA_H

#include "checker/check_rc.h"
#include "checker/violation.h"
#include "history/history.h"

#include <vector>

namespace awdit {

/// Checks the repeatable-reads property (Algorithm 2, lines 21-28): no
/// committed transaction reads the same key from two different
/// transactions. Appends NonRepeatableRead violations; returns true iff the
/// property holds. With \p Pool, transaction ranges run on it; the
/// violation list is the same.
bool checkRepeatableReads(const History &H, std::vector<Violation> &Out,
                          ThreadPool *Pool = nullptr);

/// Range form of checkRepeatableReads over transactions [Begin, End).
/// Transactions are independent; concatenating range outputs in range
/// order reproduces the whole-history violation list.
bool checkRepeatableReadsRange(const History &H, TxnId Begin, TxnId End,
                               std::vector<Violation> &Out);

/// Checks whether \p H satisfies Read Atomic. Appends violations to \p Out
/// (at most \p MaxWitnesses cycle witnesses) and returns true iff
/// consistent. With \p Pool, the read-level passes run over transaction
/// ranges and saturation over sessions on it.
bool checkRa(const History &H, std::vector<Violation> &Out,
             size_t MaxWitnesses = 16, SaturationStats *Stats = nullptr,
             ThreadPool *Pool = nullptr);

} // namespace awdit

#endif // AWDIT_CHECKER_CHECK_RA_H
