//===- history/transaction.h - Transaction record ----------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Transaction record (paper Definition 2.1) plus the derived per-
/// transaction indices the checking algorithms read: resolved reads,
/// distinct write keys (and which writes are final), and distinct external
/// writers in first-read order. HistoryBuilder::build() derives them for a
/// complete history, Monitor::deriveTxn() for each transaction of a live
/// stream.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_TRANSACTION_H
#define AWDIT_HISTORY_TRANSACTION_H

#include "history/types.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace awdit {

/// A read operation after wr resolution. `Writer == NoTxn` marks a thin-air
/// read; `Writer == <own id>` marks an internal read (observe-own-writes).
struct ReadInfo {
  /// Index of the read in Transaction::Ops (its po position).
  uint32_t OpIndex;
  Key K;
  Value V;
  /// The transaction whose write this read observes (via unique values).
  TxnId Writer;
  /// The op index of the observed write inside the writer, NoOp if thin-air.
  uint32_t WriterOp;
};

/// A client transaction: its operations in program order, its session
/// coordinates, and the derived indices (HistoryBuilder::build(),
/// Monitor::deriveTxn()).
struct Transaction {
  /// The session this transaction belongs to.
  SessionId Session = 0;
  /// Position of this transaction within its session's so order.
  uint32_t SoIndex = 0;
  /// Committed transactions form T_c; aborted ones T_a (Definition 2.2).
  bool Committed = true;
  /// Operations in program order.
  std::vector<Operation> Ops;

  // --- Derived by HistoryBuilder::build() / Monitor::deriveTxn(). ---

  /// All reads in po order, with resolved writers.
  std::vector<ReadInfo> Reads;
  /// Indices into Reads of *external* reads: the writer is a different,
  /// committed transaction. These are exactly the reads that participate in
  /// the RC/RA/CC axioms (the txn-level wr relation requires r not in t1).
  std::vector<uint32_t> ExtReads;
  /// Distinct keys written, sorted ascending (KeysWt(t)).
  std::vector<Key> WriteKeys;
  /// Distinct committed external writer transactions, in order of their
  /// first read by this transaction (the txn-level wr predecessors).
  std::vector<TxnId> ReadFroms;

  /// Returns true if this transaction writes \p K (binary search over the
  /// sorted WriteKeys — O(log |KeysWt|)).
  bool writesKey(Key K) const {
    return std::binary_search(WriteKeys.begin(), WriteKeys.end(), K);
  }

  /// Position of \p K in WriteKeys, or NoOp if this transaction does not
  /// write it. O(log |KeysWt|).
  uint32_t writeKeySlot(Key K) const {
    auto It = std::lower_bound(WriteKeys.begin(), WriteKeys.end(), K);
    if (It == WriteKeys.end() || *It != K)
      return NoOp;
    return static_cast<uint32_t>(It - WriteKeys.begin());
  }

  /// Returns true if op \p OpIdx is the final write to \p K in this
  /// transaction: the only write of \p K another transaction may observe.
  /// O(1); needs the Overwritten flags (markOverwrittenWrites()).
  bool isFinalWrite(uint32_t OpIdx, Key K) const {
    return OpIdx < Ops.size() && Ops[OpIdx].isWrite() &&
           Ops[OpIdx].K == K && !Ops[OpIdx].Overwritten;
  }

  /// Derives WriteKeys and the Overwritten flags of Ops. \p Scratch is
  /// working space the caller reuses across transactions.
  void deriveWriteKeys(std::vector<std::pair<Key, uint32_t>> &Scratch) {
    markOverwrittenWrites(Scratch);
    // Scratch holds (key, op index) of every write sorted by key, and each
    // written key has exactly one final write.
    WriteKeys.clear();
    WriteKeys.reserve(std::count_if(Ops.begin(), Ops.end(),
                                    [](const Operation &Op) {
                                      return Op.isWrite() && !Op.Overwritten;
                                    }));
    for (auto [K, OpIdx] : Scratch)
      if (!Ops[OpIdx].Overwritten)
        WriteKeys.push_back(K);
  }

  /// Sets the Overwritten flag of every write in Ops, leaving (key, op
  /// index) of every write in \p Writes, sorted. A checkpoint restores
  /// WriteKeys but not the flags, so its loader calls this alone.
  void markOverwrittenWrites(std::vector<std::pair<Key, uint32_t>> &Writes) {
    // Within a key's run, every write but the last is overwritten.
    Writes.clear();
    for (uint32_t OpIdx = 0; OpIdx < Ops.size(); ++OpIdx) {
      if (!Ops[OpIdx].isWrite())
        continue;
      Ops[OpIdx].Overwritten = false;
      Writes.emplace_back(Ops[OpIdx].K, OpIdx);
    }
    std::sort(Writes.begin(), Writes.end());
    for (size_t I = 1; I < Writes.size(); ++I)
      if (Writes[I].first == Writes[I - 1].first)
        Ops[Writes[I - 1].second].Overwritten = true;
  }

  /// Number of operations (reads + writes).
  size_t size() const { return Ops.size(); }
};

} // namespace awdit

#endif // AWDIT_HISTORY_TRANSACTION_H
