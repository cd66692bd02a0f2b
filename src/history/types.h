//===- history/types.h - Core identifier and operation types ----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fundamental value types of the history model (paper §2.1): keys, values,
/// operation/transaction/session identifiers, and the read/write operation
/// record. Keys and values are integers; parsers intern string keys.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_TYPES_H
#define AWDIT_HISTORY_TYPES_H

#include <cstdint>
#include <limits>

namespace awdit {

/// Identifier of a transaction: an index into History::transactions().
using TxnId = uint32_t;

/// Identifier of a session: an index into History::sessions().
using SessionId = uint32_t;

/// A database key. Parsers intern textual keys into this space.
using Key = uint64_t;

/// A written/read value. The black-box testing methodology (paper §2.1)
/// assumes every write carries a unique value per key, making the wr
/// relation recoverable from values alone.
using Value = int64_t;

/// Sentinel for "no transaction".
inline constexpr TxnId NoTxn = std::numeric_limits<TxnId>::max();

/// Sentinel for "no operation index".
inline constexpr uint32_t NoOp = std::numeric_limits<uint32_t>::max();

/// The kind of a client operation.
enum class OpKind : uint8_t { Read, Write };

/// A single read or write operation, stored inside its transaction in
/// program order (po).
struct Operation {
  OpKind Kind;
  /// Derived with the transaction's indices (Transaction::deriveWriteKeys):
  /// set on a write that a po-later write of its transaction to the same
  /// key overwrites, so no other transaction may observe it. Fills padding;
  /// never serialized and ignored by ==.
  bool Overwritten = false;
  Key K;
  Value V;

  static Operation read(Key K, Value V) {
    return {OpKind::Read, false, K, V};
  }
  static Operation write(Key K, Value V) {
    return {OpKind::Write, false, K, V};
  }

  bool isRead() const { return Kind == OpKind::Read; }
  bool isWrite() const { return Kind == OpKind::Write; }

  friend bool operator==(const Operation &A, const Operation &B) {
    return A.Kind == B.Kind && A.K == B.K && A.V == B.V;
  }
};

} // namespace awdit

#endif // AWDIT_HISTORY_TYPES_H
