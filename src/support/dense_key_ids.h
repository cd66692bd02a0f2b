//===- support/dense_key_ids.h - Key -> dense id interning ------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns 64-bit keys to dense ids 0, 1, 2, ... in order of first sight:
/// a FlatSet (support/flat_map.h) whose insertion index is the id, so the
/// id -> key direction is the table's own order and no caller keeps a key
/// vector beside it. It serves every place that needs a distinct-key count
/// or a per-key vector index: the one-shot CC key index, the Monitor's key
/// universe, the streaming engine's writer index and HistoryBuilder::build.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_DENSE_KEY_IDS_H
#define AWDIT_SUPPORT_DENSE_KEY_IDS_H

#include "history/types.h"
#include "support/flat_map.h"

#include <cstdint>

namespace awdit {

class DenseKeyIds {
public:
  /// What find() returns for a key that was never interned.
  static constexpr uint32_t NoId = FlatSet::NoIndex;

  /// Sized for \p ExpectedKeys without growing; growing is a fallback.
  explicit DenseKeyIds(size_t ExpectedKeys = 0) : Ids(ExpectedKeys) {}

  /// The id of \p K, assigning the next one (== size() before the call)
  /// on first sight.
  uint32_t intern(Key K) { return Ids.insert(K).first; }

  /// The id of \p K, or NoId when it was never interned.
  uint32_t find(Key K) const { return Ids.indexOf(K); }

  /// The key of id \p Id.
  Key keyOf(uint32_t Id) const { return Ids.keyAt(Id); }

  /// Number of distinct keys interned.
  size_t size() const { return Ids.size(); }

  /// Forgets every key; the capacity stays.
  void clear() { Ids.clear(); }

private:
  FlatSet Ids;
};

} // namespace awdit

#endif // AWDIT_SUPPORT_DENSE_KEY_IDS_H
