//===- support/dense_key_ids.h - Key -> dense id interning ------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns 64-bit keys to dense ids 0, 1, 2, ... in order of first sight:
/// open addressing with linear probing over (key, id) slots, kept at most
/// half full. One flat table serves every place that needs a distinct-key
/// count or a per-key vector index: the one-shot CC key index, the
/// Monitor's key universe, the streaming engine's writer index and
/// HistoryBuilder::build.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_DENSE_KEY_IDS_H
#define AWDIT_SUPPORT_DENSE_KEY_IDS_H

#include "history/types.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace awdit {

class DenseKeyIds {
public:
  /// What find() returns for a key that was never interned.
  static constexpr uint32_t NoId = ~uint32_t(0);

  /// Sized for \p ExpectedKeys without growing; growing is a fallback.
  explicit DenseKeyIds(size_t ExpectedKeys = 0) {
    resize(std::bit_ceil(std::max<size_t>(16, 2 * ExpectedKeys)));
  }

  /// The id of \p K, assigning the next one (== size() before the call)
  /// on first sight.
  uint32_t intern(Key K) {
    Slot *S = &Table[probe(K)];
    if (S->Id == NoId) {
      if (2 * (Count + 1) > Table.size()) {
        resize(2 * Table.size());
        S = &Table[probe(K)];
      }
      *S = {K, static_cast<uint32_t>(Count++)};
    }
    return S->Id;
  }

  /// The id of \p K, or NoId when it was never interned.
  uint32_t find(Key K) const { return Table[probe(K)].Id; }

  /// Number of distinct keys interned.
  size_t size() const { return Count; }

  /// Forgets every key; the capacity stays.
  void clear() {
    std::fill(Table.begin(), Table.end(), Slot{0, NoId});
    Count = 0;
  }

private:
  struct Slot {
    Key K;
    uint32_t Id;
  };

  /// The slot holding \p K, or the free slot where it would go.
  size_t probe(Key K) const {
    size_t Mask = Table.size() - 1;
    size_t I = static_cast<size_t>((K * 0x9e3779b97f4a7c15ull) >> Shift);
    while (Table[I].Id != NoId && Table[I].K != K)
      I = (I + 1) & Mask;
    return I;
  }

  void resize(size_t Capacity) {
    std::vector<Slot> Old(Capacity, Slot{0, NoId});
    Old.swap(Table);
    Shift = 64 - std::countr_zero(Capacity);
    for (const Slot &S : Old)
      if (S.Id != NoId)
        Table[probe(S.K)] = S;
  }

  std::vector<Slot> Table;
  size_t Count = 0;
  unsigned Shift = 64;
};

} // namespace awdit

#endif // AWDIT_SUPPORT_DENSE_KEY_IDS_H
