//===- support/flat_map.h - Insertion-ordered flat hash table ---*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one open-addressing table behind every map and set over 64-bit keys
/// that is filled and then cleared whole: the RC and RA kernels'
/// per-transaction scratch, RA's per-session last writers, the CC kernel's
/// per-key emit set and DenseKeyIds (support/dense_key_ids.h).
///
/// Linear probing over {key, rank, value} slots, at most half full. Rank 0
/// marks a free slot, so every 64-bit key can be stored, 0 and ~0
/// included; otherwise the rank is the key's insertion index plus one.
/// Beside the slots the table keeps the used slots in first-insert order,
/// which makes clear() cost what was inserted, never the capacity (a
/// scratch table is cleared once per transaction, after a large one may
/// have grown it), iteration cost the size, and each key's insertion index
/// stable across growth.
///
/// Nothing is erased one key at a time. The two tables that must erase,
/// PackedEdgeMap and WriteSiteIndex, shift probe chains back instead and
/// carry no rank or order entry per slot.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_FLAT_MAP_H
#define AWDIT_SUPPORT_FLAT_MAP_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace awdit {

/// The map form maps a key to a \p V; FlatMap<> (FlatSet) is the set form.
template <typename V = void> class FlatMap {
  struct NoValue {};
  static constexpr bool IsSet = std::is_void_v<V>;
  using Stored = std::conditional_t<IsSet, NoValue, V>;

public:
  /// What indexOf() returns for a key that is absent.
  static constexpr uint32_t NoIndex = ~uint32_t(0);

  /// Sized for \p Expected keys without growing.
  explicit FlatMap(size_t Expected = 0) {
    rehash(std::bit_ceil(std::max<size_t>(16, 2 * Expected)));
  }

  size_t size() const { return Order.size(); }
  size_t capacity() const { return Table.size(); }

  /// The insertion index of \p K, or NoIndex.
  uint32_t indexOf(uint64_t K) const { return Table[probe(K)].Rank - 1; }

  /// The key inserted \p Index-th.
  uint64_t keyAt(uint32_t Index) const { return Table[Order[Index]].K; }

  /// Inserts \p K, mapped to \p Val in the map form, unless present.
  /// Returns the insertion index of \p K and whether it was inserted.
  std::pair<uint32_t, bool> insert(uint64_t K, Stored Val = Stored()) {
    size_t I = probe(K);
    bool New = Table[I].Rank == 0;
    if (New)
      I = place(I, K, std::move(Val));
    return {Table[I].Rank - 1, New};
  }

  /// The value of \p K, or nullptr.
  const Stored *find(uint64_t K) const
    requires(!IsSet)
  {
    const Slot &S = Table[probe(K)];
    return S.Rank ? &S.Val : nullptr;
  }

  /// The value of \p K, value-initialized on first sight. The reference
  /// lasts until the next insertion.
  Stored &operator[](uint64_t K)
    requires(!IsSet)
  {
    size_t I = probe(K);
    if (Table[I].Rank == 0)
      I = place(I, K, Stored());
    return Table[I].Val;
  }

  /// Forgets every key; the capacity stays.
  void clear() {
    for (uint32_t I : Order)
      Table[I].Rank = 0;
    Order.clear();
  }

  /// Calls \p F(key) (set) or \p F(key, value) (map) per key, in insertion
  /// order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (uint32_t I : Order) {
      if constexpr (IsSet)
        F(Table[I].K);
      else
        F(Table[I].K, Table[I].Val);
    }
  }

private:
  struct Slot {
    uint64_t K = 0;
    uint32_t Rank = 0;
    [[no_unique_address]] Stored Val{};
  };

  /// The slot holding \p K, or the free slot where it would go.
  size_t probe(uint64_t K) const {
    size_t Mask = Table.size() - 1;
    // Fibonacci hashing: the top bits of the product mix every key bit.
    size_t I = static_cast<size_t>((K * 0x9e3779b97f4a7c15ull) >> Shift);
    while (Table[I].Rank && Table[I].K != K)
      I = (I + 1) & Mask;
    return I;
  }

  /// Stores absent \p K at its free slot \p I, growing first when the
  /// table would pass half full; returns the slot it went to.
  size_t place(size_t I, uint64_t K, Stored Val) {
    if (2 * (Order.size() + 1) > Table.size()) {
      rehash(2 * Table.size());
      I = probe(K);
    }
    Order.push_back(static_cast<uint32_t>(I));
    Table[I] = {K, static_cast<uint32_t>(Order.size()), std::move(Val)};
    return I;
  }

  /// Moves every key, in insertion order, to a table of \p Capacity slots.
  void rehash(size_t Capacity) {
    std::vector<Slot> Old(Capacity);
    Old.swap(Table);
    Shift = 64 - std::countr_zero(Capacity);
    for (uint32_t &I : Order) {
      size_t J = probe(Old[I].K);
      Table[J] = std::move(Old[I]);
      I = static_cast<uint32_t>(J);
    }
  }

  std::vector<Slot> Table;
  /// Used slots in first-insert order: the key of rank R sits at
  /// Table[Order[R - 1]].
  std::vector<uint32_t> Order;
  unsigned Shift = 64;
};

using FlatSet = FlatMap<>;

} // namespace awdit

#endif // AWDIT_SUPPORT_FLAT_MAP_H
