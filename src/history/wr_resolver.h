//===- history/wr_resolver.h - Incremental wr resolution ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (key, value) table behind wr resolution (unique-value convention,
/// Definition 2.2): maps (key, value) to the transaction/op that wrote it
/// and rejects duplicate writes. HistoryBuilder::build() resolves a
/// complete history through it; the streaming Monitor resolves wr
/// *incrementally* through the same table — one write at a time, with
/// reads that arrived before their writer parked on the (key, value) they
/// wait for, so the write records itself, refuses a duplicate and wakes its
/// waiters in one probe.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_WR_RESOLVER_H
#define AWDIT_HISTORY_WR_RESOLVER_H

#include "history/types.h"
#include "support/assert.h"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

namespace awdit {

/// The canonical error text for a violated unique-value invariant, shared
/// by HistoryBuilder, the Monitor, and the format parsers so every layer
/// reports the same diagnostic.
inline std::string duplicateWriteMessage(Key K, Value V) {
  return "duplicate write of key " + std::to_string(K) + " value " +
         std::to_string(V) + " (wr resolution requires unique values)";
}

/// Location of a write: owning transaction and op index within it.
struct WriteSite {
  TxnId T;
  uint32_t Op;
};

/// A read waiting for its (key, value) to be written: the reading
/// transaction and the read's op index.
struct ParkedRead {
  TxnId Reader;
  uint32_t Op;
};

/// The (key, value) -> write-site table. wr^-1 must be a function, so
/// record() rejects a second write of the same pair.
///
/// One open-addressing table with linear probing, a power-of-two capacity
/// and at most half full. A slot holds a (key, value) and either its write
/// site or the reads parked on it before any write: those live in a
/// circular list in a side pool whose tail the slot points at, so parking
/// appends in O(1) and a write wakes the reads in parking order. Deletion
/// shifts the rest of the probe chain back (no tombstones).
class WriteSiteIndex {
public:
  /// Sized for \p ExpectedEntries without growing.
  explicit WriteSiteIndex(size_t ExpectedEntries = 0) {
    resize(std::bit_ceil(std::max<size_t>(16, 2 * ExpectedEntries)));
  }

  /// Records a write of (\p K, \p V) at (\p T, \p Op). Returns false, and
  /// changes nothing, when the pair was already written (the model
  /// invariant violation). Otherwise calls \p Wake(const ParkedRead &) for
  /// every read parked on the pair, in parking order, and drops them.
  template <typename WakeFn>
  bool record(Key K, Value V, TxnId T, uint32_t Op, WakeFn &&Wake) {
    size_t I = probe(K, V);
    if (isEmpty(Table[I])) {
      insertAt(I, {K, V, {T, Op}});
      ++Sites;
      return true;
    }
    Slot &S = Table[I];
    if (S.Site.T != NoTxn)
      return false;
    drainParked(S.Site.Op, Wake);
    S.Site = {T, Op};
    ++Sites;
    return true;
  }

  bool record(Key K, Value V, TxnId T, uint32_t Op) {
    return record(K, V, T, Op, [](const ParkedRead &) {});
  }

  /// Looks up the write site of (\p K, \p V); nullptr if nothing wrote it
  /// (so far).
  const WriteSite *find(Key K, Value V) const {
    const Slot &S = Table[probe(K, V)];
    return S.Site.T != NoTxn ? &S.Site : nullptr;
  }

  /// Parks a read of (\p K, \p V) until a write of the pair is recorded.
  /// Returns false, and changes nothing, when the pair is already written.
  bool park(Key K, Value V, TxnId Reader, uint32_t Op) {
    size_t I = probe(K, V);
    Slot &S = Table[I];
    if (S.Site.T != NoTxn)
      return false;
    uint32_t N = allocNode({Reader, Op});
    if (isEmpty(S)) {
      Pool[N].Next = N;
      insertAt(I, {K, V, {NoTxn, N}});
      return true;
    }
    uint32_t Tail = S.Site.Op;
    Pool[N].Next = Pool[Tail].Next;
    Pool[Tail].Next = N;
    S.Site.Op = N;
    return true;
  }

  /// Removes the entry for (\p K, \p V) — its write site or its parked
  /// reads — if present.
  void erase(Key K, Value V) {
    size_t I = probe(K, V);
    if (isEmpty(Table[I]))
      return;
    release(Table[I]);
    closeHole(I);
  }

  /// Number of recorded write sites.
  size_t size() const { return Sites; }

  /// Calls \p Fn(Key, Value, const WriteSite &) for every write site, in
  /// unspecified order. Checkpoint serialization sorts the result itself.
  template <typename Fn>
  void forEachSite(Fn &&F) const {
    for (const Slot &S : Table)
      if (S.Site.T != NoTxn)
        F(S.K, S.V, S.Site);
  }

  /// Calls \p Fn(Key, Value) for every (key, value) with parked reads, in
  /// unspecified order.
  template <typename Fn>
  void forEachParked(Fn &&F) const {
    for (const Slot &S : Table)
      if (S.Site.T == NoTxn && S.Site.Op != Empty)
        F(S.K, S.V);
  }

  /// Calls \p Fn(const ParkedRead &) for every read parked on (\p K,
  /// \p V), in parking order, and returns their number.
  template <typename Fn>
  size_t forEachParkedRead(Key K, Value V, Fn &&F) const {
    const Slot &S = Table[probe(K, V)];
    if (S.Site.T != NoTxn || S.Site.Op == Empty)
      return 0;
    size_t Count = 0;
    uint32_t N = S.Site.Op;
    do {
      N = Pool[N].Next;
      F(Pool[N].Read);
      ++Count;
    } while (N != S.Site.Op);
    return Count;
  }

  /// Rewrites every stored transaction id through \p Remap(old) -> new.
  /// Write sites for which \p Remap returns NoTxn are dropped (evicted
  /// writers); so are parked reads, each passed to \p OnDrop(const
  /// ParkedRead &) first (evicted readers). Used by the windowed Monitor's
  /// compaction.
  template <typename RemapFn, typename DropFn>
  void remapTxns(RemapFn &&Remap, DropFn &&OnDrop) {
    if (Used == 0)
      return;
    // Sweep once around from an empty slot: a backward shift only moves
    // entries of the cluster ahead, none of which has been visited yet.
    size_t Mask = Table.size() - 1;
    size_t Start = 0;
    while (!isEmpty(Table[Start]))
      ++Start;
    for (size_t I = (Start + 1) & Mask; I != Start;) {
      Slot &S = Table[I];
      if (isEmpty(S)) {
        I = (I + 1) & Mask;
        continue;
      }
      if (S.Site.T != NoTxn) {
        if (TxnId T = Remap(S.Site.T); T != NoTxn) {
          S.Site.T = T;
        } else {
          --Sites;
          S.Site = {NoTxn, Empty};
        }
      } else {
        remapParked(S, Remap, OnDrop);
      }
      if (isEmpty(S))
        closeHole(I); // look at I again: the chain moved back into it
      else
        I = (I + 1) & Mask;
    }
  }

  // --- Introspection for tests. ---

  /// Number of slots.
  size_t capacity() const { return Table.size(); }
  /// The slot a probe for (\p K, \p V) starts at.
  size_t homeSlot(Key K, Value V) const { return home(K, V); }

private:
  /// Site.Op of an empty slot; a parked slot holds its list's tail there.
  static constexpr uint32_t Empty = NoOp;

  struct Slot {
    Key K;
    Value V;
    /// The write site, or {NoTxn, tail of the parked list}, or
    /// {NoTxn, Empty}.
    WriteSite Site;
  };

  struct Node {
    ParkedRead Read;
    uint32_t Next;
  };

  static bool isEmpty(const Slot &S) {
    return S.Site.T == NoTxn && S.Site.Op == Empty;
  }

  size_t home(Key K, Value V) const {
    uint64_t H = (K ^ (static_cast<uint64_t>(V) * 0x9e3779b97f4a7c15ull)) *
                 0xbf58476d1ce4e5b9ull;
    return static_cast<size_t>(H >> Shift);
  }

  /// The slot holding (\p K, \p V), or the empty slot ending its chain.
  size_t probe(Key K, Value V) const {
    size_t Mask = Table.size() - 1;
    size_t I = home(K, V);
    while (!isEmpty(Table[I]) && (Table[I].K != K || Table[I].V != V))
      I = (I + 1) & Mask;
    return I;
  }

  /// Fills the empty slot \p I, which ends the probe chain of \p New,
  /// doubling the table first when that would pass half load.
  void insertAt(size_t I, const Slot &New) {
    if (2 * (Used + 1) > Table.size()) {
      resize(2 * Table.size());
      I = probe(New.K, New.V);
    }
    Table[I] = New;
    ++Used;
  }

  void resize(size_t Capacity) {
    std::vector<Slot> Old(Capacity, Slot{0, 0, {NoTxn, Empty}});
    Old.swap(Table);
    Shift = 64 - std::countr_zero(Capacity);
    for (const Slot &S : Old)
      if (!isEmpty(S))
        Table[probe(S.K, S.V)] = S;
  }

  /// Empties \p S, freeing its parked reads; its slot stays in the table.
  void release(Slot &S) {
    if (S.Site.T != NoTxn)
      --Sites;
    else
      drainParked(S.Site.Op, [](const ParkedRead &) {});
    S.Site = {NoTxn, Empty};
  }

  /// Calls \p F(const ParkedRead &) for every read of the circular list
  /// whose tail is \p Tail, in parking order, and frees the list.
  template <typename Fn>
  void drainParked(uint32_t Tail, Fn &&F) {
    uint32_t N = Pool[Tail].Next;
    for (;;) {
      uint32_t Next = Pool[N].Next;
      F(Pool[N].Read);
      freeNode(N);
      if (N == Tail)
        break;
      N = Next;
    }
  }

  /// Takes the emptied slot \p I out of its probe chain by shifting the
  /// rest of the chain back over the hole.
  void closeHole(size_t I) {
    size_t Mask = Table.size() - 1;
    for (size_t J = (I + 1) & Mask; !isEmpty(Table[J]); J = (J + 1) & Mask) {
      size_t H = home(Table[J].K, Table[J].V);
      if (((I - H) & Mask) < ((J - H) & Mask)) {
        Table[I] = Table[J];
        I = J;
      }
    }
    Table[I] = Slot{0, 0, {NoTxn, Empty}};
    --Used;
  }

  /// Remaps the parked reads of \p S in place, dropping evicted readers;
  /// empties \p S when none is left.
  template <typename RemapFn, typename DropFn>
  void remapParked(Slot &S, RemapFn &Remap, DropFn &OnDrop) {
    uint32_t Tail = S.Site.Op, N = Pool[Tail].Next;
    uint32_t Head = Empty, Last = Empty;
    for (;;) {
      uint32_t Next = Pool[N].Next;
      bool AtTail = N == Tail;
      TxnId Reader = Remap(Pool[N].Read.Reader);
      if (Reader == NoTxn) {
        OnDrop(Pool[N].Read);
        freeNode(N);
      } else {
        Pool[N].Read.Reader = Reader;
        if (Last == Empty)
          Head = N;
        else
          Pool[Last].Next = N;
        Last = N;
      }
      if (AtTail)
        break;
      N = Next;
    }
    if (Last != Empty)
      Pool[Last].Next = Head;
    S.Site.Op = Last;
  }

  uint32_t allocNode(ParkedRead Read) {
    if (FreeNodes == Empty) {
      AWDIT_ASSERT(Pool.size() < Empty,
                   "WriteSiteIndex: parked-read pool full");
      Pool.push_back({Read, Empty});
      return static_cast<uint32_t>(Pool.size() - 1);
    }
    uint32_t N = FreeNodes;
    FreeNodes = Pool[N].Next;
    Pool[N] = {Read, Empty};
    return N;
  }

  void freeNode(uint32_t N) {
    Pool[N].Next = FreeNodes;
    FreeNodes = N;
  }

  std::vector<Slot> Table;
  std::vector<Node> Pool;
  uint32_t FreeNodes = Empty;
  unsigned Shift = 64;
  /// Occupied slots, and those of them holding a write site.
  size_t Used = 0;
  size_t Sites = 0;
};

} // namespace awdit

#endif // AWDIT_HISTORY_WR_RESOLVER_H
