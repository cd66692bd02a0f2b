//===- checker/saturation_tables.h - The engine's flat tables ---*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two large tables of the incremental saturation engine
/// (checker/saturation_state.h), flat and indexed by dense ids:
///   - SourceLog, the source-tagged edge lists: per-transaction sources as
///     spans of one append-only log, per-session sources as one list per
///     session;
///   - CcWriterIndex, Algorithm 3's per-key, per-session writer lists: one
///     slot-grouped run per dense key id.
///
/// Both serve the engine's checkpoint layout unchanged: SourceLog walks its
/// sources in source-key order and CcWriterIndex hands out each key's slots
/// in session-discovery order, which is what the checkpoint writes.
/// Implementation-detail header: include only from checker code.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_SATURATION_TABLES_H
#define AWDIT_CHECKER_SATURATION_TABLES_H

#include "checker/saturation_impl.h"
#include "history/types.h"
#include "support/dense_key_ids.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace awdit::detail {

/// The edge lists of the engine, one per source: the unit of work that
/// contributed the edges (an RC transaction, an RA session, a CC reader, a
/// reader's wr set, a session's so chain). A source key is Tag << 32 | id,
/// the id being a global transaction id for the per-transaction tags and a
/// session for the per-session ones. Entries are global packed edges, kept
/// verbatim: an entry whose endpoint was evicted stays as a tombstone for
/// the consumer to skip.
///
/// A per-transaction source is written once, by one append, and removed
/// whole, so it is a {begin, size} span of one log indexed by window-local
/// id. Removing it leaves its entries dead in the log; the log is rewritten
/// in (tag, id) order once dead entries are over half of it (and over the
/// table length, so the rewrite's scan is paid for) and at every eviction.
/// Per-session sources grow by appends over the stream, so each is its own
/// list. A source exists iff it has an entry.
class SourceLog {
public:
  /// Source tags, in source-key order.
  enum Tag : uint32_t { Rc = 0, Ra = 1, Cc = 2, Wr = 3, So = 4 };

  static bool isPerTxn(uint32_t T) { return T == Rc || T == Cc || T == Wr; }
  static uint64_t key(uint32_t T, uint32_t Id) {
    return (static_cast<uint64_t>(T) << 32) | Id;
  }

  /// Grows the per-transaction tables to \p NumTxns window-local ids and
  /// the per-session lists to \p NumSessions sessions.
  void grow(size_t NumTxns, size_t NumSessions);

  /// The entries of source (\p T, \p Id), \p Id window-local for the
  /// per-transaction tags; empty when the source does not exist.
  std::span<const uint64_t> entries(uint32_t T, uint32_t Id) const;

  /// Appends \p Edges, each plus \p Shift, to source (\p T, \p Id). A
  /// per-transaction source must not exist yet.
  void append(uint32_t T, uint32_t Id, std::span<const uint64_t> Edges,
              uint64_t Shift);

  /// Removes source (\p T, \p Id).
  void clear(uint32_t T, uint32_t Id);

  /// Eviction of the window-local prefix [0, \p Cut): drops its
  /// per-transaction sources, shifts the rest down by \p Cut, removes every
  /// per-session entry for which \p IsDead holds and rewrites the log.
  template <typename DeadFn> void evict(size_t Cut, DeadFn &&IsDead) {
    for (std::vector<Span> &Table : Txns) {
      for (size_t L = 0; L < Cut; ++L)
        Dead += Table[L].Size;
      Table.erase(Table.begin(), Table.begin() + Cut);
    }
    for (std::vector<std::vector<uint64_t>> &Lists : Sessions)
      for (std::vector<uint64_t> &List : Lists)
        std::erase_if(List, IsDead);
    rewrite();
  }

  /// Number of existing sources.
  size_t numSources() const;

  /// Calls \p F(source key, entries) for every existing source in
  /// source-key order: rc, ra, cc, wr, so, ids ascending. \p Base is the
  /// global id of window-local transaction 0.
  template <typename Fn> void forEach(uint32_t Base, Fn &&F) const {
    auto PerTxn = [&](uint32_t T) {
      const std::vector<Span> &Table = Txns[txnTable(T)];
      for (size_t L = 0; L < Table.size(); ++L)
        if (Table[L].Size)
          F(key(T, static_cast<uint32_t>(Base + L)),
            std::span<const uint64_t>(Log.data() + Table[L].Begin,
                                      Table[L].Size));
    };
    auto PerSession = [&](uint32_t T) {
      const std::vector<std::vector<uint64_t>> &Lists =
          Sessions[sessionTable(T)];
      for (size_t S = 0; S < Lists.size(); ++S)
        if (!Lists[S].empty())
          F(key(T, static_cast<uint32_t>(S)),
            std::span<const uint64_t>(Lists[S]));
    };
    PerTxn(Rc);
    PerSession(Ra);
    PerTxn(Cc);
    PerTxn(Wr);
    PerSession(So);
  }

  /// Log entries, live and dead, and the dead ones among them.
  size_t logSize() const { return Log.size(); }
  size_t deadEntries() const { return Dead; }

private:
  /// Offsets into the log are 32-bit: four billion entries would be 32 GiB
  /// of log alone.
  struct Span {
    uint32_t Begin = 0;
    uint32_t Size = 0;
  };

  static unsigned txnTable(uint32_t T) { return T == Rc ? 0 : T == Cc ? 1 : 2; }
  static unsigned sessionTable(uint32_t T) { return T == Ra ? 0 : 1; }

  /// Copies the live spans into a fresh log in (tag, id) order.
  void rewrite();

  std::vector<uint64_t> Log;
  size_t Dead = 0;
  /// Spans of the rc, cc and wr sources, by window-local id.
  std::vector<Span> Txns[3];
  /// Lists of the ra and so sources, by session.
  std::vector<std::vector<uint64_t>> Sessions[2];
};

/// Algorithm 3's Writes index, persisted and appended incrementally: per
/// key, per writing session, the so-ordered writers of the key. Keys are
/// interned to dense ids; each id owns its slots, in session-discovery
/// order, and one entry array grouped by slot. A slot that fills up while
/// another run lies behind it moves to the array's end with twice the room,
/// and the array is repacked once the holes it leaves are over half of it,
/// so an append costs O(1) amortized however many sessions write the key.
class CcWriterIndex {
public:
  /// One writing session of a key: its writers, so-ordered, at [Begin,
  /// Begin + Size) of the key's entry array, with room up to Begin + Cap.
  struct Slot {
    SessionId Session;
    uint32_t Begin;
    uint32_t Size;
    uint32_t Cap;
  };

  /// The writers of one key.
  struct KeyWriters {
    std::vector<Slot> Slots;
    std::vector<CcWriterEntry> Entries;
    /// Entries of the array that no slot owns any more.
    uint32_t Holes = 0;

    std::span<const CcWriterEntry> run(const Slot &S) const {
      return {Entries.data() + S.Begin, S.Size};
    }
  };

  /// Records \p E as a writer of \p K in session \p S, in so order.
  void add(Key K, SessionId S, CcWriterEntry E);

  /// The writers of \p K, or nullptr: one flat probe.
  const KeyWriters *find(Key K) const {
    uint32_t Id = Ids.find(K);
    return Id == DenseKeyIds::NoId ? nullptr : &Keys[Id];
  }

  size_t numKeys() const { return Keys.size(); }
  Key keyOf(uint32_t Id) const { return Ids.keyOf(Id); }
  const KeyWriters &writers(uint32_t Id) const { return Keys[Id]; }

  /// Eviction of the window-local prefix [0, \p Cut): drops its writers,
  /// rebases the survivors' ids by \p Cut and their so positions by
  /// RemovedBelow(session, so position), drops emptied slots and keys, and
  /// re-interns the surviving keys in id order, so the ids stay within the
  /// keys the window writes.
  template <typename Fn> void evict(TxnId Cut, Fn &&RemovedBelow) {
    DenseKeyIds Kept(Ids.size());
    for (size_t Id = 0; Id < Keys.size(); ++Id) {
      KeyWriters New;
      for (const Slot &S : Keys[Id].Slots) {
        uint32_t Begin = static_cast<uint32_t>(New.Entries.size());
        for (const CcWriterEntry &E : Keys[Id].run(S)) {
          if (E.T < Cut)
            continue;
          uint32_t So = E.SoIndex - RemovedBelow(S.Session, E.SoIndex);
          New.Entries.push_back({E.T - Cut, So});
        }
        uint32_t Size = static_cast<uint32_t>(New.Entries.size()) - Begin;
        if (Size)
          New.Slots.push_back({S.Session, Begin, Size, Size});
      }
      if (!New.Slots.empty())
        Keys[Kept.intern(Ids.keyOf(static_cast<uint32_t>(Id)))] =
            std::move(New);
    }
    Keys.resize(Kept.size());
    Ids = std::move(Kept);
  }

  /// Checkpoint load: the empty writers of a key not present yet, or
  /// nullptr when \p K already is.
  KeyWriters *addKey(Key K);

  void clear() { *this = CcWriterIndex(); }

private:
  /// Makes room for one more entry in slot \p S of \p KW.
  static void reserveOne(KeyWriters &KW, Slot &S);
  /// Rewrites the entry array without holes, runs in slot order, each slot
  /// keeping its room.
  static void repack(KeyWriters &KW);

  /// Key -> dense id and back.
  DenseKeyIds Ids;
  /// Dense id -> the key's writers.
  std::vector<KeyWriters> Keys;
};

} // namespace awdit::detail

#endif // AWDIT_CHECKER_SATURATION_TABLES_H
