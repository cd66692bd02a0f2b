//===- tests/test_saturation_tables.cpp - Engine tables vs naive models ---===//
//
// The flat tables of the streaming saturation engine driven side by side
// with deliberately naive models of what they replace: the source log
// against a std::map of edge lists, the CC writer index against a std::map
// of per-session writer lists, and the RA last-write table against a
// std::map. Seeded operation sequences (set, clear, re-set, log rewrites,
// evictions, out-of-order commits, id rebuilds) run on both, and every
// observable is compared after every step.
//
//===----------------------------------------------------------------------===//

#include "checker/saturation_tables.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

using namespace awdit;
using namespace awdit::detail;

namespace {

uint64_t packed(uint32_t From, uint32_t To) {
  return (static_cast<uint64_t>(From) << 32) | To;
}

/// What the engine derives from its source lists: per live packed edge,
/// the (base, inferred) reference counts, skipping entries with an evicted
/// endpoint.
using RefImage = std::map<uint64_t, std::pair<uint32_t, uint32_t>>;

/// True when an endpoint of global packed edge \p E lies below \p Base.
bool deadBelow(uint64_t E, uint32_t Base) {
  return static_cast<uint32_t>(E >> 32) < Base ||
         static_cast<uint32_t>(E) < Base;
}

void addRefs(RefImage &Refs, uint64_t Source,
             const std::vector<uint64_t> &List, uint32_t Base) {
  bool IsBase = (Source >> 32) >= SourceLog::Wr;
  for (uint64_t E : List) {
    if (deadBelow(E, Base))
      continue;
    auto &R = Refs[E - packed(Base, Base)];
    ++(IsBase ? R.first : R.second);
  }
}

/// The source log's model: one list per source key, as the node-hashed map
/// held them, walked in key order.
struct SourceModel {
  std::map<uint64_t, std::vector<uint64_t>> Lists;
  uint32_t Base = 0;
};

void expectSameSources(const SourceLog &Log, const SourceModel &Model,
                       size_t Step) {
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> Walk;
  Log.forEach(Model.Base, [&](uint64_t Source, std::span<const uint64_t> L) {
    Walk.emplace_back(Source, std::vector<uint64_t>(L.begin(), L.end()));
  });
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> Want(
      Model.Lists.begin(), Model.Lists.end());
  ASSERT_EQ(Walk, Want) << "step " << Step;
  EXPECT_EQ(Log.numSources(), Model.Lists.size()) << "step " << Step;
  RefImage Got, Expected;
  for (const auto &[Source, List] : Walk)
    addRefs(Got, Source, List, Model.Base);
  for (const auto &[Source, List] : Model.Lists)
    addRefs(Expected, Source, List, Model.Base);
  EXPECT_EQ(Got, Expected) << "step " << Step;
  EXPECT_LE(2 * Log.deadEntries(), Log.logSize() + 2 * 64)
      << "step " << Step << ": dead entries outgrew the log";
}

} // namespace

/// Sets, clears and re-sets of per-transaction sources, appends to and
/// clears of per-session ones, log rewrites and evictions, against the map
/// the log replaced.
TEST(SourceLogModel, MatchesMapOfListsUnderSeededOps) {
  constexpr size_t Window = 64, Sessions = 5;
  static const uint32_t PerTxn[] = {SourceLog::Rc, SourceLog::Cc,
                                    SourceLog::Wr};
  static const uint32_t PerSession[] = {SourceLog::Ra, SourceLog::So};
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Rng R(Seed);
    SourceLog Log;
    SourceModel Model;
    Log.grow(Window, Sessions);
    size_t Rewrites = 0, Evictions = 0;
    // Window-local edges; every endpoint lies in the window.
    auto RandomEdges = [&]() {
      std::vector<uint64_t> Edges(1 + R.nextBelow(6));
      for (uint64_t &E : Edges)
        E = packed(static_cast<uint32_t>(R.nextBelow(Window)),
                   static_cast<uint32_t>(R.nextBelow(Window)));
      return Edges;
    };
    auto Shift = [&]() { return packed(Model.Base, Model.Base); };
    auto Global = [&](const std::vector<uint64_t> &Edges) {
      std::vector<uint64_t> G;
      for (uint64_t E : Edges)
        G.push_back(E + Shift());
      return G;
    };
    for (size_t Step = 0; Step < 3000; ++Step) {
      // Evictions every few hundred steps, so dead entries can pile up to
      // a rewrite in between.
      uint64_t Dice = Step % 300 == 299 ? 100 : R.nextBelow(100);
      if (Dice < 65) {
        // (Re-)set a per-transaction source: clear, then one append.
        uint32_t Tag = PerTxn[R.nextBelow(3)];
        uint32_t L = static_cast<uint32_t>(R.nextBelow(Window));
        uint64_t Key = SourceLog::key(Tag, Model.Base + L);
        size_t DeadBefore = Log.deadEntries();
        Log.clear(Tag, L);
        if (Model.Lists.count(Key) && Log.deadEntries() < DeadBefore)
          ++Rewrites;
        Model.Lists.erase(Key);
        if (R.nextBelow(4) != 0) {
          std::vector<uint64_t> Edges = RandomEdges();
          Log.append(Tag, L, Edges, Shift());
          Model.Lists[Key] = Global(Edges);
        }
      } else if (Dice < 90) {
        uint32_t Tag = PerSession[R.nextBelow(2)];
        uint32_t S = static_cast<uint32_t>(R.nextBelow(Sessions));
        std::vector<uint64_t> Edges = RandomEdges();
        Log.append(Tag, S, Edges, Shift());
        std::vector<uint64_t> G = Global(Edges);
        std::vector<uint64_t> &List = Model.Lists[SourceLog::key(Tag, S)];
        List.insert(List.end(), G.begin(), G.end());
      } else if (Dice < 100) {
        uint32_t Tag = PerSession[R.nextBelow(2)];
        uint32_t S = static_cast<uint32_t>(R.nextBelow(Sessions));
        Log.clear(Tag, S);
        Model.Lists.erase(SourceLog::key(Tag, S));
      } else {
        // Evict a prefix of the window; new transactions refill it.
        size_t Cut = 1 + R.nextBelow(Window / 4);
        uint32_t NewBase = Model.Base + static_cast<uint32_t>(Cut);
        auto IsDead = [&](uint64_t E) { return deadBelow(E, NewBase); };
        Log.evict(Cut, IsDead);
        Log.grow(Window, Sessions);
        for (auto It = Model.Lists.begin(); It != Model.Lists.end();) {
          uint32_t Tag = static_cast<uint32_t>(It->first >> 32);
          if (SourceLog::isPerTxn(Tag)) {
            It = static_cast<uint32_t>(It->first) < NewBase
                     ? Model.Lists.erase(It)
                     : std::next(It);
            continue;
          }
          std::erase_if(It->second, IsDead);
          It = It->second.empty() ? Model.Lists.erase(It) : std::next(It);
        }
        Model.Base = NewBase;
        EXPECT_EQ(Log.deadEntries(), 0u) << "eviction rewrites the log";
        ++Evictions;
      }
      expectSameSources(Log, Model, Step);
      if (HasFatalFailure())
        return;
    }
    EXPECT_GT(Rewrites, 0u) << "seed " << Seed << ": no log rewrite ran";
    EXPECT_GT(Evictions, 0u) << "seed " << Seed;
  }
}

/// A per-transaction source's entries stay verbatim, tombstones included:
/// eviction drops whole evicted sources and never rewrites a surviving one.
TEST(SourceLogModel, SurvivingSourcesKeepTombstones) {
  SourceLog Log;
  Log.grow(8, 1);
  std::vector<uint64_t> Of5 = {packed(1, 5), packed(4, 5)};
  std::vector<uint64_t> Of2 = {packed(0, 2)};
  Log.append(SourceLog::Wr, 5, Of5, 0);
  Log.append(SourceLog::Wr, 2, Of2, 0);
  Log.evict(3, [](uint64_t E) { return deadBelow(E, 3); });
  std::vector<uint64_t> Seen;
  Log.forEach(3, [&](uint64_t Source, std::span<const uint64_t> L) {
    EXPECT_EQ(Source, SourceLog::key(SourceLog::Wr, 5));
    Seen.assign(L.begin(), L.end());
  });
  EXPECT_EQ(Seen, Of5);
  EXPECT_EQ(Log.numSources(), 1u);
}

namespace {

bool soLess(const CcWriterEntry &A, const CcWriterEntry &B) {
  return A.SoIndex < B.SoIndex;
}

/// The writer index's model: per key, the slots in session-discovery order,
/// each a so-ordered list.
using WriterModel = std::map<
    Key, std::vector<std::pair<SessionId, std::vector<CcWriterEntry>>>>;

void expectSameWriters(const CcWriterIndex &Index, const WriterModel &Model,
                       size_t Step) {
  ASSERT_EQ(Index.numKeys(), Model.size()) << "step " << Step;
  for (uint32_t Id = 0; Id < Index.numKeys(); ++Id)
    ASSERT_TRUE(Model.count(Index.keyOf(Id))) << "step " << Step;
  for (const auto &[K, Slots] : Model) {
    const CcWriterIndex::KeyWriters *KW = Index.find(K);
    ASSERT_NE(KW, nullptr) << "step " << Step << " key " << K;
    ASSERT_EQ(KW->Slots.size(), Slots.size()) << "step " << Step;
    size_t Live = 0;
    for (size_t I = 0; I < Slots.size(); ++I) {
      EXPECT_EQ(KW->Slots[I].Session, Slots[I].first) << "step " << Step;
      std::span<const CcWriterEntry> Run = KW->run(KW->Slots[I]);
      ASSERT_EQ(Run.size(), Slots[I].second.size()) << "step " << Step;
      for (size_t J = 0; J < Run.size(); ++J) {
        EXPECT_EQ(Run[J].T, Slots[I].second[J].T) << "step " << Step;
        EXPECT_EQ(Run[J].SoIndex, Slots[I].second[J].SoIndex)
            << "step " << Step;
      }
      Live += Run.size();
    }
    // Holes never pass half the array, and each run's room is at most
    // twice its writers: the array stays within a small factor of them.
    EXPECT_LE(2 * size_t(KW->Holes), KW->Entries.size()) << "step " << Step;
    EXPECT_LE(KW->Entries.size(), 4 * Live + 2 * Slots.size())
        << "step " << Step;
  }
}

} // namespace

/// Commits of several sessions over a small key universe, some of a
/// session out of so order, with eviction rebases and the key-id rebuild,
/// against the map the index replaced.
TEST(CcWriterIndexModel, MatchesMapOfSessionListsUnderSeededOps) {
  constexpr size_t Sessions = 6;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Rng R(Seed * 31);
    CcWriterIndex Index;
    WriterModel Model;
    // Window-local transactions: session and so position.
    struct Txn {
      SessionId Session;
      uint32_t So;
    };
    std::vector<Txn> Txns;
    std::vector<uint32_t> NextSo(Sessions, 0);
    size_t OutOfOrder = 0, Evictions = 0;
    auto Add = [&](TxnId T) {
      const Txn &X = Txns[T];
      // A hot key written by every session, a warm range and a cold tail.
      size_t Writes = 1 + R.nextBelow(3);
      std::vector<Key> Keys;
      for (size_t W = 0; W < Writes; ++W) {
        uint64_t Dice = R.nextBelow(10);
        Key K = 7;
        if (Dice >= 8)
          K = 1000 + R.nextBelow(400);
        else if (Dice >= 3)
          K = 100 + R.nextBelow(12);
        if (std::find(Keys.begin(), Keys.end(), K) != Keys.end())
          continue;
        Keys.push_back(K);
        CcWriterEntry E{T, X.So};
        Index.add(K, X.Session, E);
        auto &Slots = Model[K];
        size_t I = 0;
        while (I < Slots.size() && Slots[I].first != X.Session)
          ++I;
        if (I == Slots.size())
          Slots.push_back({X.Session, {}});
        std::vector<CcWriterEntry> &Run = Slots[I].second;
        Run.insert(std::lower_bound(Run.begin(), Run.end(), E, soLess), E);
      }
    };
    for (size_t Step = 0; Step < 2500; ++Step) {
      uint64_t Dice = R.nextBelow(100);
      if (Dice < 85) {
        SessionId S = static_cast<SessionId>(R.nextBelow(Sessions));
        if (R.nextBelow(8) == 0) {
          // Two commits of one session processed out of so order.
          TxnId First = static_cast<TxnId>(Txns.size());
          Txns.push_back({S, NextSo[S]++});
          Txns.push_back({S, NextSo[S]++});
          Add(First + 1);
          Add(First);
          ++OutOfOrder;
        } else {
          Txns.push_back({S, NextSo[S]++});
          Add(static_cast<TxnId>(Txns.size() - 1));
        }
      } else if (Txns.size() > 8) {
        // Evict a prefix: ids shift by Cut, so positions by the session's
        // evicted members below them.
        TxnId Cut = static_cast<TxnId>(1 + R.nextBelow(Txns.size() / 2));
        std::vector<std::vector<uint32_t>> Removed(Sessions);
        for (TxnId T = 0; T < Cut; ++T)
          Removed[Txns[T].Session].push_back(Txns[T].So);
        for (std::vector<uint32_t> &V : Removed)
          std::sort(V.begin(), V.end());
        auto RemovedBelow = [&](SessionId S, uint32_t V) {
          const std::vector<uint32_t> &Gone = Removed[S];
          auto It = std::lower_bound(Gone.begin(), Gone.end(), V);
          return static_cast<uint32_t>(It - Gone.begin());
        };
        Index.evict(Cut, RemovedBelow);
        for (auto It = Model.begin(); It != Model.end();) {
          auto &Slots = It->second;
          for (auto &[S, List] : Slots) {
            std::vector<CcWriterEntry> Kept;
            for (const CcWriterEntry &E : List) {
              if (E.T < Cut)
                continue;
              uint32_t So = E.SoIndex - RemovedBelow(S, E.SoIndex);
              Kept.push_back({E.T - Cut, So});
            }
            List = std::move(Kept);
          }
          std::erase_if(Slots, [](auto &S) { return S.second.empty(); });
          It = Slots.empty() ? Model.erase(It) : std::next(It);
        }
        for (size_t T = Cut; T < Txns.size(); ++T)
          Txns[T].So -= RemovedBelow(Txns[T].Session, Txns[T].So);
        for (SessionId S = 0; S < Sessions; ++S)
          NextSo[S] -= static_cast<uint32_t>(Removed[S].size());
        Txns.erase(Txns.begin(), Txns.begin() + Cut);
        // The ids are rebuilt over the keys the window still writes.
        EXPECT_LE(Index.numKeys(), Model.size());
        ++Evictions;
      }
      expectSameWriters(Index, Model, Step);
      if (HasFatalFailure())
        return;
    }
    EXPECT_GT(OutOfOrder, 0u);
    EXPECT_GT(Evictions, 0u);
  }
}

/// A key every session writes keeps O(1) amortized appends: its runs move
/// and the array repacks instead of shifting every later run.
TEST(CcWriterIndexModel, HotKeyAcrossManySessionsStaysCompact) {
  CcWriterIndex Index;
  constexpr SessionId Sessions = 32;
  constexpr uint32_t PerSession = 500;
  TxnId T = 0;
  for (uint32_t So = 0; So < PerSession; ++So)
    for (SessionId S = 0; S < Sessions; ++S)
      Index.add(42, S, {T++, So});
  const CcWriterIndex::KeyWriters *KW = Index.find(42);
  ASSERT_NE(KW, nullptr);
  ASSERT_EQ(KW->Slots.size(), Sessions);
  for (const CcWriterIndex::Slot &Slot : KW->Slots) {
    std::span<const CcWriterEntry> Run = KW->run(Slot);
    ASSERT_EQ(Run.size(), PerSession);
    for (uint32_t So = 0; So < PerSession; ++So) {
      EXPECT_EQ(Run[So].SoIndex, So);
      EXPECT_EQ(Run[So].T, So * Sessions + Slot.Session);
    }
  }
  EXPECT_LE(KW->Entries.size(), 4u * Sessions * PerSession);
  EXPECT_EQ(Index.find(43), nullptr);
}

/// RaScratch::LastWrite's flat table against a std::map: overwrites,
/// growth past its initial size, clears and the insertion-order walk.
TEST(KeyTxnMapModel, MatchesStdMap) {
  Rng R(99);
  decltype(RaScratch::LastWrite) Map;
  std::map<Key, TxnId> Model;
  for (size_t Step = 0; Step < 20000; ++Step) {
    uint64_t Dice = R.nextBelow(1000);
    if (Dice == 0) {
      Map.clear();
      Model.clear();
    } else {
      // Keys spread over the whole 64-bit range, including ~0.
      Key K = R.nextBelow(4) == 0 ? ~Key(0) - R.nextBelow(8)
                                  : R.nextBelow(3000) * 0x10001;
      if (Dice < 600) {
        TxnId T = static_cast<TxnId>(R.nextBelow(1u << 20));
        Map[K] = T;
        Model[K] = T;
      } else {
        const TxnId *Got = Map.find(K);
        auto It = Model.find(K);
        ASSERT_EQ(Got != nullptr, It != Model.end()) << "step " << Step;
        if (Got) {
          EXPECT_EQ(*Got, It->second);
        }
      }
    }
    ASSERT_EQ(Map.size(), Model.size());
  }
  std::map<Key, TxnId> Walked;
  Map.forEach([&](Key K, TxnId T) {
    EXPECT_TRUE(Walked.emplace(K, T).second);
  });
  EXPECT_EQ(Walked, Model);
}

/// DenseKeyIds::find looks up without interning.
TEST(DenseKeyIdsFind, FindsOnlyInternedKeys) {
  DenseKeyIds Ids(2);
  for (Key K = 0; K < 100; ++K)
    EXPECT_EQ(Ids.intern(K * 977), K);
  for (Key K = 0; K < 100; ++K) {
    EXPECT_EQ(Ids.find(K * 977), K);
    EXPECT_EQ(Ids.find(K * 977 + 1), DenseKeyIds::NoId);
  }
  EXPECT_EQ(Ids.size(), 100u);
}
