//===- tests/test_wr_resolver.cpp - The flat (key, value) table -----------===//
//
// The write-site table behind wr resolution (history/wr_resolver.h) driven
// side by side with a deliberately naive std::map model by the same seeded
// random operation sequences: record (with duplicate refusal and the wake
// of parked reads), find, park, erase and remapTxns, checked entry by entry
// after every step. Hand-placed probe chains force the wrap-around from
// the last slot to the first, through both backward-shift deletion paths
// (erase and the remap sweep). Plus the shared dense key table.
//
//===----------------------------------------------------------------------===//

#include "history/wr_resolver.h"
#include "support/dense_key_ids.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace awdit {

// Found by argument-dependent lookup from std::vector and std::sort.
static bool operator==(const ParkedRead &A, const ParkedRead &B) {
  return A.Reader == B.Reader && A.Op == B.Op;
}

static bool operator<(const ParkedRead &A, const ParkedRead &B) {
  return std::tie(A.Reader, A.Op) < std::tie(B.Reader, B.Op);
}

} // namespace awdit

using namespace awdit;

namespace {

/// The reference: a (key, value) entry is a write site or a list of parked
/// reads, never both.
struct ModelEntry {
  bool Written = false;
  WriteSite Site{NoTxn, NoOp};
  std::vector<ParkedRead> Parked;
};

using Model = std::map<std::pair<Key, Value>, ModelEntry>;

/// Every entry of \p Index equals the model's, and nothing else is there.
void expectMatches(const WriteSiteIndex &Index, const Model &M,
                   const std::string &At) {
  size_t Sites = 0;
  for (const auto &[KV, E] : M) {
    const WriteSite *Site = Index.find(KV.first, KV.second);
    if (E.Written) {
      ++Sites;
      ASSERT_NE(Site, nullptr) << At;
      EXPECT_EQ(Site->T, E.Site.T) << At;
      EXPECT_EQ(Site->Op, E.Site.Op) << At;
    } else {
      EXPECT_EQ(Site, nullptr) << At;
    }
    std::vector<ParkedRead> Parked;
    size_t Count = Index.forEachParkedRead(
        KV.first, KV.second,
        [&](const ParkedRead &P) { Parked.push_back(P); });
    EXPECT_EQ(Count, Parked.size()) << At;
    EXPECT_EQ(Parked, E.Parked) << At;
  }
  EXPECT_EQ(Index.size(), Sites) << At;
  size_t Listed = 0;
  Index.forEachSite([&](Key K, Value V, const WriteSite &Site) {
    auto It = M.find({K, V});
    ASSERT_TRUE(It != M.end() && It->second.Written) << At;
    EXPECT_EQ(Site.T, It->second.Site.T) << At;
    ++Listed;
  });
  EXPECT_EQ(Listed, Sites) << At;
  Index.forEachParked([&](Key K, Value V) {
    auto It = M.find({K, V});
    ASSERT_TRUE(It != M.end() && !It->second.Parked.empty()) << At;
    ++Listed;
  });
  EXPECT_EQ(Listed, M.size()) << At;
}

/// One random step on both structures. Keys and values come from small
/// ranges, so pairs repeat and probe chains collide.
void randomStep(Rng &R, WriteSiteIndex &Index, Model &M, TxnId &NextTxn,
                const std::string &At) {
  Key K = R.nextBelow(24);
  Value V = static_cast<Value>(R.nextBelow(24)) - 4;
  auto It = M.find({K, V});
  switch (R.nextBelow(10)) {
  case 0:
  case 1:
  case 2: { // record
    TxnId T = NextTxn++;
    uint32_t Op = static_cast<uint32_t>(R.nextBelow(8));
    std::vector<ParkedRead> Woken;
    bool Recorded = Index.record(K, V, T, Op, [&](const ParkedRead &P) {
      Woken.push_back(P);
    });
    bool Duplicate = It != M.end() && It->second.Written;
    EXPECT_EQ(Recorded, !Duplicate) << At;
    if (Duplicate) {
      EXPECT_TRUE(Woken.empty()) << At;
      break;
    }
    ModelEntry &E = M[{K, V}];
    EXPECT_EQ(Woken, E.Parked) << At << ": wake in parking order";
    E = ModelEntry{true, {T, Op}, {}};
    break;
  }
  case 3:
  case 4:
  case 5: { // park
    ParkedRead P{NextTxn++, static_cast<uint32_t>(R.nextBelow(8))};
    bool Parked = Index.park(K, V, P.Reader, P.Op);
    bool Written = It != M.end() && It->second.Written;
    EXPECT_EQ(Parked, !Written) << At;
    if (!Written)
      M[{K, V}].Parked.push_back(P);
    break;
  }
  case 6: // erase
    Index.erase(K, V);
    M.erase({K, V});
    break;
  case 7: { // remap: evict a prefix of ids, shift the rest down
    TxnId Cut = static_cast<TxnId>(R.nextBelow(NextTxn / 3 + 1));
    auto Remap = [Cut](TxnId T) { return T < Cut ? NoTxn : T - Cut; };
    std::vector<ParkedRead> Dropped, Expected;
    Index.remapTxns(Remap,
                    [&](const ParkedRead &P) { Dropped.push_back(P); });
    for (auto MIt = M.begin(); MIt != M.end();) {
      ModelEntry &E = MIt->second;
      if (E.Written) {
        E.Site.T = Remap(E.Site.T);
        if (E.Site.T == NoTxn) {
          MIt = M.erase(MIt);
          continue;
        }
      }
      std::vector<ParkedRead> Kept;
      for (ParkedRead P : E.Parked) {
        if (Remap(P.Reader) == NoTxn) {
          Expected.push_back(P);
          continue;
        }
        P.Reader = Remap(P.Reader);
        Kept.push_back(P);
      }
      E.Parked = std::move(Kept);
      if (!E.Written && E.Parked.empty())
        MIt = M.erase(MIt);
      else
        ++MIt;
    }
    std::sort(Dropped.begin(), Dropped.end());
    std::sort(Expected.begin(), Expected.end());
    EXPECT_EQ(Dropped, Expected) << At << ": dropped parked reads";
    NextTxn -= std::min(NextTxn, Cut);
    break;
  }
  default: // find only
    break;
  }
}

/// (key, value) pairs whose probe starts at slot \p Home of a fresh table.
std::vector<std::pair<Key, Value>> pairsHomedAt(size_t Home, size_t Count) {
  WriteSiteIndex Fresh;
  std::vector<std::pair<Key, Value>> Out;
  for (Key K = 0; Out.size() < Count; ++K)
    for (Value V = 0; V < 64 && Out.size() < Count; ++V)
      if (Fresh.homeSlot(K, V) == Home)
        Out.emplace_back(K, V);
  return Out;
}

} // namespace

/// Seeded random sequences: the table and the model agree after every
/// step, through growth, wake-ups, backward-shift erases and remaps.
TEST(WriteSiteIndex, MatchesMapModelOnRandomSequences) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed * 7919);
    WriteSiteIndex Index;
    Model M;
    TxnId NextTxn = 0;
    size_t Steps = 50 + R.nextBelow(400);
    for (size_t Step = 0; Step < Steps; ++Step) {
      std::string At =
          "seed " + std::to_string(Seed) + " step " + std::to_string(Step);
      randomStep(R, Index, M, NextTxn, At);
      expectMatches(Index, M, At);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

/// A probe chain that starts in the last slot wraps to slot 0. Erasing
/// from its head shifts the wrapped entries back across the end of the
/// table; a remap that drops them sweeps across the same boundary.
TEST(WriteSiteIndex, WrapAroundChainsShiftBackOnDelete) {
  WriteSiteIndex Probe;
  size_t Last = Probe.capacity() - 1;
  std::vector<std::pair<Key, Value>> Tail = pairsHomedAt(Last, 4);
  std::vector<std::pair<Key, Value>> Zero = pairsHomedAt(0, 2);

  // Erase: four entries homed at the last slot fill it and slots 0-2; two
  // homed at slot 0 queue up behind them.
  {
    WriteSiteIndex Index;
    ASSERT_EQ(Index.capacity(), Probe.capacity());
    Model M;
    for (size_t I = 0; I < Tail.size(); ++I) {
      ASSERT_TRUE(Index.record(Tail[I].first, Tail[I].second,
                               static_cast<TxnId>(I), 0));
      M[Tail[I]] = ModelEntry{true, {static_cast<TxnId>(I), 0}, {}};
    }
    ASSERT_TRUE(Index.park(Zero[0].first, Zero[0].second, 40, 1));
    ASSERT_TRUE(Index.park(Zero[0].first, Zero[0].second, 41, 2));
    M[Zero[0]].Parked = {{40, 1}, {41, 2}};
    ASSERT_TRUE(Index.record(Zero[1].first, Zero[1].second, 50, 3));
    M[Zero[1]] = ModelEntry{true, {50, 3}, {}};
    ASSERT_EQ(Index.capacity(), Probe.capacity()) << "no growth expected";
    expectMatches(Index, M, "filled");

    Index.erase(Tail[0].first, Tail[0].second);
    M.erase(Tail[0]);
    expectMatches(Index, M, "erased the chain head");
    Index.erase(Tail[2].first, Tail[2].second);
    M.erase(Tail[2]);
    expectMatches(Index, M, "erased mid-chain");
    Index.erase(Zero[0].first, Zero[0].second);
    M.erase(Zero[0]);
    expectMatches(Index, M, "erased a parked entry");
    std::vector<ParkedRead> Woken;
    ASSERT_TRUE(Index.park(Zero[0].first, Zero[0].second, 42, 0));
    ASSERT_TRUE(Index.record(Zero[0].first, Zero[0].second, 60, 0,
                             [&](const ParkedRead &P) { Woken.push_back(P); }));
    EXPECT_EQ(Woken, (std::vector<ParkedRead>{{42, 0}}))
        << "the freed list nodes were reused cleanly";
    M[Zero[0]] = ModelEntry{true, {60, 0}, {}};
    expectMatches(Index, M, "re-parked and woken");
  }

  // Remap: drop every other writer of the same wrapped chain.
  {
    WriteSiteIndex Index;
    Model M;
    for (size_t I = 0; I < Tail.size(); ++I) {
      ASSERT_TRUE(Index.record(Tail[I].first, Tail[I].second,
                               static_cast<TxnId>(I), 0));
      M[Tail[I]] = ModelEntry{true, {static_cast<TxnId>(I), 0}, {}};
    }
    ASSERT_TRUE(Index.park(Zero[0].first, Zero[0].second, 1, 5));
    ASSERT_TRUE(Index.park(Zero[0].first, Zero[0].second, 3, 6));
    ASSERT_TRUE(Index.park(Zero[1].first, Zero[1].second, 0, 7));
    auto Remap = [](TxnId T) { return T % 2 == 0 ? NoTxn : T; };
    std::vector<ParkedRead> Dropped;
    Index.remapTxns(Remap, [&](const ParkedRead &P) { Dropped.push_back(P); });
    EXPECT_EQ(Dropped, (std::vector<ParkedRead>{{0, 7}}));
    M.erase(Tail[0]);
    M.erase(Tail[2]);
    M[Zero[0]].Parked = {{1, 5}, {3, 6}};
    expectMatches(Index, M, "remapped across the wrap");
  }
}

/// Interning assigns ids in order of first sight, survives growth, and
/// clear() starts the numbering over.
TEST(DenseKeyIds, IdsInFirstSightOrderAcrossGrowth) {
  DenseKeyIds Ids(2);
  std::map<Key, uint32_t> Ref;
  Rng R(99);
  for (int I = 0; I < 5000; ++I) {
    Key K = R.next() % 3000 * 0x10001;
    uint32_t Expected =
        Ref.emplace(K, static_cast<uint32_t>(Ref.size())).first->second;
    ASSERT_EQ(Ids.intern(K), Expected);
  }
  EXPECT_EQ(Ids.size(), Ref.size());
  Ids.clear();
  EXPECT_EQ(Ids.size(), 0u);
  EXPECT_EQ(Ids.intern(Ref.rbegin()->first), 0u);
  EXPECT_EQ(Ids.size(), 1u);
}
