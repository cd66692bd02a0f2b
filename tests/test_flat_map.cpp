//===- tests/test_flat_map.cpp - The insertion-ordered flat table ---------===//
//
// support/flat_map.h driven by one seeded operation sequence against a
// deliberately naive model, a std::unordered_map plus an insertion-order
// vector. The map form, the set form and DenseKeyIds run the same keys
// side by side: inserts that must not overwrite, overwrites, finds of
// present and absent keys, and clears that keep the capacity, with keys
// spread over the whole 64-bit range (0 and ~0 included). Every answer is
// compared at every step, and the whole insertion order, the index of
// every key and every value after each doubling and before each clear.
// Plus small hand-written cases and seeded differentials of each form
// against std::map and std::set.
//
//===----------------------------------------------------------------------===//

#include "support/dense_key_ids.h"
#include "support/flat_map.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

using namespace awdit;

TEST(FlatMap, MatchesModelAcrossGrowthAndClears) {
  Rng R(2025);
  FlatMap<uint64_t> Map;
  FlatSet Set;
  DenseKeyIds Ids(2);
  std::unordered_map<uint64_t, uint64_t> Value;
  std::unordered_map<uint64_t, uint32_t> IndexOf;
  std::vector<uint64_t> Order;

  auto RandomKey = [&]() -> uint64_t {
    switch (R.nextBelow(8)) {
    case 0:
      return 0;
    case 1:
      return ~uint64_t(0) - R.nextBelow(4);
    case 2:
      return R.nextBelow(64);
    default:
      // Up to 6000 distinct keys: the 16-slot start doubles ten times.
      return R.nextBelow(6000) * 0x9e3779b97f4a7c15ull;
    }
  };

  // The whole table against the model: size, insertion order, every key's
  // index and value in all three views.
  auto CheckAll = [&](const char *When) {
    SCOPED_TRACE(When);
    ASSERT_EQ(Map.size(), Order.size());
    ASSERT_EQ(Set.size(), Order.size());
    ASSERT_EQ(Ids.size(), Order.size());
    std::vector<uint64_t> MapWalk, SetWalk;
    Map.forEach([&](uint64_t K, uint64_t V) {
      MapWalk.push_back(K);
      EXPECT_EQ(V, Value[K]) << "key " << K;
    });
    Set.forEach([&](uint64_t K) { SetWalk.push_back(K); });
    EXPECT_EQ(MapWalk, Order);
    EXPECT_EQ(SetWalk, Order);
    for (uint32_t I = 0; I < Order.size(); ++I) {
      ASSERT_EQ(Map.keyAt(I), Order[I]);
      ASSERT_EQ(Set.keyAt(I), Order[I]);
      ASSERT_EQ(Ids.keyOf(I), Order[I]);
      ASSERT_EQ(Map.indexOf(Order[I]), I);
      ASSERT_EQ(Set.indexOf(Order[I]), I);
      ASSERT_EQ(Ids.find(Order[I]), I);
    }
  };

  size_t Doublings = 0, Clears = 0, Overwrites = 0, RefusedInserts = 0;
  // Doublings that moved keys 0 and ~0 to a new table.
  size_t ExtremeKeysMoved = 0;
  for (int Step = 0; Step < 60000; ++Step) {
    SCOPED_TRACE(Step);
    uint64_t K = RandomKey();
    auto It = IndexOf.find(K);
    bool Present = It != IndexOf.end();
    uint32_t Expected = Present ? It->second : uint32_t(Order.size());
    size_t Capacity = Map.capacity();
    uint64_t Dice = R.nextBelow(10000);

    if (Dice < 3) {
      CheckAll("before a clear");
      Map.clear();
      Set.clear();
      Ids.clear();
      Value.clear();
      IndexOf.clear();
      Order.clear();
      ++Clears;
      EXPECT_EQ(Map.capacity(), Capacity) << "a clear keeps the capacity";
      EXPECT_EQ(Map.find(K), nullptr);
      EXPECT_EQ(Set.indexOf(K), FlatSet::NoIndex);
      EXPECT_EQ(Ids.find(K), DenseKeyIds::NoId);
      continue;
    }

    if (Dice < 3500) {
      // Lookups only; nothing is interned.
      const FlatMap<uint64_t> &ConstMap = Map;
      const uint64_t *Found = ConstMap.find(K);
      ASSERT_EQ(Found != nullptr, Present);
      if (Found) {
        EXPECT_EQ(*Found, Value[K]);
      }
      EXPECT_EQ(Map.indexOf(K), Present ? Expected : FlatSet::NoIndex);
      EXPECT_EQ(Set.indexOf(K), Present ? Expected : FlatSet::NoIndex);
      EXPECT_EQ(Ids.find(K), Present ? Expected : DenseKeyIds::NoId);
      ASSERT_EQ(Map.size(), Order.size());
      continue;
    }

    uint64_t V = R.next();
    if (Dice < 7000) {
      // insert() maps an absent key and leaves a present one alone.
      auto [Index, Inserted] = Map.insert(K, V);
      EXPECT_EQ(Index, Expected);
      EXPECT_EQ(Inserted, !Present);
      RefusedInserts += Present;
      if (!Present)
        Value[K] = V;
    } else {
      // operator[] maps an absent key to 0 and then overwrites.
      uint64_t &Slot = Map[K];
      EXPECT_EQ(Slot, Present ? Value[K] : 0u);
      Slot = V;
      Value[K] = V;
      Overwrites += Present;
    }
    auto [SetIndex, SetInserted] = Set.insert(K);
    EXPECT_EQ(SetIndex, Expected);
    EXPECT_EQ(SetInserted, !Present);
    EXPECT_EQ(Ids.intern(K), Expected);
    if (!Present) {
      IndexOf.emplace(K, Expected);
      Order.push_back(K);
    }
    ASSERT_EQ(Map.size(), Order.size());
    ASSERT_EQ(Set.capacity(), Map.capacity());
    if (Map.capacity() != Capacity) {
      EXPECT_EQ(Map.capacity(), 2 * Capacity);
      ++Doublings;
      ExtremeKeysMoved += IndexOf.count(0) && IndexOf.count(~uint64_t(0));
      CheckAll("after a doubling");
    }
  }
  CheckAll("at the end");
  // The sequence did what it is for.
  EXPECT_GE(Doublings, 8u);
  EXPECT_GE(Clears, 10u);
  EXPECT_GT(Overwrites, 1000u);
  EXPECT_GT(RefusedInserts, 1000u);
  EXPECT_GE(ExtremeKeysMoved, 4u);
}

TEST(FlatMap, BasicOperations) {
  FlatMap<int> M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.find(1), nullptr);
  M[1] = 10;
  M[2] = 20;
  ASSERT_NE(M.find(1), nullptr);
  EXPECT_EQ(*M.find(1), 10);
  EXPECT_EQ(*M.find(2), 20);
  EXPECT_EQ(M.size(), 2u);
  M[1] = 11; // Overwrite through the same slot.
  EXPECT_EQ(*M.find(1), 11);
  EXPECT_EQ(M.size(), 2u);
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.find(1), nullptr);
}

TEST(FlatMap, GrowsPastInitialCapacity) {
  FlatMap<uint64_t> M;
  size_t InitialCapacity = M.capacity();
  for (uint64_t I = 0; I < 100; ++I)
    M[I] = I * 3;
  EXPECT_EQ(M.size(), 100u);
  EXPECT_GT(M.capacity(), InitialCapacity);
  for (uint64_t I = 0; I < 100; ++I) {
    ASSERT_NE(M.find(I), nullptr);
    EXPECT_EQ(*M.find(I), I * 3);
  }
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  // Reusable after growth and a clear.
  M[7] = 7;
  EXPECT_EQ(*M.find(7), 7u);
}

TEST(FlatMap, DifferentialAgainstStdMap) {
  Rng Rand(321);
  FlatMap<uint64_t> M;
  std::map<uint64_t, uint64_t> Ref;
  for (int Op = 0; Op < 3000; ++Op) {
    uint64_t K = Rand.nextBelow(64);
    switch (Rand.nextBelow(3)) {
    case 0: {
      uint64_t V = Rand.next();
      M[K] = V;
      Ref[K] = V;
      break;
    }
    case 1: {
      const uint64_t *Found = M.find(K);
      auto It = Ref.find(K);
      if (It == Ref.end()) {
        EXPECT_EQ(Found, nullptr);
      } else {
        ASSERT_NE(Found, nullptr);
        EXPECT_EQ(*Found, It->second);
      }
      break;
    }
    default:
      if (Rand.nextBool(0.02)) {
        M.clear();
        Ref.clear();
      }
      break;
    }
    EXPECT_EQ(M.size(), Ref.size());
  }
}

TEST(FlatSet, BasicOperations) {
  FlatSet S;
  EXPECT_EQ(S.indexOf(4), FlatSet::NoIndex);
  EXPECT_TRUE(S.insert(4).second);
  EXPECT_FALSE(S.insert(4).second);
  EXPECT_EQ(S.indexOf(4), 0u);
  EXPECT_EQ(S.size(), 1u);
  S.clear();
  EXPECT_EQ(S.indexOf(4), FlatSet::NoIndex);
}

TEST(FlatSet, GrowsAndIterates) {
  FlatSet S;
  size_t InitialCapacity = S.capacity();
  std::vector<uint64_t> Ref;
  for (uint64_t I = 0; I < 40; I += 2) {
    S.insert(I);
    Ref.push_back(I);
  }
  EXPECT_EQ(S.size(), Ref.size());
  EXPECT_GT(S.capacity(), InitialCapacity);
  std::vector<uint64_t> Seen;
  S.forEach([&](uint64_t K) { Seen.push_back(K); });
  EXPECT_EQ(Seen, Ref);
  for (uint64_t I = 0; I < 40; ++I)
    EXPECT_EQ(S.indexOf(I) != FlatSet::NoIndex, I % 2 == 0);
}

TEST(FlatSet, DifferentialAgainstStdSet) {
  Rng Rand(654);
  FlatSet S;
  std::set<uint64_t> Ref;
  for (int Op = 0; Op < 3000; ++Op) {
    uint64_t K = Rand.nextBelow(48);
    if (Rand.nextBool(0.6)) {
      EXPECT_EQ(S.insert(K).second, Ref.insert(K).second);
    } else {
      EXPECT_EQ(S.indexOf(K) != FlatSet::NoIndex, Ref.count(K) != 0);
    }
    if (Rand.nextBool(0.01)) {
      S.clear();
      Ref.clear();
    }
    EXPECT_EQ(S.size(), Ref.size());
  }
}
