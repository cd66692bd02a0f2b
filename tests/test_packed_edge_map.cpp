//===- tests/test_packed_edge_map.cpp - Packed edge map tests --------------===//
//
// The flat open-addressing edge map of the saturation engine
// (support/packed_edge_map.h), checked against std::unordered_map.
//
//===----------------------------------------------------------------------===//

#include "support/packed_edge_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

using namespace awdit;

TEST(PackedEdgeMap, InsertFindEraseBasics) {
  PackedEdgeMap<uint32_t> M;
  EXPECT_TRUE(M.empty());
  M[5] = 10;
  M[7] += 1;
  EXPECT_EQ(M.size(), 2u);
  ASSERT_NE(M.find(5), nullptr);
  EXPECT_EQ(*M.find(5), 10u);
  EXPECT_EQ(*M.find(7), 1u);
  EXPECT_EQ(M.find(6), nullptr);
  EXPECT_EQ(M.count(5), 1u);
  EXPECT_TRUE(M.erase(5));
  EXPECT_FALSE(M.erase(5));
  EXPECT_EQ(M.find(5), nullptr);
  EXPECT_EQ(M.size(), 1u);
}

TEST(PackedEdgeMap, GrowsAndMatchesReferenceMap) {
  PackedEdgeMap<uint64_t> M;
  std::unordered_map<uint64_t, uint64_t> Ref;
  uint64_t Seed = 12345;
  auto Next = [&Seed] {
    Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return Seed >> 8;
  };
  // Mixed inserts and erases, including clustered keys that stress linear
  // probing and backward-shift deletion.
  for (int I = 0; I < 20000; ++I) {
    uint64_t K = (I % 3 == 0) ? Next() : (Next() & 0x3FF);
    if (I % 5 == 4) {
      EXPECT_EQ(M.erase(K), Ref.erase(K) > 0);
    } else {
      M[K] = K + 1;
      Ref[K] = K + 1;
    }
    ASSERT_EQ(M.size(), Ref.size());
  }
  size_t Seen = 0;
  M.forEach([&](uint64_t K, uint64_t V) {
    ++Seen;
    auto It = Ref.find(K);
    ASSERT_NE(It, Ref.end());
    EXPECT_EQ(V, It->second);
  });
  EXPECT_EQ(Seen, Ref.size());
  for (const auto &[K, V] : Ref) {
    ASSERT_NE(M.find(K), nullptr) << K;
    EXPECT_EQ(*M.find(K), V);
  }
}

TEST(PackedEdgeMap, ClearResets) {
  PackedEdgeMap<int> M;
  for (uint64_t I = 0; I < 100; ++I)
    M[I] = static_cast<int>(I);
  M.clear();
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.find(42), nullptr);
  M[42] = 7;
  EXPECT_EQ(*M.find(42), 7);
}
