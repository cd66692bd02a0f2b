//===- tests/test_ra_single_session.cpp - Theorem 1.6 fast path ----------------===//

#include "checker/check_ra.h"
#include "checker/check_ra_single_session.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

using namespace awdit;
using namespace awdit::test;

namespace {
constexpr Key X = 1, Y = 2;

bool fastRa(const History &H) {
  std::vector<Violation> Out;
  return checkRaSingleSession(H, Out);
}

bool generalRa(const History &H) {
  std::vector<Violation> Out;
  return checkRa(H, Out);
}
} // namespace

TEST(RaSingleSession, DetectsSingleSession) {
  History H1 = makeHistory({{0, {W(X, 1)}}, {0, {R(X, 1)}}});
  EXPECT_TRUE(isSingleSession(H1));
  History H2 = makeHistory({{0, {W(X, 1)}}, {1, {R(X, 1)}}});
  EXPECT_FALSE(isSingleSession(H2));
}

TEST(RaSingleSession, LatestWriterObservedConsistent) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {0, {R(X, 2)}},
  });
  EXPECT_TRUE(fastRa(H));
}

TEST(RaSingleSession, StaleReadInconsistent) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {0, {R(X, 1)}},
  });
  EXPECT_FALSE(fastRa(H));
}

TEST(RaSingleSession, ReadOwnSessionChainConsistent) {
  History H = makeHistory({
      {0, {W(X, 1), W(Y, 1)}},
      {0, {R(X, 1), W(X, 2)}},
      {0, {R(X, 2), R(Y, 1)}},
  });
  EXPECT_TRUE(fastRa(H));
}

TEST(RaSingleSession, FutureWrEdgeInconsistent) {
  // Reading a value committed later in the session contradicts co = so.
  History H = makeHistory({
      {0, {R(X, 1)}},
      {0, {W(X, 1)}},
  });
  EXPECT_FALSE(fastRa(H));
}

TEST(RaSingleSession, FacadeUsesFastPath) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {R(X, 1)}},
  });
  CheckReport Report = checkIsolation(H, IsolationLevel::ReadAtomic);
  EXPECT_TRUE(Report.Consistent);
  EXPECT_TRUE(Report.Stats.UsedFastPath);

  // A second session takes the facade off the fast path.
  History Two = makeHistory({
      {0, {W(X, 1)}},
      {1, {R(X, 1)}},
  });
  CheckReport Report2 = checkIsolation(Two, IsolationLevel::ReadAtomic);
  EXPECT_TRUE(Report2.Consistent);
  EXPECT_FALSE(Report2.Stats.UsedFastPath);
}

// Differential sweep: on random single-session histories, the linear fast
// path must agree with the general O(n^{3/2}) algorithm.
class RaSingleSessionDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RaSingleSessionDifferential, AgreesWithGeneralRa) {
  auto [Seed, ModeIdx] = GetParam();
  // Build a single-session workload whose first transaction populates
  // every key, so no synthetic init session is needed and the fast path
  // genuinely applies.
  constexpr size_t NumKeys = 12;
  Rng Rand(static_cast<uint64_t>(Seed) * 37 + ModeIdx);
  ClientWorkload Workload;
  Workload.Sessions.resize(1);
  ClientTxn Prepopulate;
  for (Key K = 1; K <= NumKeys; ++K)
    Prepopulate.Ops.push_back(ClientOp::write(K));
  Workload.Sessions[0].Txns.push_back(std::move(Prepopulate));
  for (int T = 0; T < 120; ++T) {
    ClientTxn Txn;
    size_t NumOps = 1 + Rand.nextBelow(5);
    for (size_t O = 0; O < NumOps; ++O) {
      Key K = 1 + Rand.nextBelow(NumKeys);
      Txn.Ops.push_back(Rand.nextBool(0.5) ? ClientOp::write(K)
                                           : ClientOp::read(K));
    }
    Workload.Sessions[0].Txns.push_back(std::move(Txn));
  }
  SimConfig Config;
  Config.Mode = static_cast<ConsistencyMode>(ModeIdx);
  Config.Seed = static_cast<uint64_t>(Seed) * 911 + 5;
  Config.ReadAheadProbability = 0.3;
  std::optional<History> H = simulateDatabase(Workload, Config);
  ASSERT_TRUE(H);
  ASSERT_TRUE(isSingleSession(*H));
  EXPECT_EQ(fastRa(*H), generalRa(*H));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RaSingleSessionDifferential,
    ::testing::Combine(::testing::Range(1, 9),
                       ::testing::Values(0, 1, 2, 3)));

// Hand-crafted adversarial single-session histories, mutated reads
// included, must also agree.
TEST(RaSingleSession, AgreesOnMutatedHistories) {
  Rng Rand(99);
  for (int Trial = 0; Trial < 60; ++Trial) {
    HistoryBuilder B;
    SessionId S = B.addSession();
    size_t NumTxns = 2 + Rand.nextBelow(8);
    Value NextVal = 1;
    std::vector<std::pair<Key, Value>> Written;
    for (size_t T = 0; T < NumTxns; ++T) {
      TxnId Id = B.beginTxn(S);
      size_t NumOps = 1 + Rand.nextBelow(4);
      for (size_t O = 0; O < NumOps; ++O) {
        Key K = 1 + Rand.nextBelow(4);
        if (Rand.nextBool(0.5) || Written.empty()) {
          B.write(Id, K, NextVal);
          Written.push_back({K, NextVal});
          ++NextVal;
        } else {
          auto [WK, WV] = Written[Rand.nextBelow(Written.size())];
          B.read(Id, WK, WV);
        }
      }
    }
    std::optional<History> H = B.build();
    ASSERT_TRUE(H);
    EXPECT_EQ(fastRa(*H), generalRa(*H)) << "trial " << Trial;
  }
}
