//===- tests/test_parallel.cpp - Pool vs inline one-shot checker tests ----===//
//
// The pool-path battery: on generated CTwitter/TPC-C/RUBiS histories
// (clean, across consistency modes, and with injected anomalies) and on
// degenerate ones, checkRc/checkRa/checkCc run on a pool must produce
// verdicts, violation lists, stats, and witness cycles identical to the
// inline run at every isolation level and thread count. Also covers the
// CC key index invariants and the CC kernel's invariance under any split
// of the key-id range.
//
//===----------------------------------------------------------------------===//

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_rc.h"
#include "checker/checker.h"
#include "checker/commit_graph.h"
#include "checker/saturation_impl.h"
#include "sim/anomaly_injector.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

using namespace awdit;
using namespace awdit::test;

namespace {

/// Runs the level's one-shot checker directly (never the single-session RA
/// fast path): inline for \p Threads = 1, on a pool of \p Threads workers
/// otherwise, whatever the history's size.
CheckReport runWithThreads(const History &H, IsolationLevel Level,
                           unsigned Threads, size_t MaxWitnesses = 16) {
  std::optional<ThreadPool> Pool;
  if (Threads > 1)
    Pool.emplace(Threads);
  ThreadPool *P = Pool ? &*Pool : nullptr;
  CheckReport Report;
  SaturationStats Sat;
  switch (Level) {
  case IsolationLevel::ReadCommitted:
    Report.Consistent = checkRc(H, Report.Violations, MaxWitnesses, &Sat, P);
    break;
  case IsolationLevel::ReadAtomic:
    Report.Consistent = checkRa(H, Report.Violations, MaxWitnesses, &Sat, P);
    break;
  case IsolationLevel::CausalConsistency:
    Report.Consistent = checkCc(H, Report.Violations, MaxWitnesses, &Sat, P);
    break;
  }
  Report.Stats.InferredEdges = Sat.InferredEdges;
  Report.Stats.GraphEdges = Sat.GraphEdges;
  return Report;
}

void expectSameReport(const CheckReport &Seq, const CheckReport &Par,
                      const char *Context) {
  EXPECT_EQ(Seq.Consistent, Par.Consistent) << Context;
  ASSERT_EQ(Seq.Violations.size(), Par.Violations.size()) << Context;
  for (size_t I = 0; I < Seq.Violations.size(); ++I) {
    const Violation &A = Seq.Violations[I], &B = Par.Violations[I];
    EXPECT_EQ(A.Kind, B.Kind) << Context << " violation " << I;
    EXPECT_EQ(A.T, B.T) << Context << " violation " << I;
    EXPECT_EQ(A.OpIndex, B.OpIndex) << Context << " violation " << I;
    EXPECT_EQ(A.Other, B.Other) << Context << " violation " << I;
    ASSERT_EQ(A.Cycle.size(), B.Cycle.size())
        << Context << " violation " << I;
    for (size_t E = 0; E < A.Cycle.size(); ++E) {
      EXPECT_EQ(A.Cycle[E].From, B.Cycle[E].From) << Context;
      EXPECT_EQ(A.Cycle[E].To, B.Cycle[E].To) << Context;
      EXPECT_EQ(A.Cycle[E].Kind, B.Cycle[E].Kind) << Context;
    }
  }
  EXPECT_EQ(Seq.Stats.InferredEdges, Par.Stats.InferredEdges) << Context;
  EXPECT_EQ(Seq.Stats.GraphEdges, Par.Stats.GraphEdges) << Context;
}

void expectParallelMatchesSequential(const History &H, const char *Context) {
  for (IsolationLevel Level : AllIsolationLevels) {
    CheckReport Seq = runWithThreads(H, Level, 1);
    for (unsigned Threads : {2u, 4u}) {
      CheckReport Par = runWithThreads(H, Level, Threads);
      std::string Label = std::string(Context) + " level " +
                          isolationLevelName(Level) + " threads " +
                          std::to_string(Threads);
      expectSameReport(Seq, Par, Label.c_str());
    }
  }
}

} // namespace

/// Sweep over benchmark x consistency mode x seed on clean generated
/// histories: the paper's three named workloads plus the random one.
class ParallelDifferentialClean
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ParallelDifferentialClean, MatchesSequential) {
  auto [BenchIdx, ModeIdx, Seed] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = static_cast<ConsistencyMode>(ModeIdx);
  P.Sessions = 8;
  P.Txns = 1200;
  P.Seed = static_cast<uint64_t>(Seed * 101 + ModeIdx);
  P.AbortProbability = Seed % 2 == 0 ? 0.05 : 0.0;
  History H = generateHistory(P);
  expectParallelMatchesSequential(H, benchmarkName(P.Bench));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDifferentialClean,
    ::testing::Combine(::testing::Range(0, 4),   // benchmarks
                       ::testing::Range(0, 4),   // consistency modes
                       ::testing::Range(1, 3))); // seeds

/// Sweep over injected anomaly kinds: the violating paths (including
/// witness extraction) must also match exactly.
class ParallelDifferentialInjected
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelDifferentialInjected, MatchesSequential) {
  auto [KindIdx, BenchIdx] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 8;
  P.Txns = 800;
  P.Seed = static_cast<uint64_t>(KindIdx * 31 + BenchIdx + 1);
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H = injectAnomaly(
      Base, static_cast<AnomalyKind>(KindIdx), P.Seed * 13 + 1, &Err);
  ASSERT_TRUE(H) << Err;
  expectParallelMatchesSequential(
      *H, anomalyKindName(static_cast<AnomalyKind>(KindIdx)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelDifferentialInjected,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(1, 4)));

/// Degenerate inputs through the pool path: no units of work at all, one
/// unit, pool units with nothing to do, and more CC key ranges than keys.
/// runWithThreads calls checkRa itself, so single-session histories reach
/// the session-unit saturation rather than the RA fast path.
TEST(ParallelDifferentialDegenerate, MatchesSequential) {
  constexpr Key X = 1, Y = 2;
  History Single = makeHistory({
      {0, {W(X, 1), R(X, 1)}},
  });
  // A stale read of x along so: an RA and CC violation.
  History OneSession = makeHistory({
      {0, {W(X, 1), W(Y, 1)}},
      {0, {R(Y, 1), W(X, 2)}},
      {0, {R(X, 1), R(Y, 1)}},
  });
  History AllAborted = makeHistory({
      {0, {W(X, 1)}, true},
      {1, {W(Y, 1), R(X, 1)}, true},
  });
  // Two written keys against 8 or 16 CC key ranges: t3 sees t1 through t2
  // yet reads the x that t1 overwrote, a causal violation.
  History FewKeys = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {1, {R(X, 2), W(Y, 1)}},
      {2, {R(Y, 1), R(X, 1)}},
  });
  ASSERT_FALSE(consistent(OneSession, IsolationLevel::ReadAtomic));
  ASSERT_FALSE(consistent(FewKeys, IsolationLevel::CausalConsistency));

  expectParallelMatchesSequential(History(), "empty");
  expectParallelMatchesSequential(Single, "single committed txn");
  expectParallelMatchesSequential(OneSession, "one session");
  expectParallelMatchesSequential(AllAborted, "all aborted");
  expectParallelMatchesSequential(FewKeys, "fewer keys than CC ranges");
}

/// The automatic thread count (Threads = 0 = hardware concurrency) must
/// agree with the inline run above the parallel threshold.
TEST(ParallelDefaults, AutoThreadsMatchesSequentialAboveThreshold) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Sessions = 16;
  P.Txns = 5000;
  P.Seed = 99;
  History H = generateHistory(P);
  ASSERT_GE(H.numTxns(), 4096u); // the facade's pool threshold
  CheckOptions Auto;
  Auto.Threads = 0;
  for (IsolationLevel Level : AllIsolationLevels) {
    CheckReport Seq = runWithThreads(H, Level, 1);
    CheckReport Def = checkIsolation(H, Level, Auto);
    EXPECT_EQ(Seq.Consistent, Def.Consistent)
        << isolationLevelName(Level);
    EXPECT_EQ(Seq.Violations.size(), Def.Violations.size())
        << isolationLevelName(Level);
    EXPECT_EQ(Seq.Stats.InferredEdges, Def.Stats.InferredEdges)
        << isolationLevelName(Level);
  }
}

/// Witness-count limit must behave identically with and without a pool.
TEST(ParallelDefaults, MaxWitnessesHonored) {
  GenerateParams P;
  P.Bench = Benchmark::Rubis;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 6;
  P.Txns = 600;
  P.Seed = 7;
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H =
      injectAnomaly(Base, AnomalyKind::CausalityCycle, 21, &Err);
  ASSERT_TRUE(H) << Err;
  for (size_t MaxW : {size_t(0), size_t(1), size_t(4)}) {
    CheckReport Seq =
        runWithThreads(*H, IsolationLevel::CausalConsistency, 1, MaxW);
    CheckReport Par =
        runWithThreads(*H, IsolationLevel::CausalConsistency, 4, MaxW);
    EXPECT_EQ(Seq.Violations.size(), Par.Violations.size())
        << "MaxWitnesses = " << MaxW;
  }
}

/// CC key index invariants: every written key has exactly one dense id;
/// each key's writer slots ascend by session and hold that session's
/// writers of the key in so order; its reads come in (session, so, po)
/// order. Checked against lists gathered straight from the history.
TEST(CcKeyIndex, DenseIdsWithOrderedSlotsAndReads) {
  GenerateParams P;
  P.Bench = Benchmark::Tpcc;
  P.Sessions = 8;
  P.Txns = 600;
  P.Seed = 5;
  History H = generateHistory(P);
  detail::CcKeyIndex Index(H);

  // Expected per key: writers as (session, so, txn) and reads as
  // (session, reader, writer), both in scan order.
  std::map<Key, std::vector<std::tuple<SessionId, uint32_t, TxnId>>> Writers;
  std::map<Key, std::vector<std::tuple<SessionId, TxnId, TxnId>>> Reads;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    for (TxnId T : H.sessionTxns(S)) {
      const Transaction &Txn = H.txn(T);
      for (Key X : Txn.WriteKeys)
        Writers[X].emplace_back(S, Txn.SoIndex, T);
      for (uint32_t ReadIdx : Txn.ExtReads)
        Reads[Txn.Reads[ReadIdx].K].emplace_back(S, T,
                                                 Txn.Reads[ReadIdx].Writer);
    }

  ASSERT_EQ(Index.numKeys(), Writers.size());
  ASSERT_EQ(Index.SlotBegin.size(), Index.numKeys() + 1);
  ASSERT_EQ(Index.ReadBegin.size(), Index.numKeys() + 1);
  EXPECT_EQ(Index.SlotBegin.back(), Index.Slots.size());
  EXPECT_EQ(Index.ReadBegin.back(), Index.Reads.size());
  std::set<Key> Seen;
  size_t ReadsSeen = 0;
  for (uint32_t Id = 0; Id < Index.numKeys(); ++Id) {
    Key X = Index.KeyOf[Id];
    EXPECT_TRUE(Seen.insert(X).second) << "key " << X << " has two ids";
    ASSERT_TRUE(Writers.count(X)) << "unwritten key " << X << " has an id";

    std::vector<std::tuple<SessionId, uint32_t, TxnId>> Got;
    for (uint32_t Slot = Index.SlotBegin[Id]; Slot < Index.SlotBegin[Id + 1];
         ++Slot) {
      const detail::CcWriterSlot &WS = Index.Slots[Slot];
      EXPECT_LT(WS.Begin, WS.End) << "empty slot of key " << X;
      if (Slot > Index.SlotBegin[Id]) {
        EXPECT_LT(Index.Slots[Slot - 1].Session, WS.Session);
      }
      for (uint32_t At = WS.Begin; At < WS.End; ++At) {
        const detail::CcWriterEntry &E = Index.Writers[At];
        if (At > WS.Begin) {
          EXPECT_LT(Index.Writers[At - 1].SoIndex, E.SoIndex);
        }
        Got.emplace_back(WS.Session, E.SoIndex, E.T);
      }
    }
    EXPECT_EQ(Got, Writers[X]) << "writers of key " << X;

    std::vector<std::tuple<SessionId, TxnId, TxnId>> GotReads;
    for (uint32_t R = Index.ReadBegin[Id]; R < Index.ReadBegin[Id + 1]; ++R) {
      const detail::CcKeyRead &Read = Index.Reads[R];
      GotReads.emplace_back(Read.Session, Read.Reader, Read.Writer);
    }
    EXPECT_EQ(GotReads, Reads[X]) << "reads of key " << X;
    ReadsSeen += GotReads.size();
  }
  // Every external read is of a written key, so none is dropped.
  size_t ExtReads = 0;
  for (const auto &[X, List] : Reads)
    ExtReads += List.size();
  EXPECT_EQ(ReadsSeen, ExtReads);
}

/// The CC kernel over any partition of the key-id range — the
/// work-balanced split checkCc uses on a pool, one key per range, random
/// cuts — emits the same edges as one pass over all keys, with one scratch
/// or a fresh one per range.
TEST(CcKernel, KeyRangeSplitInvariance) {
  for (Benchmark Bench : {Benchmark::CTwitter, Benchmark::Random}) {
    GenerateParams P;
    P.Bench = Bench;
    P.Sessions = 12;
    P.Txns = 1500;
    P.Seed = 9;
    History H = generateHistory(P);
    HappensBefore HB;
    ASSERT_TRUE(computeHappensBefore(H, HB));
    detail::CcKeyIndex Index(H);
    uint32_t NumKeys = static_cast<uint32_t>(Index.numKeys());
    ASSERT_GT(NumKeys, 2u);

    auto Run = [&](const std::vector<uint32_t> &Bounds, bool FreshScratch) {
      std::vector<uint64_t> Raw;
      detail::CcScratch Shared;
      for (size_t I = 0; I + 1 < Bounds.size(); ++I) {
        detail::CcScratch Fresh;
        detail::saturateCcKeys(Index, HB, Bounds[I], Bounds[I + 1],
                               FreshScratch ? Fresh : Shared,
                               [&](TxnId From, TxnId To) {
                                 Raw.push_back(CommitGraph::packEdge(From, To));
                               });
      }
      std::sort(Raw.begin(), Raw.end());
      return Raw;
    };
    std::vector<uint64_t> Whole = Run({0, NumKeys}, false);
    ASSERT_FALSE(Whole.empty());
    std::vector<uint64_t> Distinct = Whole;
    Distinct.erase(std::unique(Distinct.begin(), Distinct.end()),
                   Distinct.end());
    auto DistinctOf = [](std::vector<uint64_t> Raw) {
      Raw.erase(std::unique(Raw.begin(), Raw.end()), Raw.end());
      return Raw;
    };

    std::vector<std::vector<uint32_t>> Partitions;
    for (size_t Parts : {1u, 2u, 3u, 8u, 64u})
      Partitions.push_back(Index.splitByWork(Parts));
    std::vector<uint32_t> EachKey;
    for (uint32_t Id = 0; Id <= NumKeys; ++Id)
      EachKey.push_back(Id);
    Partitions.push_back(EachKey);
    Rng Rand(17);
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::vector<uint32_t> Cuts{0, NumKeys};
      for (int C = 0; C < 5; ++C)
        Cuts.push_back(static_cast<uint32_t>(Rand.nextBelow(NumKeys + 1)));
      std::sort(Cuts.begin(), Cuts.end());
      Partitions.push_back(Cuts);
    }

    for (const std::vector<uint32_t> &Bounds : Partitions) {
      ASSERT_EQ(Bounds.front(), 0u);
      ASSERT_EQ(Bounds.back(), NumKeys);
      ASSERT_TRUE(std::is_sorted(Bounds.begin(), Bounds.end()));
      for (bool Fresh : {false, true}) {
        std::vector<uint64_t> Split = Run(Bounds, Fresh);
        EXPECT_EQ(DistinctOf(Split), Distinct)
            << benchmarkName(Bench) << ", " << Bounds.size() - 1 << " ranges";
        // Whole keys per range: the raw emits match too.
        EXPECT_EQ(Split, Whole) << benchmarkName(Bench);
      }
    }
  }
}
