//===- tests/test_cc.cpp - Algorithm 3 (Causal Consistency) tests -------------===//

#include "checker/check_cc.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "reduction/reductions.h"
#include "sim/anomaly_injector.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

using namespace awdit;
using namespace awdit::test;

namespace {
constexpr Key X = 1, Y = 2, Z = 3;

bool ccConsistent(const History &H, SaturationStats *Stats = nullptr) {
  std::vector<Violation> Out;
  return checkCc(H, Out, /*MaxWitnesses=*/4, Stats);
}
} // namespace

TEST(HappensBefore, SoChain) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {0, {W(X, 3)}},
  });
  HappensBefore HB;
  ASSERT_TRUE(computeHappensBefore(H, HB));
  // Exclusive clocks: t0 sees nothing; t2 sees up to SoIndex 1 (stored +1).
  EXPECT_EQ(HB.get(0, 0), 0u);
  EXPECT_EQ(HB.get(1, 0), 1u);
  EXPECT_EQ(HB.get(2, 0), 2u);
}

TEST(HappensBefore, WrPropagatesAcrossSessions) {
  History H = makeHistory({
      {0, {W(X, 1)}},          // t0
      {1, {R(X, 1), W(Y, 1)}}, // t1: t0 hb t1
      {2, {R(Y, 1)}},          // t2: t0, t1 hb t2
  });
  HappensBefore HB;
  ASSERT_TRUE(computeHappensBefore(H, HB));
  EXPECT_EQ(HB.get(1, 0), 1u); // t1 knows t0.
  EXPECT_EQ(HB.get(2, 0), 1u); // transitively via t1.
  EXPECT_EQ(HB.get(2, 1), 1u); // t2 knows t1.
  EXPECT_EQ(HB.get(0, 1), 0u); // t0 knows nothing of session 1.
}

TEST(HappensBefore, CycleDetected) {
  History H = makeHistory({
      {0, {W(X, 1), R(Y, 1)}},
      {1, {W(Y, 1), R(X, 1)}},
  });
  HappensBefore HB;
  EXPECT_FALSE(computeHappensBefore(H, HB));
}

TEST(CheckCc, CausalChainViolationDetected) {
  // Fig. 4c shape: t2 hb t4 through t3, yet t4 reads the x-version t2
  // overwrote.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {1, {R(X, 2), W(Y, 3)}},
      {2, {R(Y, 3), R(X, 1)}},
  });
  EXPECT_FALSE(ccConsistent(H));
}

TEST(CheckCc, ConcurrentWritesReadDifferentlyConsistent) {
  // Two causally unrelated writers of x; different readers observing
  // different versions is causally fine.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {1, {W(X, 2)}},
      {2, {R(X, 1)}},
      {3, {R(X, 2)}},
  });
  EXPECT_TRUE(ccConsistent(H));
}

TEST(CheckCc, Fig4dConsistent) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {1, {R(X, 1), W(X, 2)}},
      {1, {R(X, 2)}},
      {2, {R(X, 1), W(X, 3)}},
      {2, {R(X, 3)}},
  });
  EXPECT_TRUE(ccConsistent(H));
}

TEST(CheckCc, CausalityCycleReported) {
  History H = makeHistory({
      {0, {W(X, 1), R(Y, 1)}},
      {1, {W(Y, 1), R(X, 1)}},
  });
  std::vector<Violation> Out;
  EXPECT_FALSE(checkCc(H, Out));
  ASSERT_FALSE(Out.empty());
  EXPECT_EQ(Out[0].Kind, ViolationKind::CausalityCycle);
}

TEST(CheckCc, SessionStalenessAcrossManySessionsConsistent) {
  // Each session reads a progressively staler version: causal as long as
  // no observer contradicts the causal order.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {0, {W(X, 3)}},
      {1, {R(X, 3)}},
      {2, {R(X, 2)}},
      {3, {R(X, 1)}},
  });
  EXPECT_TRUE(ccConsistent(H));
}

TEST(CheckCc, MonotoneSessionObservationRequired) {
  // One session observing x going backwards violates causality: its own
  // earlier read makes the newer version causally known.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2)}},
      {1, {R(X, 2)}},
      {1, {R(X, 1)}},
  });
  EXPECT_FALSE(ccConsistent(H));
}

TEST(CheckCc, LastWriterPerSessionUsed) {
  // Session 0 writes x twice; a causally dependent reader must observe
  // the later version (or something newer), not the first.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2), W(Y, 1)}},
      {1, {R(Y, 1), R(X, 1)}},
  });
  EXPECT_FALSE(ccConsistent(H));
}

TEST(CheckCc, ReadingNewestAfterCausalDependencyConsistent) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2), W(Y, 1)}},
      {1, {R(Y, 1), R(X, 2)}},
  });
  EXPECT_TRUE(ccConsistent(H));
}

TEST(CheckCc, StatsPopulated) {
  History H = makeHistory({
      {0, {W(X, 1)}},
      {1, {R(X, 1), W(Y, 1)}},
      {2, {R(Y, 1), R(X, 1)}},
  });
  SaturationStats Stats;
  EXPECT_TRUE(ccConsistent(H, &Stats));
  EXPECT_GT(Stats.GraphEdges, 0u);
}

TEST(CheckCc, NonRepeatableReadCaughtAsCycle) {
  // CC runs no explicit repeatable-reads check; the two writers force
  // each other co-before the other via the reader, closing a cycle.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {1, {W(X, 2)}},
      {2, {R(X, 1), R(X, 2)}},
  });
  EXPECT_FALSE(ccConsistent(H));
}

TEST(CheckCc, DeepWrChainPropagation) {
  // A long causal chain: the origin's overwrite must be respected at the
  // far end.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(X, 2), W(Y, 1)}},
      {1, {R(Y, 1), W(Z, 1)}},
      {2, {R(Z, 1), W(4, 1)}},
      {3, {R(4, 1), W(5, 1)}},
      {4, {R(5, 1), R(X, 1)}},
  });
  EXPECT_FALSE(ccConsistent(H));
}

namespace {

using EdgeSet = std::set<std::pair<TxnId, TxnId>>;

/// Algorithm 3 lines 5-15 by brute force: for every external read
/// t1 wr_x-> t3 and every session, the so-latest writer t2 of x strictly
/// under t3's happens-before frontier, found by a linear scan of the whole
/// session, gives the edge t2 co'-> t1 unless t2 = t1.
EdgeSet referenceCcEdges(const History &H, const HappensBefore &HB) {
  EdgeSet Edges;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    for (TxnId T3 : H.sessionTxns(S)) {
      const Transaction &T = H.txn(T3);
      for (uint32_t ReadIdx : T.ExtReads) {
        const ReadInfo &RI = T.Reads[ReadIdx];
        for (SessionId Other = 0; Other < H.numSessions(); ++Other) {
          TxnId T2 = NoTxn;
          for (TxnId W : H.sessionTxns(Other))
            if (H.txn(W).SoIndex < HB.get(T3, Other) &&
                H.txn(W).writesKey(RI.K))
              T2 = W;
          if (T2 != NoTxn && T2 != RI.Writer)
            Edges.insert({T2, RI.Writer});
        }
      }
    }
  return Edges;
}

/// Kernel against the brute-force reference on \p H, plus the one-shot
/// engine's edge counts at one and four threads.
void expectKernelMatchesReference(const History &H,
                                  const std::string &Context) {
  HappensBefore HB;
  if (!computeHappensBefore(H, HB))
    return; // so ∪ wr cycle: no saturation to compare.
  EdgeSet Kernel;
  detail::saturateCc(H, HB, [&](TxnId From, TxnId To) {
    Kernel.insert({From, To});
  });
  EdgeSet Reference = referenceCcEdges(H, HB);
  EXPECT_EQ(Kernel, Reference) << Context;

  std::vector<Violation> Scratch;
  bool ReadConsistent = checkReadConsistency(H, Scratch);
  std::vector<Violation> SeqOut, ParOut;
  SaturationStats Seq, Par;
  ThreadPool Pool(4);
  bool SeqConsistent = checkCc(H, SeqOut, 16, &Seq);
  EXPECT_EQ(SeqConsistent, checkCc(H, ParOut, 16, &Par, &Pool)) << Context;
  EXPECT_EQ(Seq.InferredEdges, Par.InferredEdges) << Context;
  EXPECT_EQ(Seq.GraphEdges, Par.GraphEdges) << Context;
  if (ReadConsistent) {
    EXPECT_EQ(Seq.InferredEdges, Reference.size()) << Context;
  }
}

GenerateParams smallParams(Benchmark Bench, uint64_t Seed) {
  GenerateParams P;
  P.Bench = Bench;
  P.Sessions = 6;
  P.Txns = 240;
  P.Seed = Seed;
  return P;
}

} // namespace

TEST(CcKernel, MatchesBruteForceReference) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    for (Benchmark Bench :
         {Benchmark::CTwitter, Benchmark::Random, Benchmark::Tpcc}) {
      History H = generateHistory(smallParams(Bench, Seed));
      std::string Context =
          std::string(benchmarkName(Bench)) + " seed " + std::to_string(Seed);
      expectKernelMatchesReference(H, Context);
      for (AnomalyKind Kind :
           {AnomalyKind::CausalViolation, AnomalyKind::NonMonotonicRead}) {
        std::optional<History> Bad = injectAnomaly(H, Kind, Seed);
        ASSERT_TRUE(Bad.has_value()) << Context;
        expectKernelMatchesReference(
            *Bad, Context + " + " + anomalyKindName(Kind));
      }
    }
    Rng Rand(Seed);
    expectKernelMatchesReference(reduceGeneral(randomGraph(14, 0.3, Rand)),
                                 "reduceGeneral seed " + std::to_string(Seed));
  }
}

TEST(CcKernel, HotKeyGrowsTheEmitSet) {
  // One key X written and read by every session: round R of session S
  // reads the value round R - 1 of session S + 1 wrote, then writes its
  // own. Happens-before spreads one session per round, so each reader
  // infers an edge per session it sees, thousands of distinct pairs on
  // one key: the per-key emit set must outgrow its initial table.
  constexpr SessionId Sessions = 32;
  constexpr int Rounds = 16;
  HistoryBuilder B;
  for (SessionId S = 0; S < Sessions; ++S)
    B.addSession();
  auto ValueOf = [](int Round, SessionId S) {
    return static_cast<Value>(Round * Sessions + S + 1);
  };
  for (int Round = 0; Round < Rounds; ++Round)
    for (SessionId S = 0; S < Sessions; ++S) {
      TxnId T = B.beginTxn(S);
      if (Round > 0)
        B.append(T, Operation::read(X, ValueOf(Round - 1, (S + 1) % Sessions)));
      B.append(T, Operation::write(X, ValueOf(Round, S)));
    }
  std::string Err;
  std::optional<History> H = B.build(&Err);
  ASSERT_TRUE(H.has_value()) << Err;

  HappensBefore HB;
  ASSERT_TRUE(computeHappensBefore(*H, HB));
  detail::CcKeyIndex Index(*H);
  ASSERT_EQ(Index.numKeys(), 1u);
  detail::CcScratch Scratch;
  size_t InitialCapacity = Scratch.Emitted.capacity();
  EdgeSet Edges;
  size_t Raw = 0;
  detail::saturateCcKeys(Index, HB, 0, 1, Scratch, [&](TxnId From, TxnId To) {
    Edges.insert({From, To});
    ++Raw;
  });
  EXPECT_GT(Scratch.Emitted.capacity(), InitialCapacity);
  // One key: the per-key dedupe is exact over the whole run.
  EXPECT_EQ(Raw, Edges.size());
  expectKernelMatchesReference(*H, "hot key");
}
