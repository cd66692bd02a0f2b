//===- tests/test_commit_graph.cpp - CommitGraph canonicalization tests ------===//
//
// The commit graph canonicalizes inferred edges at flush time: duplicates
// collapse, edges already added by an earlier flush are skipped, and new
// edges enter each node's adjacency in ascending target order after the
// so successor and the wr readers. Adjacency order steers Tarjan numbering
// and witness choice, so these tests pin it against a std::set model.
//
// The graph is flat, so a one-shot check's heap allocations do not grow
// with the history. This binary replaces the global operator new and
// operator delete with malloc-backed wrappers that count allocations while
// a flag is set, to pin that.
//
//===----------------------------------------------------------------------===//

#include "checker/checker.h"
#include "checker/commit_graph.h"
#include "sim/anomaly_injector.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

namespace {

std::atomic<bool> CountAllocations{false};
std::atomic<size_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  if (CountAllocations.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace awdit;
using namespace awdit::test;

namespace {

using Edge = std::pair<TxnId, TxnId>;

/// Row \p U of \p G as a vector, for comparisons.
std::vector<uint32_t> row(const Digraph &G, uint32_t U) {
  std::span<const uint32_t> Succs = G.succs(U);
  return {Succs.begin(), Succs.end()};
}

/// Reference model of a commit graph's adjacency: the base so ∪ wr lists,
/// then per flush the distinct edges not seen before, ascending.
class AdjacencyModel {
public:
  explicit AdjacencyModel(const History &H) : Adj(H.numTxns()) {
    for (TxnId Id = 0; Id < H.numTxns(); ++Id)
      if (H.isCommitted(Id) && H.soSuccessor(Id) != NoTxn)
        Adj[Id].push_back(H.soSuccessor(Id));
    for (TxnId Id = 0; Id < H.numTxns(); ++Id)
      if (H.isCommitted(Id))
        for (TxnId Writer : H.txn(Id).ReadFroms)
          Adj[Writer].push_back(Id);
    for (const std::vector<uint32_t> &Succs : Adj)
      BaseEdges += Succs.size();
  }

  void flush(const std::vector<Edge> &Batch) {
    std::set<Edge> New;
    for (const Edge &E : Batch)
      if (!Inferred.count(E))
        New.insert(E);
    for (const Edge &E : New) {
      Adj[E.first].push_back(E.second);
      Inferred.insert(E);
    }
  }

  size_t numInferred() const { return Inferred.size(); }
  size_t numEdges() const { return BaseEdges + Inferred.size(); }

  void expectMatches(const Digraph &G) const {
    ASSERT_EQ(G.numNodes(), Adj.size());
    for (uint32_t U = 0; U < Adj.size(); ++U)
      EXPECT_EQ(row(G, U), Adj[U]) << "adjacency of t" << U;
  }

private:
  std::vector<std::vector<uint32_t>> Adj;
  std::set<Edge> Inferred;
  size_t BaseEdges = 0;
};

void inferAll(CommitGraph &Co, const std::vector<Edge> &Batch) {
  for (const Edge &E : Batch)
    Co.inferEdge(E.first, E.second);
}

} // namespace

TEST(CommitGraph, SecondFlushMergesWithFirstInCanonicalOrder) {
  constexpr Key X = 1, Y = 2, Z = 3;
  // so: t0 -> t1 -> t2, t3 -> t4, t5 -> t6;
  // wr: t0 -> t3, t0 -> t5, t1 -> t4, t2 -> t4.
  History H = makeHistory({
      {0, {W(X, 1)}},
      {0, {W(Y, 1)}},
      {0, {W(Z, 1)}},
      {1, {R(X, 1)}},
      {1, {R(Y, 1), R(Z, 1)}},
      {2, {R(X, 1)}},
      {2, {}},
  });
  CommitGraph Co(H);
  AdjacencyModel Model(H);
  ASSERT_EQ(Model.numEdges(), 8u);

  std::vector<Edge> First = {{3, 1}, {5, 2}, {3, 1}, {0, 4},
                             {5, 1}, {3, 2}, {6, 4}, {5, 2}};
  inferAll(Co, First);
  Model.flush(First);
  EXPECT_EQ(Co.numInferredEdges(), 6u);
  EXPECT_EQ(Co.numInferredEdges(), Model.numInferred());
  EXPECT_EQ(Co.numEdges(), 14u);
  Model.expectMatches(Co.graph());

  // Overlaps the first batch, repeats base edges (so t0 -> t1, wr t0 -> t3
  // and t2 -> t4), and adds targets below earlier ones (t6 -> t2 after
  // t6 -> t4). Half arrives through inferEdge, half handed over.
  std::vector<Edge> Second = {{3, 1}, {0, 3}, {6, 2}, {0, 1},
                              {5, 2}, {2, 4}, {0, 2}, {6, 2}};
  inferAll(Co, {Second.begin(), Second.begin() + 4});
  std::vector<uint64_t> Packed;
  for (auto It = Second.begin() + 4; It != Second.end(); ++It)
    Packed.push_back(CommitGraph::packEdge(It->first, It->second));
  Co.adoptInferred(std::move(Packed));
  EXPECT_TRUE(Packed.empty());
  Model.flush(Second);
  EXPECT_EQ(Co.numInferredEdges(), Model.numInferred());
  EXPECT_EQ(Co.numInferredEdges(), 11u);
  EXPECT_EQ(Co.numEdges(), Model.numEdges());
  Model.expectMatches(Co.graph());
  // [so successor, wr readers ascending, first flush, second flush].
  EXPECT_EQ(row(Co.graph(), 0),
            (std::vector<uint32_t>{1, 3, 5, 4, 1, 2, 3}));
  EXPECT_EQ(row(Co.graph(), 6), (std::vector<uint32_t>{4, 2}));

  std::vector<Violation> Out;
  EXPECT_TRUE(Co.checkAcyclic(Out, 16));
  EXPECT_TRUE(Out.empty());

  // Inject t4 -> t3 against so t3 -> t4: the component is {t1..t4}, and
  // the witness is the one-inferred-edge cycle through t3.
  Co.inferEdge(4, 3);
  EXPECT_FALSE(Co.checkAcyclic(Out, 16));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Kind, ViolationKind::CommitOrderCycle);
  ASSERT_EQ(Out[0].Cycle.size(), 2u);
  EXPECT_EQ(Out[0].Cycle[0].From, 3u);
  EXPECT_EQ(Out[0].Cycle[0].To, 4u);
  EXPECT_EQ(Out[0].Cycle[0].Kind, EdgeKind::So);
  EXPECT_EQ(Out[0].Cycle[1].From, 4u);
  EXPECT_EQ(Out[0].Cycle[1].To, 3u);
  EXPECT_EQ(Out[0].Cycle[1].Kind, EdgeKind::Inferred);
  EXPECT_EQ(Co.numInferredEdges(), 12u);
}

TEST(CommitGraph, RandomMultiFlushMatchesSetModel) {
  GenerateParams P;
  P.Bench = Benchmark::Random;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 6;
  P.Txns = 300;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    P.Seed = Seed;
    History H = generateHistory(P);
    std::vector<TxnId> Committed;
    for (TxnId Id = 0; Id < H.numTxns(); ++Id)
      if (H.isCommitted(Id))
        Committed.push_back(Id);
    CommitGraph Co(H);
    AdjacencyModel Model(H);
    Rng R(Seed);
    for (int Flush = 0; Flush < 4; ++Flush) {
      // A narrow id range per batch forces duplicates within and across
      // flushes; every other batch is handed over as one buffer.
      std::vector<Edge> Batch;
      size_t Range = 8 + R.nextBelow(Committed.size() - 8);
      for (size_t I = 0; I < 400; ++I) {
        TxnId From = Committed[R.nextBelow(Range)];
        TxnId To = Committed[R.nextBelow(Range)];
        if (From != To)
          Batch.emplace_back(From, To);
      }
      if (Flush % 2 == 0) {
        inferAll(Co, Batch);
      } else {
        std::vector<uint64_t> Packed;
        for (const Edge &E : Batch)
          Packed.push_back(CommitGraph::packEdge(E.first, E.second));
        Co.adoptInferred(std::move(Packed));
      }
      Model.flush(Batch);
      EXPECT_EQ(Co.numInferredEdges(), Model.numInferred());
      EXPECT_EQ(Co.numEdges(), Model.numEdges());
      Model.expectMatches(Co.graph());
    }
  }
}

namespace {

/// Heap allocations of one inline checkIsolation call on \p H.
size_t checkAllocations(const History &H, IsolationLevel Level,
                        size_t MaxWitnesses) {
  CheckOptions Options;
  Options.Threads = 1;
  Options.MaxWitnesses = MaxWitnesses;
  Allocations = 0;
  CountAllocations = true;
  CheckReport Report = checkIsolation(H, Level, Options);
  CountAllocations = false;
  return Allocations.load();
}

History ctwitterHistory(size_t Txns, bool InjectCausalViolation) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 16;
  P.Txns = Txns;
  P.Seed = 3;
  History H = generateHistory(P);
  if (!InjectCausalViolation)
    return H;
  std::string Err;
  std::optional<History> Injected =
      injectAnomaly(H, AnomalyKind::CausalViolation, P.Seed, &Err);
  EXPECT_TRUE(Injected.has_value()) << Err;
  return Injected ? std::move(*Injected) : std::move(H);
}

} // namespace

// A graph with one heap vector per transaction made 4.2k-4.7k allocations
// at 2 000 transactions and 16.9k-19.0k at 8 000. The flat graph allocates
// a few buffers per pass, so quadrupling the history adds only the extra
// doublings of the vectors that grow and one edge run per 64Ki edges.
TEST(CommitGraph, OneShotAllocationsDoNotGrowWithTheHistory) {
  History Small = ctwitterHistory(2000, false),
          Large = ctwitterHistory(8000, false);
  for (IsolationLevel Level :
       {IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic,
        IsolationLevel::CausalConsistency}) {
    SCOPED_TRACE(isolationLevelName(Level));
    size_t AtSmall = checkAllocations(Small, Level, 0);
    size_t AtLarge = checkAllocations(Large, Level, 0);
    EXPECT_LE(AtLarge, AtSmall + 64) << AtSmall << " -> " << AtLarge;
  }

  // The witness path groups the members of every cyclic component with
  // one counting sort, not one vector per component.
  History BadSmall = ctwitterHistory(2000, true),
          BadLarge = ctwitterHistory(8000, true);
  for (const History *Bad : {&BadSmall, &BadLarge})
    ASSERT_FALSE(
        checkIsolation(*Bad, IsolationLevel::CausalConsistency).Consistent);
  size_t AtSmall =
      checkAllocations(BadSmall, IsolationLevel::CausalConsistency, 16);
  size_t AtLarge =
      checkAllocations(BadLarge, IsolationLevel::CausalConsistency, 16);
  EXPECT_LE(AtLarge, AtSmall + 64) << AtSmall << " -> " << AtLarge;
}
