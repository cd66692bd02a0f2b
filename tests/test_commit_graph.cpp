//===- tests/test_commit_graph.cpp - CommitGraph canonicalization tests ------===//
//
// The commit graph canonicalizes inferred edges at flush time: duplicates
// collapse, edges already added by an earlier flush are skipped, and new
// edges enter each node's adjacency in ascending target order after the
// so successor and the wr readers. Adjacency order steers Tarjan numbering
// and witness choice, so these tests pin it against a std::set model.
//
//===----------------------------------------------------------------------===//

#include "checker/commit_graph.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

using namespace awdit;
using namespace awdit::test;

namespace {

using Edge = std::pair<TxnId, TxnId>;

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
      EXPECT_EQ(G.succs(U), Adj[U]) << "adjacency of t" << U;
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
  EXPECT_EQ(Co.graph().succs(0),
            (std::vector<uint32_t>{1, 3, 5, 4, 1, 2, 3}));
  EXPECT_EQ(Co.graph().succs(6), (std::vector<uint32_t>{4, 2}));

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
