//===- tests/test_graph.cpp - Graph substrate tests ---------------------------===//

#include "graph/cycle.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/topo_sort.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

using namespace awdit;

TEST(Digraph, BasicAccounting) {
  Digraph G(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(G.numNodes(), 4u);
  EXPECT_EQ(G.numEdges(), 3u);
  ASSERT_EQ(G.succs(0).size(), 2u);
  EXPECT_TRUE(G.succs(3).empty());

  // The edge list's order within each source survives the counting sort,
  // and parallel edges and self-loops are kept. Nodes 1, 4 and 6 have no
  // out-edge (4 has no edge at all; 6 comes after the last source).
  Digraph H(7, {{3, 5}, {0, 6}, {3, 0}, {2, 2}, {0, 2}, {3, 5}, {5, 1}});
  EXPECT_EQ(H.numNodes(), 7u);
  EXPECT_EQ(H.numEdges(), 7u);
  auto Row = [&H](uint32_t U) {
    std::span<const uint32_t> Succs = H.succs(U);
    return std::vector<uint32_t>(Succs.begin(), Succs.end());
  };
  EXPECT_EQ(Row(0), (std::vector<uint32_t>{6, 2}));
  EXPECT_TRUE(Row(1).empty());
  EXPECT_EQ(Row(2), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Row(3), (std::vector<uint32_t>{5, 0, 5}));
  EXPECT_TRUE(Row(4).empty());
  EXPECT_EQ(Row(5), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(Row(6).empty());
  EXPECT_EQ(std::vector<uint32_t>(H.offsets().begin(), H.offsets().end()),
            (std::vector<uint32_t>{0, 2, 2, 3, 6, 6, 7, 7}));

  // The two-array form adopts the same CSR unchanged.
  Digraph Adopted({0, 2, 2, 3, 6, 6, 7, 7}, {6, 2, 2, 5, 0, 5, 1});
  EXPECT_EQ(Adopted.numEdges(), 7u);
  for (uint32_t U = 0; U < 7; ++U)
    EXPECT_TRUE(std::ranges::equal(Adopted.succs(U), H.succs(U))) << U;

  // Zero nodes, and nodes without edges.
  Digraph Empty(0, {});
  EXPECT_EQ(Empty.numNodes(), 0u);
  EXPECT_EQ(Empty.numEdges(), 0u);
  EXPECT_TRUE(computeScc(Empty).acyclic());
  ASSERT_TRUE(topologicalSort(Empty).has_value());
  EXPECT_TRUE(topologicalSort(Empty)->empty());
  Digraph Isolated(3, {});
  EXPECT_EQ(Isolated.numNodes(), 3u);
  for (uint32_t U = 0; U < 3; ++U)
    EXPECT_TRUE(Isolated.succs(U).empty());
  EXPECT_EQ(computeScc(Isolated).NumComps, 3u);
}

TEST(Scc, AcyclicGraphHasSingletonComps) {
  Digraph G(5, {{0, 1}, {1, 2}, {2, 3}, {0, 4}});
  SccResult R = computeScc(G);
  EXPECT_TRUE(R.acyclic());
  EXPECT_EQ(R.NumComps, 5u);
}

TEST(Scc, DetectsSimpleCycle) {
  Digraph G(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  SccResult R = computeScc(G);
  EXPECT_FALSE(R.acyclic());
  ASSERT_EQ(R.CyclicComps.size(), 1u);
  uint32_t C = R.CyclicComps[0];
  EXPECT_EQ(R.CompOf[0], C);
  EXPECT_EQ(R.CompOf[1], C);
  EXPECT_EQ(R.CompOf[2], C);
  EXPECT_NE(R.CompOf[3], C);
}

TEST(Scc, DetectsSelfLoop) {
  Digraph G(2, {{0, 0}});
  SccResult R = computeScc(G);
  EXPECT_FALSE(R.acyclic());
  ASSERT_EQ(R.CyclicComps.size(), 1u);
}

TEST(Scc, MultipleComponents) {
  Digraph G(6, {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}});
  SccResult R = computeScc(G);
  EXPECT_EQ(R.CyclicComps.size(), 2u);
  EXPECT_EQ(R.NumComps, 4u);
}

TEST(Scc, ComponentNumberingIsReverseTopological) {
  // Edge 0 -> 1: component of 1 must close first (smaller Tarjan number).
  Digraph G(2, {{0, 1}});
  SccResult R = computeScc(G);
  EXPECT_LT(R.CompOf[1], R.CompOf[0]);
}

TEST(Scc, DeepChainDoesNotOverflowStack) {
  constexpr uint32_t N = 200000;
  std::vector<Digraph::Edge> Chain;
  for (uint32_t I = 0; I + 1 < N; ++I)
    Chain.emplace_back(I, I + 1);
  Digraph G(N, Chain);
  SccResult R = computeScc(G);
  EXPECT_TRUE(R.acyclic());
  EXPECT_EQ(R.NumComps, N);
}

TEST(TopoSort, OrdersDag) {
  Digraph G(4, {{3, 1}, {1, 0}, {3, 2}, {2, 0}});
  auto Order = topologicalSort(G);
  ASSERT_TRUE(Order);
  std::vector<uint32_t> Pos(4);
  for (uint32_t I = 0; I < 4; ++I)
    Pos[(*Order)[I]] = I;
  EXPECT_LT(Pos[3], Pos[1]);
  EXPECT_LT(Pos[1], Pos[0]);
  EXPECT_LT(Pos[3], Pos[2]);
  EXPECT_LT(Pos[2], Pos[0]);
}

TEST(TopoSort, RejectsCycle) {
  Digraph G(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(topologicalSort(G).has_value());
}

namespace {

/// Validates that \p Cycle is a closed walk in \p G.
void expectClosedCycle(const Digraph &G, const std::vector<CycleEdge> &Cycle) {
  ASSERT_FALSE(Cycle.empty());
  EXPECT_EQ(Cycle.back().To, Cycle.front().From);
  for (size_t I = 0; I + 1 < Cycle.size(); ++I)
    EXPECT_EQ(Cycle[I].To, Cycle[I + 1].From);
  for (const CycleEdge &E : Cycle) {
    bool Found = false;
    for (uint32_t V : G.succs(E.From))
      Found |= V == E.To;
    EXPECT_TRUE(Found) << "edge " << E.From << "->" << E.To
                       << " not in graph";
  }
}

} // namespace

TEST(ExtractCycle, FindsSelfLoop) {
  Digraph G(2, {{1, 1}});
  SccResult R = computeScc(G);
  ASSERT_EQ(R.CyclicComps.size(), 1u);
  std::vector<uint32_t> Nodes = {1};
  auto Cycle = extractCycle(G, R.CompOf, R.CyclicComps[0], Nodes,
                            [](uint32_t, uint32_t) { return 1u; });
  ASSERT_EQ(Cycle.size(), 1u);
  EXPECT_EQ(Cycle[0].From, 1u);
  EXPECT_EQ(Cycle[0].To, 1u);
}

TEST(ExtractCycle, PrefersCheapEdges) {
  // Two cycles through node 0: 0->1->0 (both weight 1) and
  // 0->2->3->0 (weight 1 then 0s). The 0/1-BFS should pick a cycle with
  // exactly one weight-1 edge.
  Digraph G(4, {{0, 1}, {1, 0}, {0, 2}, {2, 3}, {3, 0}});
  auto Weight = [](uint32_t From, uint32_t To) -> unsigned {
    if (From == 0 && To == 1)
      return 1;
    if (From == 1 && To == 0)
      return 1;
    if (From == 0 && To == 2)
      return 1;
    return 0;
  };
  SccResult R = computeScc(G);
  ASSERT_EQ(R.CyclicComps.size(), 1u);
  std::vector<uint32_t> Nodes = {0, 1, 2, 3};
  auto Cycle = extractCycle(G, R.CompOf, R.CyclicComps[0], Nodes, Weight);
  expectClosedCycle(G, Cycle);
  unsigned Cost = 0;
  for (const CycleEdge &E : Cycle)
    Cost += Weight(E.From, E.To);
  EXPECT_EQ(Cost, 1u);
}

TEST(ExtractCycle, WorksOnAllZeroWeights) {
  Digraph G(3, {{0, 1}, {1, 2}, {2, 0}});
  SccResult R = computeScc(G);
  std::vector<uint32_t> Nodes = {0, 1, 2};
  auto Cycle = extractCycle(G, R.CompOf, R.CyclicComps[0], Nodes,
                            [](uint32_t, uint32_t) { return 0u; });
  expectClosedCycle(G, Cycle);
  EXPECT_EQ(Cycle.size(), 3u);
}

TEST(ExtractCycle, RestrictsToComponent) {
  // The component {0,1} has an exit edge to 2; the cycle must stay inside.
  Digraph G(3, {{0, 1}, {1, 0}, {1, 2}});
  SccResult R = computeScc(G);
  ASSERT_EQ(R.CyclicComps.size(), 1u);
  uint32_t Comp = R.CyclicComps[0];
  std::vector<uint32_t> Nodes;
  for (uint32_t U = 0; U < 3; ++U)
    if (R.CompOf[U] == Comp)
      Nodes.push_back(U);
  auto Cycle = extractCycle(G, R.CompOf, Comp, Nodes,
                            [](uint32_t, uint32_t) { return 1u; });
  expectClosedCycle(G, Cycle);
  for (const CycleEdge &E : Cycle) {
    EXPECT_NE(E.From, 2u);
    EXPECT_NE(E.To, 2u);
  }
}

TEST(SccRandomized, AgreesWithTopoSortOnCyclicity) {
  Rng Rand(77);
  for (int Trial = 0; Trial < 50; ++Trial) {
    size_t N = 2 + Rand.nextBelow(40);
    std::vector<Digraph::Edge> Edges(Rand.nextBelow(3 * N));
    for (Digraph::Edge &E : Edges) {
      E.first = static_cast<uint32_t>(Rand.nextBelow(N));
      E.second = static_cast<uint32_t>(Rand.nextBelow(N));
    }
    Digraph G(N, Edges);
    bool SccAcyclic = computeScc(G).acyclic();
    bool TopoOk = topologicalSort(G).has_value();
    EXPECT_EQ(SccAcyclic, TopoOk);
  }
}
