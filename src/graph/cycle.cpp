//===- graph/cycle.cpp - Witness cycle extraction ---------------------------===//

#include "graph/cycle.h"

#include "support/assert.h"

#include <deque>
#include <limits>
#include <unordered_map>

using namespace awdit;

namespace {

constexpr unsigned Inf = std::numeric_limits<unsigned>::max();

/// Runs a 0/1-BFS from \p Anchor restricted to component \p Comp and
/// returns the min-weight cycle through \p Anchor (possibly empty if no
/// cycle through the anchor exists). \p CostOut receives its weight.
std::vector<CycleEdge> cycleThroughAnchor(
    const Digraph &G, const std::vector<uint32_t> &CompOf, uint32_t Comp,
    std::span<const uint32_t> Nodes, uint32_t Anchor,
    const std::function<unsigned(uint32_t, uint32_t)> &EdgeWeight,
    unsigned &CostOut) {
  std::unordered_map<uint32_t, unsigned> Dist;
  std::unordered_map<uint32_t, uint32_t> Parent;
  Dist.reserve(Nodes.size() * 2);
  for (uint32_t U : Nodes)
    Dist[U] = Inf;
  Dist[Anchor] = 0;
  std::deque<uint32_t> Queue{Anchor};
  while (!Queue.empty()) {
    uint32_t U = Queue.front();
    Queue.pop_front();
    for (uint32_t V : G.succs(U)) {
      if (CompOf[V] != Comp)
        continue;
      unsigned W = EdgeWeight(U, V) ? 1 : 0;
      unsigned Cand = Dist[U] + W;
      auto It = Dist.find(V);
      if (Cand >= It->second)
        continue;
      It->second = Cand;
      Parent[V] = U;
      if (W == 0)
        Queue.push_front(V);
      else
        Queue.push_back(V);
    }
  }

  // Cheapest edge closing a cycle back to the anchor.
  uint32_t BestTail = Anchor;
  unsigned BestCost = Inf;
  for (uint32_t U : Nodes) {
    if (Dist[U] == Inf)
      continue;
    for (uint32_t V : G.succs(U)) {
      if (V != Anchor)
        continue;
      unsigned Cost = Dist[U] + (EdgeWeight(U, V) ? 1 : 0);
      if (Cost < BestCost) {
        BestCost = Cost;
        BestTail = U;
      }
    }
  }
  CostOut = BestCost;
  if (BestCost == Inf)
    return {};

  std::vector<uint32_t> Path;
  for (uint32_t U = BestTail; U != Anchor; U = Parent[U])
    Path.push_back(U);
  Path.push_back(Anchor);

  std::vector<CycleEdge> Cycle;
  for (size_t I = Path.size(); I-- > 1;)
    Cycle.push_back(CycleEdge{Path[I], Path[I - 1]});
  Cycle.push_back(CycleEdge{BestTail, Anchor});
  return Cycle;
}

} // namespace

std::vector<CycleEdge> awdit::extractCycle(
    const Digraph &G, const std::vector<uint32_t> &CompOf, uint32_t Comp,
    std::span<const uint32_t> Nodes,
    const std::function<unsigned(uint32_t, uint32_t)> &EdgeWeight) {
  AWDIT_ASSERT(!Nodes.empty(), "extractCycle: empty component");

  // Self-loop: the cheapest possible witness.
  for (uint32_t U : Nodes)
    for (uint32_t V : G.succs(U))
      if (V == U)
        return {CycleEdge{U, U}};

  // Candidate anchors: heads of weighted (inferred) edges inside the
  // component — every mixed cycle passes through at least one such head —
  // capped for large components, plus one fallback node.
  constexpr size_t MaxAnchors = 8;
  std::vector<uint32_t> Anchors;
  std::unordered_map<uint32_t, bool> Seen;
  for (uint32_t U : Nodes) {
    if (Anchors.size() >= MaxAnchors)
      break;
    for (uint32_t V : G.succs(U)) {
      if (CompOf[V] != Comp || EdgeWeight(U, V) == 0)
        continue;
      if (!Seen.emplace(V, true).second)
        continue;
      Anchors.push_back(V);
      if (Anchors.size() >= MaxAnchors)
        break;
    }
  }
  if (Anchors.empty())
    Anchors.push_back(Nodes.front());

  std::vector<CycleEdge> Best;
  unsigned BestCost = Inf;
  for (uint32_t Anchor : Anchors) {
    unsigned Cost = Inf;
    std::vector<CycleEdge> Cycle =
        cycleThroughAnchor(G, CompOf, Comp, Nodes, Anchor, EdgeWeight, Cost);
    if (!Cycle.empty() && Cost < BestCost) {
      BestCost = Cost;
      Best = std::move(Cycle);
      if (BestCost <= 1)
        break; // A mixed component cannot do better than one inferred edge.
    }
  }
  AWDIT_ASSERT(!Best.empty(), "extractCycle: SCC without a cycle");
  return Best;
}
