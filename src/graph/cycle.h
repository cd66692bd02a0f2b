//===- graph/cycle.h - Witness cycle extraction -------------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of a witness cycle from a cyclic SCC of the commit graph.
/// Following paper §3.4, cycles that contain the fewest non-(so ∪ wr) edges
/// are preferred (they expose weaker, more serious anomalies), so extraction
/// runs a 0/1-BFS where inferred co' edges cost 1 and so/wr edges cost 0.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_GRAPH_CYCLE_H
#define AWDIT_GRAPH_CYCLE_H

#include "graph/digraph.h"

#include <functional>
#include <vector>

namespace awdit {

/// One edge of a witness cycle.
struct CycleEdge {
  uint32_t From;
  uint32_t To;
};

/// Extracts a cycle lying entirely inside the SCC \p Comp of \p G.
///
/// \param CompOf node -> component id (from computeScc).
/// \param Nodes the nodes of component \p Comp (any order, non-empty).
/// \param EdgeWeight returns 0 for "cheap" edges (so ∪ wr) and 1 for
///        inferred co' edges; the extracted cycle greedily minimizes total
///        weight among cycles through a chosen anchor node.
/// \returns the cycle as a closed edge sequence (To of the last edge equals
///          From of the first). Never empty for a genuinely cyclic SCC.
std::vector<CycleEdge> extractCycle(
    const Digraph &G, const std::vector<uint32_t> &CompOf, uint32_t Comp,
    std::span<const uint32_t> Nodes,
    const std::function<unsigned(uint32_t, uint32_t)> &EdgeWeight);

} // namespace awdit

#endif // AWDIT_GRAPH_CYCLE_H
