//===- graph/digraph.h - Directed graph ---------------------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An immutable directed graph over dense node ids in compressed sparse row
/// (CSR) form: two flat arrays, whatever the number of nodes. Used for the
/// partial commit relation co' (nodes = transactions; so ∪ wr before any
/// inferred edge is merged) and for the streaming engine's quarantine
/// region.
///
/// Row order is part of the contract: succs(U) lists U's edges in the order
/// they were given. Tarjan numbering, the topological sort and witness
/// choice follow it, so a caller that rebuilds a graph keeps each row's
/// order to keep its outputs.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_GRAPH_DIGRAPH_H
#define AWDIT_GRAPH_DIGRAPH_H

#include "support/assert.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace awdit {

/// Directed graph in CSR form: row U is Targets[Offsets[U], Offsets[U + 1]).
/// Parallel edges and self-loops are kept (the commit graph deduplicates
/// where it matters); node ids are dense [0, numNodes()).
class Digraph {
public:
  /// One edge (From, To) of an edge list.
  using Edge = std::pair<uint32_t, uint32_t>;

  /// Adopts a built CSR. \p Offsets holds numNodes() + 1 nondecreasing
  /// entries, from 0 up to Targets.size().
  Digraph(std::vector<uint32_t> Offsets, std::vector<uint32_t> Targets);

  /// Builds the CSR of \p Edges over \p NumNodes nodes with one stable
  /// counting sort on the source: each row keeps its edges' list order.
  Digraph(size_t NumNodes, const std::vector<Edge> &Edges);

  /// The same counting sort over generated edges: \p ForEachEdge(F) calls
  /// F(From, To) once per edge. It runs twice (count, then scatter) and
  /// must yield the same edges in the same order both times.
  template <typename EdgeGen>
  static Digraph fromEdges(size_t NumNodes, EdgeGen &&ForEachEdge) {
    // Offsets[U + 2] counts U's edges; after the prefix sum Offsets[U + 1]
    // is the start of row U, and the scatter advances it to the row's end,
    // which is row U + 1's start. The spare last entry then goes.
    std::vector<uint32_t> Offsets(NumNodes + 2, 0);
    ForEachEdge([&](uint32_t From, uint32_t To) {
      AWDIT_ASSERT(From < NumNodes && To < NumNodes,
                   "Digraph: edge endpoint out of range");
      (void)To;
      ++Offsets[From + 2];
    });
    for (size_t I = 2; I < Offsets.size(); ++I)
      Offsets[I] += Offsets[I - 1];
    std::vector<uint32_t> Targets(Offsets.back());
    ForEachEdge([&](uint32_t From, uint32_t To) {
      Targets[Offsets[From + 1]++] = To;
    });
    Offsets.pop_back();
    return Digraph(std::move(Offsets), std::move(Targets));
  }

  size_t numNodes() const { return Offsets.size() - 1; }
  size_t numEdges() const { return Targets.size(); }

  std::span<const uint32_t> succs(uint32_t U) const {
    return {Targets.data() + Offsets[U], Targets.data() + Offsets[U + 1]};
  }

  /// The numNodes() + 1 row starts.
  std::span<const uint32_t> offsets() const { return Offsets; }

private:
  std::vector<uint32_t> Offsets;
  std::vector<uint32_t> Targets;
};

} // namespace awdit

#endif // AWDIT_GRAPH_DIGRAPH_H
