//===- graph/digraph.cpp - Directed graph ---------------------------------===//

#include "graph/digraph.h"

#include "support/assert.h"

using namespace awdit;

namespace {

Digraph fromEdgeList(size_t NumNodes, const std::vector<Digraph::Edge> &Edges) {
  return Digraph::fromEdges(NumNodes, [&Edges](auto &&Emit) {
    for (const Digraph::Edge &E : Edges)
      Emit(E.first, E.second);
  });
}

} // namespace

Digraph::Digraph(std::vector<uint32_t> Offsets, std::vector<uint32_t> Targets)
    : Offsets(std::move(Offsets)), Targets(std::move(Targets)) {
  AWDIT_ASSERT(!this->Offsets.empty() && this->Offsets.front() == 0,
               "Digraph: row offsets must start at 0");
  AWDIT_ASSERT(this->Offsets.back() == this->Targets.size(),
               "Digraph: row offsets do not span the targets");
}

Digraph::Digraph(size_t NumNodes, const std::vector<Edge> &Edges)
    : Digraph(fromEdgeList(NumNodes, Edges)) {}
