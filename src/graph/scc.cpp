//===- graph/scc.cpp - Strongly connected components -----------------------===//

#include "graph/scc.h"

#include "support/assert.h"

#include <limits>

using namespace awdit;

namespace {
constexpr uint32_t Unvisited = std::numeric_limits<uint32_t>::max();
} // namespace

SccResult awdit::computeScc(const Digraph &G) {
  size_t N = G.numNodes();
  SccResult Res;
  Res.CompOf.assign(N, Unvisited);

  std::vector<uint32_t> Index(N, Unvisited);
  std::vector<uint32_t> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  std::vector<size_t> CompSize;
  CompSize.reserve(N); // at most one component per node
  std::vector<bool> CompSelfLoop;

  // Explicit DFS frames: (node, next successor offset).
  struct Frame {
    uint32_t Node;
    size_t NextSucc;
  };
  std::vector<Frame> Dfs;
  uint32_t NextIndex = 0;

  for (uint32_t Root = 0; Root < N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    Dfs.push_back({Root, 0});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      uint32_t U = F.Node;
      std::span<const uint32_t> Succs = G.succs(U);
      if (F.NextSucc < Succs.size()) {
        uint32_t V = Succs[F.NextSucc++];
        if (Index[V] == Unvisited) {
          Index[V] = LowLink[V] = NextIndex++;
          Stack.push_back(V);
          OnStack[V] = true;
          Dfs.push_back({V, 0});
        } else if (OnStack[V]) {
          LowLink[U] = std::min(LowLink[U], Index[V]);
        }
        continue;
      }

      // All successors explored: maybe close a component, then retreat.
      if (LowLink[U] == Index[U]) {
        uint32_t Comp = Res.NumComps++;
        size_t Size = 0;
        bool SelfLoop = false;
        for (;;) {
          uint32_t V = Stack.back();
          Stack.pop_back();
          OnStack[V] = false;
          Res.CompOf[V] = Comp;
          ++Size;
          if (!SelfLoop)
            for (uint32_t W : G.succs(V))
              if (W == V) {
                SelfLoop = true;
                break;
              }
          if (V == U)
            break;
        }
        CompSize.push_back(Size);
        CompSelfLoop.push_back(SelfLoop);
      }
      Dfs.pop_back();
      if (!Dfs.empty()) {
        uint32_t Parent = Dfs.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[U]);
      }
    }
  }

  for (uint32_t C = 0; C < Res.NumComps; ++C)
    if (CompSize[C] >= 2 || CompSelfLoop[C])
      Res.CyclicComps.push_back(C);
  return Res;
}
