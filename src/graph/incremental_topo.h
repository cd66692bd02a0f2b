//===- graph/incremental_topo.h - Dynamic topological order ------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Pearce–Kelly-style dynamically maintained topological order over a
/// growing directed graph: inserting an edge reorders only the affected
/// region between the endpoints, and an insertion that would close a cycle
/// is rejected with the offending path extracted on the spot — no full SCC
/// re-pass over the graph. This is what lets the incremental saturation
/// engine (checker/saturation_state.h) keep the commit relation ordered
/// and cycle-checked in time proportional to the delta of each flush
/// instead of the whole live window.
///
/// Reference: D. J. Pearce and P. H. J. Kelly, "A Dynamic Topological Sort
/// Algorithm for Directed Acyclic Graphs", JEA 11 (2006).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_GRAPH_INCREMENTAL_TOPO_H
#define AWDIT_GRAPH_INCREMENTAL_TOPO_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;

/// A directed graph with a maintained topological order. Nodes are dense
/// ids appended at the end of the order; the edge set must stay acyclic —
/// addEdge() refuses (and reports) an edge that would close a cycle, so
/// the caller decides what to do with it (the saturation engine reports a
/// violation and quarantines the edge).
///
/// Each distinct (From, To) pair may be inserted at most once; the caller
/// deduplicates (the saturation engine refcounts edges per source).
class IncrementalTopoOrder {
public:
  /// Appends \p Count nodes at the end of the order.
  void addNodes(size_t Count);

  size_t numNodes() const { return Pos.size(); }
  size_t numEdges() const { return EdgeCount; }

  /// Position of node \p N in the maintained order (a permutation of
  /// [0, numNodes())).
  uint32_t position(uint32_t N) const { return Pos[N]; }

  /// Inserts the edge \p From -> \p To, reordering the affected region if
  /// needed. Returns true on success (the order stays valid). Returns
  /// false — without modifying the graph — when the edge would close a
  /// cycle; if \p CyclePath is non-null it receives the existing path
  /// To -> ... -> From (node ids, consecutive pairs are edges), which
  /// together with (From, To) forms the cycle.
  bool addEdge(uint32_t From, uint32_t To,
               std::vector<uint32_t> *CyclePath = nullptr);

  /// Removes the edge \p From -> \p To (which must be present). Deleting
  /// an edge never invalidates a topological order, so this is O(deg).
  void removeEdge(uint32_t From, uint32_t To);

  /// Drops the node prefix [0, \p Cut) and renumbers the survivors to
  /// [0, n - Cut), preserving their relative order. Every edge incident to
  /// a dropped node must have been removed first.
  void compactPrefix(uint32_t Cut);

  /// Drops every edge, then the node prefix [0, \p Cut) as compactPrefix
  /// does. Eviction compaction uses this and re-inserts the surviving
  /// edges itself (all forward in the preserved order, so O(1) each).
  void clearEdgesAndCompact(uint32_t Cut);

  const std::vector<uint32_t> &succs(uint32_t N) const { return Out[N]; }
  const std::vector<uint32_t> &preds(uint32_t N) const { return In[N]; }

  /// Checkpoint support (checker/checkpoint.h): serializes the maintained
  /// order and adjacency *verbatim* — positions and adjacency-list order
  /// affect which witness path a later cycle extraction walks, so a
  /// restored monitor must continue from the exact same internal state,
  /// not a rebuilt-equivalent one. The DFS scratch (epoch marks) is
  /// transient and reset on load.
  ///
  /// \p IdBase globalizes adjacency node ids (loadState must be given the
  /// same base back) and \p KindBase numbers the emitted chunk sections —
  /// this class claims kinds KindBase..KindBase+2 (positions, out-,
  /// in-adjacency).
  void saveState(ByteWriter &W, uint32_t IdBase, uint64_t KindBase) const;
  bool loadState(ByteReader &R, uint32_t IdBase);

private:
  /// Forward discovery from \p To bounded by position \p Limit. Returns
  /// false when \p From was reached (a cycle); fills Parent for path
  /// extraction. Visited nodes accumulate in \p Region.
  bool discoverForward(uint32_t From, uint32_t To, uint32_t Limit,
                       std::vector<uint32_t> &Region);

  std::vector<std::vector<uint32_t>> Out;
  std::vector<std::vector<uint32_t>> In;
  /// Node -> order position (a permutation of [0, n)).
  std::vector<uint32_t> Pos;
  size_t EdgeCount = 0;

  // Epoch-stamped DFS scratch, reused across insertions.
  std::vector<uint32_t> Mark;
  std::vector<uint32_t> Parent;
  uint32_t Epoch = 0;
  std::vector<uint32_t> Stack;
};

} // namespace awdit

#endif // AWDIT_GRAPH_INCREMENTAL_TOPO_H
