//===- checker/commit_graph.h - The partial commit relation co' ---*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Container for the saturated, minimal partial commit relation co'
/// (Definition 3.1): the base so ∪ wr edges plus the inferred edges the
/// isolation-level algorithms add. Acyclicity is decided with one Tarjan
/// pass; witness cycles (one per SCC, minimizing inferred edges, §3.4) are
/// extracted on demand.
///
/// The graph is one flat CSR (graph/digraph.h), built and rebuilt by
/// counting sorts: no hashing, no comparison sort and no heap vector per
/// transaction. Edges are classified structurally (so-successor /
/// read-froms membership) only when a witness is actually extracted — the
/// common consistent-history path never pays for it.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_COMMIT_GRAPH_H
#define AWDIT_CHECKER_COMMIT_GRAPH_H

#include "checker/violation.h"
#include "graph/digraph.h"
#include "history/history.h"
#include "support/assert.h"

#include <vector>

namespace awdit {

/// The partial commit relation co' over committed transactions.
///
/// Construction seeds the graph with so (as per-session successor chains —
/// the transitive reduction of so) and txn-level wr edges, in two counting
/// passes over the History; checker algorithms then add inferred edges via
/// inferEdge() or adoptInferred().
///
/// Each node's row is [so successor, wr readers ascending, inferred targets]
/// and that order steers Tarjan numbering and witness choice. A flush
/// orders the raw inferred edges by two stable counting sorts, on the
/// target and then on the source, so duplicates sit side by side; it drops
/// them and the edges an earlier flush added (the row's tail past its base
/// degree), then writes one merged CSR: each old row, then its new targets
/// ascending, so a later flush appends its new targets after the earlier
/// ones.
class CommitGraph {
public:
  explicit CommitGraph(const History &H);

  /// Records the inferred ordering \p From co'-> \p To. Calls are cheap
  /// (a vector push); duplicates are merged lazily at flush time so the
  /// saturation hot loops never hash. Both ids must be committed
  /// transactions.
  void inferEdge(TxnId From, TxnId To) {
    AWDIT_ASSERT(From != To, "inferEdge: self edge is a trivial cycle");
    Pending.push_back(packEdge(From, To));
  }

  /// Hands a buffer of packed inferred edges (see packEdge) to the graph:
  /// the same as inferEdge() on each element, without copying them.
  /// \p Edges is left empty.
  void adoptInferred(std::vector<uint64_t> &&Edges) {
    if (!Edges.empty())
      Adopted.push_back(std::move(Edges));
  }

  /// Packs an inferred edge for inferEdge-style bulk storage. The shared
  /// packed-edge convention of the whole checker layer (the one-shot
  /// checkers' per-unit buffers and the incremental saturation state use
  /// it too).
  static uint64_t packEdge(TxnId From, TxnId To) {
    return (static_cast<uint64_t>(From) << 32) | To;
  }

  /// Number of distinct inferred edges added so far (flushes pending).
  size_t numInferredEdges() {
    flushInferred();
    return NumInferred;
  }

  /// Number of edges in the underlying graph: so + wr + distinct inferred
  /// (flushes pending).
  size_t numEdges() {
    flushInferred();
    return G.numEdges();
  }

  /// Checks co' for cycles. Appends at most \p MaxWitnesses violations to
  /// \p Out (one witness cycle per cyclic SCC). A cycle that uses only
  /// so/wr edges is classified as CausalityCycle, otherwise as
  /// CommitOrderCycle. Returns true iff co' is acyclic.
  bool checkAcyclic(std::vector<Violation> &Out, size_t MaxWitnesses);

  /// Access to the underlying digraph (nodes = TxnIds). Flushes pending
  /// inferred edges so the view is complete.
  const Digraph &graph() {
    flushInferred();
    return G;
  }

private:
  /// Classifies an edge for witness labelling (structural, O(deg) for wr).
  EdgeKind classifyEdge(TxnId From, TxnId To) const;

  /// Merges the pending inferred edges into the graph, deduplicated
  /// against each other and against earlier flushes.
  void flushInferred();

  const History &H;
  Digraph G;
  /// Raw (possibly duplicated) inferred edges awaiting the flush:
  /// inferEdge()'s buffer and the buffers handed over by adoptInferred().
  std::vector<uint64_t> Pending;
  std::vector<std::vector<uint64_t>> Adopted;
  /// Distinct inferred edges merged into G so far.
  size_t NumInferred = 0;
  /// The row offsets of the base so ∪ wr graph, kept by the first flush
  /// that merges an edge: later flushes find each row's inferred tail
  /// past its base degree.
  std::vector<uint32_t> BaseOffsets;
};

} // namespace awdit

#endif // AWDIT_CHECKER_COMMIT_GRAPH_H
