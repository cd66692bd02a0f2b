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
/// Construction is allocation-lean on purpose: base edges are plain
/// adjacency pushes (no hashing), and edges are classified structurally
/// (so-successor / read-froms membership) only when a witness is actually
/// extracted — the common consistent-history path never pays for it.
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
/// the transitive reduction of so) and txn-level wr edges; checker
/// algorithms then add inferred edges via inferEdge() or adoptInferred().
///
/// Inferred edges are canonicalized at flush time without hashing: a
/// counting sort on the dense source id, then inside each source's bucket
/// a marker-array dedupe and a sort of the distinct targets. New distinct
/// edges enter the graph in ascending (From, To) order, so each node's
/// adjacency is [so successor, wr readers ascending, inferred targets
/// ascending] — a later flush appends its new targets after the earlier
/// ones. The order steers Tarjan numbering and witness choice.
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
    return Inferred.size();
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
  /// Packed (From, To) pairs of flushed inferred edges, sorted ascending.
  std::vector<uint64_t> Inferred;
};

} // namespace awdit

#endif // AWDIT_CHECKER_COMMIT_GRAPH_H
