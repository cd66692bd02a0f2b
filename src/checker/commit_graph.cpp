//===- checker/commit_graph.cpp - The partial commit relation co' ----------===//

#include "checker/commit_graph.h"

#include "graph/cycle.h"
#include "graph/scc.h"
#include "support/assert.h"

using namespace awdit;

namespace {

/// so ∪ wr in two counting passes over \p H: row U is U's so successor,
/// then its wr readers by ascending reader id.
Digraph baseGraph(const History &H) {
  return Digraph::fromEdges(H.numTxns(), [&H](auto &&Emit) {
    // so: the per-session successor chain is the transitive reduction of
    // the session order; transitivity is implicit in reachability. Rows
    // take their so successor first.
    for (SessionId S = 0; S < H.numSessions(); ++S) {
      const std::vector<TxnId> &Sess = H.sessionTxns(S);
      for (size_t I = 0; I + 1 < Sess.size(); ++I)
        Emit(Sess[I], Sess[I + 1]);
    }
    // wr on distinct committed transactions: Writer -> Reader. ReadFroms
    // is already deduplicated per reader; an occasional parallel edge with
    // the so chain is harmless for SCC and witness extraction.
    for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
      const Transaction &T = H.txn(Id);
      if (!T.Committed)
        continue;
      for (TxnId Writer : T.ReadFroms)
        Emit(Writer, Id);
    }
  });
}

/// The raw inferred edges of \p Pending and \p Adopted, both emptied, as a
/// CSR over \p N nodes whose rows list their targets in ascending order,
/// repeats side by side. Two stable counting sorts: the first groups the
/// sources by target, the second scatters the targets, visited in
/// ascending order, by source.
Digraph sortInferred(size_t N, std::vector<uint64_t> &Pending,
                     std::vector<std::vector<uint64_t>> &Adopted) {
  Digraph ByTarget = Digraph::fromEdges(N, [&](auto &&Emit) {
    auto EmitReversed = [&Emit](uint64_t Packed) {
      Emit(static_cast<uint32_t>(Packed), static_cast<uint32_t>(Packed >> 32));
    };
    for (uint64_t Packed : Pending)
      EmitReversed(Packed);
    for (const std::vector<uint64_t> &Run : Adopted)
      for (uint64_t Packed : Run)
        EmitReversed(Packed);
  });
  std::vector<uint64_t>().swap(Pending);
  Adopted.clear();
  return Digraph::fromEdges(N, [&ByTarget, N](auto &&Emit) {
    for (uint32_t To = 0; To < N; ++To)
      for (uint32_t From : ByTarget.succs(To))
        Emit(From, To);
  });
}

} // namespace

CommitGraph::CommitGraph(const History &H) : H(H), G(baseGraph(H)) {}

void CommitGraph::flushInferred() {
  if (Pending.empty() && Adopted.empty())
    return;

  size_t N = G.numNodes();
  Digraph BySource = sortInferred(N, Pending, Adopted);

  // A source's new targets: its sorted raw targets without repeats and
  // without the edges an earlier flush added, which are its row's tail
  // past the base degree. Mark[To] == From + 1 marks that tail.
  std::vector<uint32_t> Mark(NumInferred > 0 ? N : 0, 0);
  auto ForEachNew = [&](uint32_t From, auto &&Keep) {
    std::span<const uint32_t> Raw = BySource.succs(From);
    if (Raw.empty())
      return;
    if (NumInferred > 0) {
      size_t BaseDegree = BaseOffsets[From + 1] - BaseOffsets[From];
      for (uint32_t To : G.succs(From).subspan(BaseDegree))
        Mark[To] = From + 1;
    }
    for (size_t I = 0; I < Raw.size(); ++I)
      if ((I == 0 || Raw[I] != Raw[I - 1]) &&
          (NumInferred == 0 || Mark[Raw[I]] != From + 1))
        Keep(Raw[I]);
  };

  // One merged CSR: each old row, then its new targets ascending. The
  // first pass sizes the rows, the second writes them.
  std::vector<uint32_t> Offsets(N + 1, 0);
  for (uint32_t From = 0; From < N; ++From) {
    uint32_t Degree = static_cast<uint32_t>(G.succs(From).size());
    ForEachNew(From, [&Degree](uint32_t) { ++Degree; });
    Offsets[From + 1] = Offsets[From] + Degree;
  }
  size_t Added = Offsets[N] - G.numEdges();
  if (Added == 0)
    return;
  std::vector<uint32_t> Targets;
  Targets.reserve(Offsets[N]);
  for (uint32_t From = 0; From < N; ++From) {
    std::span<const uint32_t> Old = G.succs(From);
    Targets.insert(Targets.end(), Old.begin(), Old.end());
    ForEachNew(From, [&Targets](uint32_t To) { Targets.push_back(To); });
  }
  if (NumInferred == 0)
    BaseOffsets.assign(G.offsets().begin(), G.offsets().end());
  NumInferred += Added;
  G = Digraph(std::move(Offsets), std::move(Targets));
}

EdgeKind CommitGraph::classifyEdge(TxnId From, TxnId To) const {
  if (H.txn(From).Committed && H.soSuccessor(From) == To)
    return EdgeKind::So;
  for (TxnId Writer : H.txn(To).ReadFroms)
    if (Writer == From)
      return EdgeKind::Wr;
  return EdgeKind::Inferred;
}

bool CommitGraph::checkAcyclic(std::vector<Violation> &Out,
                               size_t MaxWitnesses) {
  flushInferred();
  SccResult Scc = computeScc(G);
  if (Scc.acyclic())
    return true;

  if (MaxWitnesses == 0) {
    // Caller only wants the verdict; report one unlabelled violation.
    Out.push_back({ViolationKind::CommitOrderCycle, NoTxn, NoOp, NoTxn, {}});
    return false;
  }

  // Group the nodes by component (one witness per SCC, §3.4) with one
  // counting sort over CompOf: row C of Members lists component C's nodes
  // in ascending order (component ids are below the node count).
  Digraph Members = Digraph::fromEdges(G.numNodes(), [&Scc](auto &&Emit) {
    for (uint32_t U = 0; U < Scc.CompOf.size(); ++U)
      Emit(Scc.CompOf[U], U);
  });

  auto Weight = [this](uint32_t From, uint32_t To) -> unsigned {
    return classifyEdge(From, To) == EdgeKind::Inferred ? 1 : 0;
  };

  size_t Reported = 0;
  for (uint32_t Comp : Scc.CyclicComps) {
    if (Reported++ >= MaxWitnesses)
      break;
    std::vector<CycleEdge> Cycle =
        extractCycle(G, Scc.CompOf, Comp, Members.succs(Comp), Weight);
    Violation V;
    V.Kind = ViolationKind::CausalityCycle;
    for (const CycleEdge &E : Cycle) {
      EdgeKind Kind = classifyEdge(E.From, E.To);
      if (Kind == EdgeKind::Inferred)
        V.Kind = ViolationKind::CommitOrderCycle;
      V.Cycle.push_back({E.From, E.To, Kind});
    }
    Out.push_back(std::move(V));
  }
  return false;
}
