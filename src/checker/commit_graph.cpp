//===- checker/commit_graph.cpp - The partial commit relation co' ----------===//

#include "checker/commit_graph.h"

#include "graph/cycle.h"
#include "graph/scc.h"
#include "support/assert.h"

#include <algorithm>

using namespace awdit;

CommitGraph::CommitGraph(const History &H) : H(H), G(H.numTxns()) {
  // so: the per-session successor chain is the transitive reduction of the
  // session order; transitivity is implicit in reachability.
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    const std::vector<TxnId> &Sess = H.sessionTxns(S);
    for (size_t I = 0; I + 1 < Sess.size(); ++I)
      G.addEdge(Sess[I], Sess[I + 1]);
  }
  // wr on distinct committed transactions: Writer -> Reader. ReadFroms is
  // already deduplicated per reader; an occasional parallel edge with the
  // so chain is harmless for SCC and witness extraction.
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    if (!T.Committed)
      continue;
    for (TxnId Writer : T.ReadFroms)
      G.addEdge(Writer, Id);
  }
}

void CommitGraph::flushInferred() {
  size_t Raw = Pending.size();
  for (const std::vector<uint64_t> &Run : Adopted)
    Raw += Run.size();
  if (Raw == 0)
    return;

  // Counting sort on the source: Pos[U + 1] counts U's raw edges, the
  // prefix sum turns Pos[U] into the start of U's bucket, and the scatter
  // advances it to the bucket's end. Only targets are stored: the source
  // is implicit in the bucket.
  size_t N = G.numNodes();
  std::vector<size_t> Pos(N + 1, 0);
  auto ForEachRaw = [&](auto &&F) {
    for (uint64_t Packed : Pending)
      F(Packed);
    for (const std::vector<uint64_t> &Run : Adopted)
      for (uint64_t Packed : Run)
        F(Packed);
  };
  ForEachRaw([&](uint64_t Packed) { ++Pos[(Packed >> 32) + 1]; });
  for (size_t U = 0; U < N; ++U)
    Pos[U + 1] += Pos[U];
  std::vector<uint32_t> Targets(Raw);
  ForEachRaw([&](uint64_t Packed) {
    Targets[Pos[Packed >> 32]++] = static_cast<uint32_t>(Packed);
  });
  std::vector<uint64_t>().swap(Pending);
  Adopted.clear();

  // Deduplicate each bucket (Seen[To] == From + 1 marks a target already
  // kept for this source), then sort its distinct targets. Visiting
  // sources in ascending order adds the new distinct edges in ascending
  // (From, To) order, skipping those an earlier flush already added
  // (Inferred is sorted the same way).
  std::vector<uint32_t> Seen(N, 0);
  std::vector<uint64_t> Added;
  Added.reserve(Raw); // an upper bound; unused capacity is never touched
  size_t Old = 0;
  size_t Begin = 0;
  for (uint32_t From = 0; From < N; ++From) {
    uint32_t *First = Targets.data() + Begin;
    uint32_t *Last = First;
    for (size_t I = Begin; I < Pos[From]; ++I) {
      uint32_t To = Targets[I];
      if (Seen[To] == From + 1)
        continue;
      Seen[To] = From + 1;
      *Last++ = To;
    }
    Begin = Pos[From];
    if (First == Last)
      continue;
    std::sort(First, Last);
    for (const uint32_t *To = First; To != Last; ++To) {
      uint64_t Packed = packEdge(From, *To);
      while (Old < Inferred.size() && Inferred[Old] < Packed)
        ++Old;
      if (Old < Inferred.size() && Inferred[Old] == Packed)
        continue;
      G.addEdge(From, *To);
      Added.push_back(Packed);
    }
  }

  if (Inferred.empty()) {
    Inferred = std::move(Added);
    return;
  }
  std::vector<uint64_t> Merged(Inferred.size() + Added.size());
  std::merge(Inferred.begin(), Inferred.end(), Added.begin(), Added.end(),
             Merged.begin());
  Inferred = std::move(Merged);
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

  // Group nodes by cyclic component (one witness per SCC, §3.4).
  std::vector<std::vector<uint32_t>> Members(Scc.NumComps);
  for (uint32_t U = 0; U < G.numNodes(); ++U)
    Members[Scc.CompOf[U]].push_back(U);

  auto Weight = [this](uint32_t From, uint32_t To) -> unsigned {
    return classifyEdge(From, To) == EdgeKind::Inferred ? 1 : 0;
  };

  size_t Reported = 0;
  for (uint32_t Comp : Scc.CyclicComps) {
    if (Reported++ >= MaxWitnesses)
      break;
    std::vector<CycleEdge> Cycle =
        extractCycle(G, Scc.CompOf, Comp, Members[Comp], Weight);
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
