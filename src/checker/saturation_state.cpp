//===- checker/saturation_state.cpp - Incremental saturation engine --------===//

#include "checker/saturation_state.h"

#include "checker/checkpoint_chunks.h"
#include "checker/commit_graph.h"
#include "graph/scc.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/serialize.h"

#include <algorithm>
#include <functional>

using namespace awdit;

namespace {

uint32_t edgeFrom(uint64_t Packed) {
  return static_cast<uint32_t>(Packed >> 32);
}
uint32_t edgeTo(uint64_t Packed) { return static_cast<uint32_t>(Packed); }

uint64_t pack(TxnId From, TxnId To) {
  return CommitGraph::packEdge(From, To);
}

/// One source's entries, as the source log walks them.
using EdgeSpan = std::span<const uint64_t>;

/// Base sources (wr, so) are structural so ∪ wr edges; the rest are
/// saturation-inferred.
bool isBaseSource(uint64_t Source) {
  return (Source >> 32) >= detail::SourceLog::Wr;
}

/// Quarantine-retry region bound: above this many order positions the
/// local SCC pass falls back to the greedy one-edge-at-a-time retry.
constexpr size_t SccRetryRegionCap = 4096;

} // namespace

//===----------------------------------------------------------------------===//
// Structure growth.
//===----------------------------------------------------------------------===//

void SaturationState::ensureSizes(const History &H) {
  size_t N = H.numTxns();
  if (Processed.size() < N) {
    Order.addNodes(N - Processed.size());
    Processed.resize(N, 0);
    ReadersOf.resize(N);
    HbQueued.resize(N, 0);
  }
  if (NumSessions < H.numSessions())
    NumSessions = H.numSessions();
  Sources.grow(N, NumSessions);
  if (Level != IsolationLevel::CausalConsistency)
    return;
  if (NumSessions > HbStride) {
    size_t NewStride = 4;
    while (NewStride < NumSessions)
      NewStride *= 2;
    size_t Rows = HbStride ? HbRows.size() / HbStride : 0;
    std::vector<uint32_t> NewRows(Rows * NewStride, 0);
    for (size_t R = 0; R < Rows; ++R)
      std::copy(HbRows.begin() + R * HbStride,
                HbRows.begin() + (R + 1) * HbStride,
                NewRows.begin() + R * NewStride);
    HbRows = std::move(NewRows);
    HbStride = NewStride;
  }
  HbRows.resize(N * HbStride, 0);
}

//===----------------------------------------------------------------------===//
// Edge bookkeeping: refcounted, source-tagged, dynamically ordered.
//===----------------------------------------------------------------------===//

EdgeKind SaturationState::classifyEdge(const History &H, TxnId From,
                                       TxnId To) const {
  if (H.txn(From).Committed && H.soSuccessor(From) == To)
    return EdgeKind::So;
  for (TxnId Writer : H.txn(To).ReadFroms)
    if (Writer == From)
      return EdgeKind::Wr;
  return EdgeKind::Inferred;
}

Violation SaturationState::makeCycleViolation(
    const History &H, TxnId From, TxnId To,
    const std::vector<uint32_t> &Path) const {
  Violation V;
  V.Kind = ViolationKind::CausalityCycle;
  auto Add = [&](TxnId A, TxnId B) {
    EdgeKind Kind = classifyEdge(H, A, B);
    if (Kind == EdgeKind::Inferred)
      V.Kind = ViolationKind::CommitOrderCycle;
    V.Cycle.push_back({A, B, Kind});
  };
  Add(From, To);
  for (size_t I = 0; I + 1 < Path.size(); ++I)
    Add(Path[I], Path[I + 1]);
  return V;
}

bool SaturationState::baseReaches(uint32_t SrcNode, uint32_t DstNode) {
  if (SeenMark.size() < Order.numNodes())
    SeenMark.resize(Order.numNodes(), 0);
  if (++SeenEpoch == 0) {
    std::fill(SeenMark.begin(), SeenMark.end(), 0);
    SeenEpoch = 1;
  }
  std::vector<uint32_t> Stack{SrcNode};
  SeenMark[SrcNode] = SeenEpoch;
  while (!Stack.empty()) {
    uint32_t U = Stack.back();
    Stack.pop_back();
    for (uint32_t W : Order.succs(U)) {
      const EdgeRefs *Refs = Edges.find(pack(U, W));
      if (!Refs || Refs->Base == 0)
        continue;
      if (W == DstNode)
        return true;
      if (SeenMark[W] != SeenEpoch) {
        SeenMark[W] = SeenEpoch;
        Stack.push_back(W);
      }
    }
  }
  return false;
}

void SaturationState::insertLive(const History &H, uint64_t Packed,
                                 bool IsBase, std::vector<Violation> *Out) {
  EdgeRefs &Refs = Edges[Packed];
  bool WasLive = Refs.Base + Refs.Inferred > 0;
  if (IsBase) {
    ++Refs.Base;
  } else {
    if (Refs.Inferred == 0)
      ++InferredDistinct;
    ++Refs.Inferred;
  }
  if (WasLive)
    return;

  uint32_t From = edgeFrom(Packed), To = edgeTo(Packed);
  std::vector<uint32_t> Path;
  while (!Order.addEdge(From, To, &Path)) {
    // The insertion would close a cycle: report it with the extracted
    // path, then keep the order valid by quarantining an edge.
    if (Out)
      Out->push_back(makeCycleViolation(H, From, To, Path));
    if (!IsBase) {
      Quarantined[Packed] = 1;
      return;
    }
    // A base (so/wr) edge. If the cycle exists in so ∪ wr alone this is a
    // causality cycle and happens-before is undefined from here on —
    // exactly the condition under which checkCc stops saturating.
    // Otherwise evict an inferred edge of the path instead so the
    // structural relation stays ordered (it drives HB propagation).
    if (baseReaches(To, From)) {
      BaseCyclic = true;
      Quarantined[Packed] = 1;
      return;
    }
    bool Evicted = false;
    for (size_t I = 0; I + 1 < Path.size() && !Evicted; ++I) {
      uint64_t OnPath = pack(Path[I], Path[I + 1]);
      const EdgeRefs *OnPathRefs = Edges.find(OnPath);
      if (OnPathRefs && OnPathRefs->Base == 0) {
        Order.removeEdge(Path[I], Path[I + 1]);
        Quarantined[OnPath] = 1;
        Evicted = true;
      }
    }
    if (!Evicted) {
      // Unreachable in theory (a non-base cycle has an inferred edge),
      // but never loop forever on a logic error.
      BaseCyclic = true;
      Quarantined[Packed] = 1;
      return;
    }
  }
}

void SaturationState::removeLive(uint64_t Packed, bool IsBase) {
  EdgeRefs *Refs = Edges.find(Packed);
  AWDIT_ASSERT(Refs != nullptr, "removeLive: unknown edge");
  if (IsBase) {
    --Refs->Base;
  } else {
    if (--Refs->Inferred == 0)
      --InferredDistinct;
  }
  if (Refs->Base + Refs->Inferred > 0)
    return;
  Edges.erase(Packed);
  if (!Quarantined.empty() && Quarantined.erase(Packed))
    return;
  Order.removeEdge(edgeFrom(Packed), edgeTo(Packed));
}

void SaturationState::addSourceEdges(const History &H, SourceTag Tag,
                                     uint32_t Id,
                                     const std::vector<uint64_t> &NewEdges,
                                     std::vector<Violation> *Out) {
  if (NewEdges.empty())
    return;
  // Edge insertion is where the Pearce–Kelly order maintenance (and its
  // cycle extraction) runs; metered per source call, not per edge, so the
  // clock reads stay off the per-edge path.
  uint64_t T0 = obs::traceNowNanos();
  Sources.append(Tag, Id, NewEdges, packedShift(EvictedBase));
  bool IsBase = Tag >= SourceTag::Wr;
  for (uint64_t Packed : NewEdges)
    insertLive(H, Packed, IsBase, Out);
  PhaseNs.Pk += obs::traceNowNanos() - T0;
}

void SaturationState::clearSource(SourceTag Tag, uint32_t Id) {
  bool IsBase = Tag >= SourceTag::Wr;
  for (uint64_t GPacked : Sources.entries(Tag, Id))
    if (!deadPacked(GPacked))
      removeLive(localizePacked(GPacked), IsBase);
  Sources.clear(Tag, Id);
}

void SaturationState::retryQuarantined(const History &H) {
  (void)H;
  if (Quarantined.empty())
    return;
  // A source re-run or an eviction may have broken the cycle that forced
  // an edge out of the order; re-verify the quarantined region and bring
  // every edge that is no longer on a cycle back in (quietly — the region
  // was reported when first quarantined).
  std::vector<uint64_t> Snapshot;
  Snapshot.reserve(Quarantined.size());
  Quarantined.forEach([&](uint64_t Packed, uint8_t) {
    Snapshot.push_back(Packed);
  });
  std::sort(Snapshot.begin(), Snapshot.end());

  // Position hull of the quarantined endpoints. Live edges strictly
  // increase order position, so a live path between two hull nodes never
  // leaves the hull — every cycle a quarantined edge could close lies
  // entirely inside this region, and the local subgraph decides
  // re-admission exactly.
  uint32_t Lo = UINT32_MAX, Hi = 0;
  for (uint64_t Packed : Snapshot) {
    for (uint32_t Node : {edgeFrom(Packed), edgeTo(Packed)}) {
      uint32_t P = Order.position(Node);
      Lo = std::min(Lo, P);
      Hi = std::max(Hi, P);
    }
  }
  size_t RegionSize = static_cast<size_t>(Hi) - Lo + 1;
  if (RegionSize > SccRetryRegionCap) {
    // Degenerate hull (quarantined endpoints span most of the window):
    // greedy one-edge-at-a-time retry. Admission order is the sorted
    // snapshot either way, so both paths are deterministic.
    for (uint64_t Packed : Snapshot)
      if (Order.addEdge(edgeFrom(Packed), edgeTo(Packed), nullptr))
        Quarantined.erase(Packed);
    maybeClearBaseCyclic();
    return;
  }

  // Dense region table (position - Lo -> node), one scan of the order.
  std::vector<uint32_t> NodeAt(RegionSize, 0);
  for (uint32_t N = 0; N < static_cast<uint32_t>(Order.numNodes()); ++N) {
    uint32_t P = Order.position(N);
    if (P >= Lo && P <= Hi)
      NodeAt[P - Lo] = N;
  }

  // Local subgraph: the live edges inside the region plus every
  // quarantined edge, condensed with one bounded Tarjan pass.
  std::vector<Digraph::Edge> Local;
  for (size_t I = 0; I < RegionSize; ++I) {
    for (uint32_t W : Order.succs(NodeAt[I])) {
      uint32_t P = Order.position(W);
      if (P >= Lo && P <= Hi)
        Local.emplace_back(static_cast<uint32_t>(I), P - Lo);
    }
  }
  // Dense endpoints captured now: admissions below reorder positions.
  size_t FirstQuarantined = Local.size();
  for (uint64_t Packed : Snapshot)
    Local.emplace_back(Order.position(edgeFrom(Packed)) - Lo,
                       Order.position(edgeTo(Packed)) - Lo);
  SccResult Scc = computeScc(Digraph(RegionSize, Local));

  // Edges between distinct components are jointly cycle-free (the
  // condensation is a DAG): re-admit them all in one pass. Same-component
  // edges stay out — their region is still mutually cyclic.
  for (size_t I = 0; I < Snapshot.size(); ++I) {
    const Digraph::Edge &E = Local[FirstQuarantined + I];
    if (Scc.CompOf[E.first] == Scc.CompOf[E.second])
      continue;
    if (Order.addEdge(edgeFrom(Snapshot[I]), edgeTo(Snapshot[I]), nullptr))
      Quarantined.erase(Snapshot[I]);
  }
  maybeClearBaseCyclic();
}

void SaturationState::maybeClearBaseCyclic() {
  if (!BaseCyclic)
    return;
  bool BaseOut = false;
  Quarantined.forEach([&](uint64_t Packed, uint8_t) {
    const EdgeRefs *Refs = Edges.find(Packed);
    BaseOut |= Refs && Refs->Base > 0;
  });
  if (BaseOut)
    return; // a base edge is still out of the order: still cyclic
  // The so ∪ wr cycle is gone (its edges were evicted or replaced);
  // happens-before is meaningful again, but every persisted row dates
  // from before the cycle — recompute them all once.
  BaseCyclic = false;
  NeedsFullHbRecompute = true;
}

//===----------------------------------------------------------------------===//
// CC incremental pieces: persisted writer index + happens-before rows.
//===----------------------------------------------------------------------===//

void SaturationState::appendWriterEntries(const History &H, TxnId L) {
  const Transaction &T = H.txn(L);
  for (Key X : T.WriteKeys)
    Writers.add(X, T.Session, {L, T.SoIndex});
}

bool SaturationState::recomputeHbRow(const History &H, TxnId L) {
  const Transaction &T = H.txn(L);
  TmpRow.assign(HbStride, 0);
  if (T.SoIndex > 0) {
    TxnId Pred = H.sessionTxns(T.Session)[T.SoIndex - 1];
    const uint32_t *PredRow = &HbRows[static_cast<size_t>(Pred) * HbStride];
    std::copy(PredRow, PredRow + HbStride, TmpRow.begin());
    TmpRow[T.Session] = T.SoIndex; // = SoIndex(Pred) + 1.
  }
  for (TxnId Writer : T.ReadFroms) {
    const Transaction &W = H.txn(Writer);
    const uint32_t *WRow = &HbRows[static_cast<size_t>(Writer) * HbStride];
    for (size_t I = 0; I < HbStride; ++I)
      TmpRow[I] = std::max(TmpRow[I], WRow[I]);
    TmpRow[W.Session] = std::max(TmpRow[W.Session], W.SoIndex + 1);
  }
  uint32_t *Row = &HbRows[static_cast<size_t>(L) * HbStride];
  if (std::equal(Row, Row + HbStride, TmpRow.begin()))
    return false;
  std::copy(TmpRow.begin(), TmpRow.end(), Row);
  return true;
}

void SaturationState::propagateHappensBefore(const History &H,
                                             const std::vector<TxnId> &Ready,
                                             std::vector<TxnId> &ChangedOut) {
  // Worklist keyed by the maintained topological position: every
  // transaction is recomputed after all its so/wr predecessors, so one
  // pass per dirty node reaches the fixpoint. Positions are unique, so the
  // pop order is fully determined; the queued flag keeps a transaction in
  // the heap at most once.
  auto Later = std::greater<std::pair<uint32_t, TxnId>>();
  auto Push = [&](TxnId L) {
    if (!H.txn(L).Committed || HbQueued[L])
      return;
    HbQueued[L] = 1;
    HbHeap.push_back({Order.position(L), L});
    std::push_heap(HbHeap.begin(), HbHeap.end(), Later);
  };
  if (NeedsFullHbRecompute) {
    NeedsFullHbRecompute = false;
    for (TxnId L = 0; L < static_cast<TxnId>(Processed.size()); ++L)
      if (Processed[L])
        Push(L);
  }
  for (TxnId L : Ready)
    Push(L);

  while (!HbHeap.empty()) {
    std::pop_heap(HbHeap.begin(), HbHeap.end(), Later);
    TxnId L = HbHeap.back().second;
    HbHeap.pop_back();
    HbQueued[L] = 0;
    bool RowChanged = recomputeHbRow(H, L);
    bool IsReady = std::binary_search(Ready.begin(), Ready.end(), L);
    if (RowChanged || IsReady)
      ChangedOut.push_back(L);
    if (!RowChanged)
      continue;
    TxnId Succ = H.soSuccessor(L);
    if (Succ != NoTxn && Processed[Succ])
      Push(Succ);
    for (TxnId Reader : ReadersOf[L])
      if (Processed[Reader])
        Push(Reader);
  }
  std::sort(ChangedOut.begin(), ChangedOut.end());
  ChangedOut.erase(std::unique(ChangedOut.begin(), ChangedOut.end()),
                   ChangedOut.end());
}

void SaturationState::runCcReader(const History &H, TxnId L,
                                  std::vector<uint64_t> &EdgesOut) const {
  const Transaction &T = H.txn(L);
  const uint32_t *Row = &HbRows[static_cast<size_t>(L) * HbStride];
  for (uint32_t ReadIdx : T.ExtReads) {
    const ReadInfo &RI = T.Reads[ReadIdx];
    TxnId T1 = RI.Writer;
    const detail::CcWriterIndex::KeyWriters *KW = Writers.find(RI.K);
    if (!KW)
      continue;
    // Algorithm 3 lines 9-15 with the monotone pointer scan replaced by a
    // binary search (the inference is the same: the so-latest writer of
    // the key in each session under the reader's happens-before frontier).
    for (const detail::CcWriterIndex::Slot &Slot : KW->Slots) {
      uint32_t Frontier = Row[Slot.Session];
      if (Frontier == 0)
        continue;
      TxnId T2 = detail::ccFrontierWriter(KW->run(Slot), Frontier);
      if (T2 == NoTxn || T2 == T1)
        continue;
      EdgesOut.push_back(pack(T2, T1));
    }
  }
}

void SaturationState::setReaderWrEdges(const History &H, TxnId L,
                                       std::vector<Violation> *Out) {
  for (uint64_t GPacked : Sources.entries(SourceTag::Wr, L)) {
    if (deadPacked(GPacked))
      continue;
    TxnId Writer = edgeFrom(localizePacked(GPacked));
    std::vector<TxnId> &Readers = ReadersOf[Writer];
    auto RIt = std::find(Readers.begin(), Readers.end(), L);
    if (RIt != Readers.end()) {
      *RIt = Readers.back();
      Readers.pop_back();
    }
  }
  clearSource(SourceTag::Wr, L);
  const Transaction &T = H.txn(L);
  if (T.ReadFroms.empty())
    return;
  std::vector<uint64_t> NewEdges;
  NewEdges.reserve(T.ReadFroms.size());
  for (TxnId Writer : T.ReadFroms) {
    NewEdges.push_back(pack(Writer, L));
    ReadersOf[Writer].push_back(L);
  }
  addSourceEdges(H, SourceTag::Wr, L, NewEdges, Out);
}

//===----------------------------------------------------------------------===//
// The streaming delta pass.
//===----------------------------------------------------------------------===//

void SaturationState::flushDelta(const History &H,
                                 const std::vector<TxnId> &Ready,
                                 std::vector<Violation> &Out) {
  uint64_t DeltaT0 = obs::traceNowNanos();
  {
    AWDIT_SPAN("flush.delta");
    ensureSizes(H);
    retryQuarantined(H);

    // Base-graph delta: the so chain grows at each first-processed
    // commit; a (re-)derived reader replaces its wr contribution.
    for (TxnId L : Ready) {
      const Transaction &T = H.txn(L);
      AWDIT_ASSERT(T.Committed, "flushDelta: ready txn must be committed");
      if (!Processed[L]) {
        Processed[L] = 1;
        if (T.SoIndex > 0) {
          TxnId Pred = H.sessionTxns(T.Session)[T.SoIndex - 1];
          addSourceEdges(H, SourceTag::So, T.Session, {pack(Pred, L)},
                         &Out);
        }
        if (Level == IsolationLevel::CausalConsistency)
          appendWriterEntries(H, L);
      }
      setReaderWrEdges(H, L, &Out);
    }
  }
  uint64_t MergeT0 = obs::traceNowNanos();
  PhaseNs.DeltaBuild += MergeT0 - DeltaT0;
  AWDIT_SPAN("flush.merge");

  switch (Level) {
  case IsolationLevel::ReadCommitted: {
    // Algorithm 1 is per-transaction: re-saturate exactly the delta.
    for (TxnId L : Ready) {
      clearSource(SourceTag::Rc, L);
      std::vector<uint64_t> NewEdges;
      detail::saturateRcRange(H, L, L + 1, RcScratchState,
                              detail::appendPacked(NewEdges));
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, SourceTag::Rc, L, NewEdges, &Out);
    }
    break;
  }
  case IsolationLevel::ReadAtomic: {
    // Algorithm 2 is per-session with state flowing along so: extend each
    // session's saturation from its last processed position; retroactive
    // re-resolution of an already-processed transaction re-runs the
    // session from scratch.
    if (RaStates.size() < H.numSessions())
      RaStates.resize(H.numSessions());
    for (TxnId L : Ready) {
      RaSessionState &St = RaStates[H.txn(L).Session];
      if (H.txn(L).SoIndex < St.NextSo)
        St.NeedsFullRerun = true;
    }
    for (SessionId S = 0; S < H.numSessions(); ++S) {
      RaSessionState &St = RaStates[S];
      if (St.NeedsFullRerun) {
        clearSource(SourceTag::Ra, S);
        St.Scratch.LastWrite.clear();
        St.NextSo = 0;
        St.NeedsFullRerun = false;
      }
      size_t Size = H.sessionTxns(S).size();
      if (St.NextSo >= Size)
        continue;
      std::vector<uint64_t> NewEdges;
      detail::saturateRaSessionRange(H, S, St.NextSo, Size, St.Scratch,
                                     detail::appendPacked(NewEdges));
      St.NextSo = Size;
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, SourceTag::Ra, S, NewEdges, &Out);
    }
    break;
  }
  case IsolationLevel::CausalConsistency: {
    // Algorithm 3's frontier is global, but it only moves where the delta
    // reaches: recompute the happens-before rows of the ready transactions,
    // propagate changes to their so/wr successors to fixpoint, and re-run
    // the per-key inference for exactly the transactions whose frontier
    // (or read set) changed.
    if (BaseCyclic)
      break; // so ∪ wr is cyclic; HB undefined (checkCc stops too).

    std::vector<TxnId> Changed;
    propagateHappensBefore(H, Ready, Changed);
    for (TxnId L : Changed) {
      clearSource(SourceTag::Cc, L);
      if (H.txn(L).ExtReads.empty())
        continue;
      std::vector<uint64_t> NewEdges;
      runCcReader(H, L, NewEdges);
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, SourceTag::Cc, L, NewEdges, &Out);
    }
    break;
  }
  }
  PhaseNs.Merge += obs::traceNowNanos() - MergeT0;
}

void SaturationState::releaseTables() {
  Edges = PackedEdgeMap<EdgeRefs>();
  Sources = detail::SourceLog();
  std::vector<uint32_t>().swap(HbRows);
}

//===----------------------------------------------------------------------===//
// Eviction-aware compaction.
//===----------------------------------------------------------------------===//

void SaturationState::compact(const History &H, TxnId Cut) {
  if (Cut == 0)
    return;
  ensureSizes(H);
  size_t K = H.numSessions();
  size_t OldN = Processed.size();
  size_t NewN = OldN - Cut;

  // Per-session so positions of evicted members, ascending: the shift
  // tables for every persisted so-position-valued fact (happens-before
  // frontiers, writer-list positions, the RA processed frontier).
  std::vector<std::vector<uint32_t>> RemovedPos(K);
  for (SessionId S = 0; S < K; ++S) {
    const std::vector<TxnId> &Sess = H.sessionTxns(S);
    for (size_t SoPos = 0; SoPos < Sess.size(); ++SoPos)
      if (Sess[SoPos] < Cut)
        RemovedPos[S].push_back(static_cast<uint32_t>(SoPos));
  }
  // Number of evicted so positions strictly below \p Value in session S.
  auto RemovedBelow = [&](SessionId S, uint32_t Value) -> uint32_t {
    const std::vector<uint32_t> &R = RemovedPos[S];
    return static_cast<uint32_t>(
        std::lower_bound(R.begin(), R.end(), Value) - R.begin());
  };

  // Happens-before rows: drop the prefix, shift the surviving frontiers.
  if (Level == IsolationLevel::CausalConsistency && HbStride) {
    for (size_t L = Cut; L < OldN; ++L) {
      uint32_t *Src = &HbRows[L * HbStride];
      uint32_t *Dst = &HbRows[(L - Cut) * HbStride];
      for (size_t S = 0; S < HbStride; ++S) {
        uint32_t F = Src[S];
        Dst[S] = (F && S < K)
                     ? F - RemovedBelow(static_cast<SessionId>(S), F)
                     : F;
      }
    }
    HbRows.resize(NewN * HbStride);
  }

  // Writer index: evicted writers vanish; survivors rebase ids and so
  // positions; keys left with no writer lose their id.
  Writers.evict(Cut, RemovedBelow);

  // RA incremental state: scratch entries of evicted writers vanish, the
  // processed frontier shifts by the members removed below it.
  std::vector<std::pair<Key, TxnId>> Survivors;
  for (SessionId S = 0; S < RaStates.size() && S < K; ++S) {
    RaSessionState &St = RaStates[S];
    St.NextSo -= RemovedBelow(S, static_cast<uint32_t>(St.NextSo));
    Survivors.clear();
    St.Scratch.LastWrite.forEach([&](Key X, TxnId T) {
      if (T >= Cut)
        Survivors.emplace_back(X, T - Cut);
    });
    St.Scratch.LastWrite.clear();
    for (const auto &[X, T] : Survivors)
      St.Scratch.LastWrite[X] = T;
  }

  // Source-tagged edges: contributions of evicted units vanish wholesale,
  // and edges crossing the horizon die (anomalies spanning it are no
  // longer detectable — the documented windowed-mode trade-off). The
  // lists are global-coordinate, so surviving per-transaction sources are
  // left byte-for-byte untouched: a dead edge becomes a tombstone the
  // consumers (and the replay below) skip via deadPacked(). Only the
  // long-lived per-session lists are rewritten — RA contributions are
  // pruned in place, and the so chains are rebuilt over the surviving
  // session members so survivors around an evicted middle member get
  // re-linked.
  uint32_t NewBase = EvictedBase + Cut;
  Sources.evict(Cut, [&](uint64_t GPacked) {
    return edgeFrom(GPacked) < NewBase || edgeTo(GPacked) < NewBase;
  });
  for (SessionId S = 0; S < K; ++S) {
    const std::vector<TxnId> &Sess = H.sessionTxns(S);
    std::vector<uint64_t> Chain;
    TxnId Prev = NoTxn;
    for (TxnId Member : Sess) {
      if (Member < Cut)
        continue;
      if (Prev != NoTxn)
        Chain.push_back(pack(Prev - Cut + NewBase, Member - Cut + NewBase));
      Prev = Member;
    }
    Sources.clear(SourceTag::So, S);
    Sources.append(SourceTag::So, S, Chain, 0);
  }
  EvictedBase = NewBase;

  // Quarantined edges between survivors stay quarantined (their region
  // may still be cyclic); the retry at the next flush revisits them.
  PackedEdgeMap<uint8_t> NewQuarantine;
  Quarantined.forEach([&](uint64_t Packed, uint8_t) {
    TxnId From = edgeFrom(Packed), To = edgeTo(Packed);
    if (From >= Cut && To >= Cut)
      NewQuarantine[pack(From - Cut, To - Cut)] = 1;
  });
  Quarantined = std::move(NewQuarantine);

  // Rebuild refcounts, the order, and the reader lists from the filtered
  // sources. Surviving edges preserve their relative order, so re-adding
  // them is forward (O(1) per edge).
  Edges.clear();
  InferredDistinct = 0;
  Order.clearEdgesAndCompact(Cut);
  Processed.erase(Processed.begin(), Processed.begin() + Cut);
  HbQueued.resize(NewN);
  ReadersOf.assign(NewN, {});
  // Replay in source-key order, not an arbitrary one: adjacency-list order
  // steers later witness extraction, and a canonical replay makes the
  // post-compaction order a pure function of the logical edge set —
  // identical between a resumed and an uninterrupted run, and stable
  // between consecutive checkpoints (what keeps their chunks unchanged).
  Sources.forEach(EvictedBase, [&](uint64_t Source, EdgeSpan EdgeList) {
    bool IsBase = isBaseSource(Source);
    for (uint64_t GPacked : EdgeList) {
      if (deadPacked(GPacked))
        continue;
      uint64_t Packed = localizePacked(GPacked);
      EdgeRefs &Refs = Edges[Packed];
      bool WasLive = Refs.Base + Refs.Inferred > 0;
      if (IsBase) {
        ++Refs.Base;
      } else {
        if (Refs.Inferred == 0)
          ++InferredDistinct;
        ++Refs.Inferred;
      }
      if (!WasLive && !Quarantined.count(Packed) &&
          !Order.addEdge(edgeFrom(Packed), edgeTo(Packed), nullptr))
        Quarantined[Packed] = 1; // only possible under a stale base cycle
    }
    if ((Source >> 32) == SourceTag::Wr) { // rebuild reader lists
      TxnId Reader = static_cast<TxnId>(static_cast<uint32_t>(Source) -
                                        EvictedBase);
      for (uint64_t GPacked : EdgeList)
        if (!deadPacked(GPacked))
          ReadersOf[edgeFrom(localizePacked(GPacked))].push_back(Reader);
    }
  });

  // Quarantine entries whose every referencing source was evicted are
  // gone with their references.
  std::vector<uint64_t> Gone;
  Quarantined.forEach([&](uint64_t Packed, uint8_t) {
    if (!Edges.count(Packed))
      Gone.push_back(Packed);
  });
  for (uint64_t Packed : Gone)
    Quarantined.erase(Packed);

  maybeClearBaseCyclic();
}

//===----------------------------------------------------------------------===//
// Checkpoint support: verbatim serialization of the streaming state.
//===----------------------------------------------------------------------===//

void SaturationState::saveState(ByteWriter &W, const StateCoords &C) const {
  // Local→global transforms (see StateCoords in support/serialize.h).
  uint32_t IdBase = C.IdBase;
  auto GT = [&](TxnId T) { return static_cast<TxnId>(T + IdBase); };
  auto GSo = [&](SessionId S, uint32_t So) {
    return S < C.SoBase.size() ? static_cast<uint32_t>(So + C.SoBase[S])
                               : So;
  };
  // Sources are already global-coordinate in memory and written verbatim,
  // so their base and the checkpoint's must agree.
  AWDIT_ASSERT(IdBase == EvictedBase,
               "saveState: checkpoint id base != engine eviction base");

  W.chunk(chunkId(ckchunk::SHdr));
  W.u8(static_cast<uint8_t>(Level));
  W.u64(NumSessions);
  W.boolean(BaseCyclic);
  W.boolean(NeedsFullHbRecompute);

  Order.saveState(W, IdBase, ckchunk::SPos);

  // Source-tagged edge lists, sorted by (global) source key, verbatim:
  // they live in global coordinates and may carry tombstones, and a
  // per-transaction source's bytes never change after creation, so
  // eviction dirties no old chunk. The edge refcount map is not written —
  // it is the filtered refcount image of these lists, so loadState
  // re-derives it instead of paying churned refcount chunks on every
  // retroactive re-derivation.
  W.chunk(chunkId(ckchunk::SSources));
  W.u64(Sources.numSources());
  Sources.forEach(EvictedBase, [&](uint64_t Source, EdgeSpan List) {
    W.chunk(chunkId(ckchunk::SSources,
                    1 + (((Source >> 32) << 28) |
                         (static_cast<uint32_t>(Source) >> 4))));
    W.u64(Source);
    W.u64(List.size());
    for (uint64_t GPacked : List)
      W.u64(GPacked);
  });

  {
    std::vector<uint64_t> Sorted;
    Sorted.reserve(Quarantined.size());
    Quarantined.forEach([&](uint64_t Packed, uint8_t) {
      Sorted.push_back(Packed);
    });
    std::sort(Sorted.begin(), Sorted.end());
    W.chunk(chunkId(ckchunk::SQuar));
    W.u64(Sorted.size());
    for (uint64_t Packed : Sorted)
      W.u64(globalizePacked(Packed));
  }

  W.chunk(chunkId(ckchunk::SProc));
  W.u64(Processed.size());
  for (size_t I = 0; I < Processed.size(); ++I) {
    W.chunk(chunkId(ckchunk::SProc, 1 + ((IdBase + I) >> 8)));
    W.u8(Processed[I]);
  }

  W.chunk(chunkId(ckchunk::SReaders));
  W.u64(ReadersOf.size());
  for (size_t I = 0; I < ReadersOf.size(); ++I) {
    W.chunk(chunkId(ckchunk::SReaders, 1 + ((IdBase + I) >> 4)));
    const std::vector<TxnId> &Readers = ReadersOf[I];
    W.u64(Readers.size());
    for (TxnId R : Readers)
      W.u32(GT(R));
  }

  W.chunk(chunkId(ckchunk::SHb));
  W.u64(HbStride);
  W.u64(HbRows.size());
  if (HbStride == 0 || HbRows.size() % HbStride != 0)
    for (uint32_t V : HbRows) // defensive: not row-shaped, write raw
      W.u32(V);
  else
    for (size_t L = 0; L * HbStride < HbRows.size(); ++L) {
      W.chunk(chunkId(ckchunk::SHb, 1 + ((IdBase + L) >> 4)));
      for (size_t S = 0; S < HbStride; ++S) {
        // Frontier values are so-index+1 counts; 0 means "none" and stays
        // a sentinel, matching the rebase in compact().
        uint32_t F = HbRows[L * HbStride + S];
        W.u32(F ? GSo(static_cast<SessionId>(S), F) : 0);
      }
    }

  // Per-key writer index: sorted by key; slot order (session discovery
  // order) and list order are semantic — verbatim.
  {
    std::vector<uint32_t> ByKey(Writers.numKeys());
    for (uint32_t Id = 0; Id < ByKey.size(); ++Id)
      ByKey[Id] = Id;
    std::sort(ByKey.begin(), ByKey.end(), [&](uint32_t A, uint32_t B) {
      return Writers.keyOf(A) < Writers.keyOf(B);
    });
    W.chunk(chunkId(ckchunk::SWriters));
    W.u64(ByKey.size());
    for (uint32_t Id : ByKey) {
      Key K = Writers.keyOf(Id);
      const detail::CcWriterIndex::KeyWriters &KW = Writers.writers(Id);
      W.chunk(chunkId(ckchunk::SWriters, 1 + (K >> 4)));
      W.u64(K);
      W.u64(KW.Slots.size());
      for (const detail::CcWriterIndex::Slot &Slot : KW.Slots) {
        W.u32(Slot.Session);
        W.u64(Slot.Size);
        for (const detail::CcWriterEntry &E : KW.run(Slot)) {
          W.u32(GT(E.T));
          W.u32(GSo(Slot.Session, E.SoIndex));
        }
      }
    }
  }

  // RA incremental state. The per-transaction halves of the scratch are
  // reset by the kernel before use; only LastWrite and the frontier
  // persist across flushes.
  W.chunk(chunkId(ckchunk::SRa));
  W.u64(RaStates.size());
  for (size_t S = 0; S < RaStates.size(); ++S) {
    const RaSessionState &St = RaStates[S];
    W.chunk(chunkId(ckchunk::SRa, 1 + S));
    W.u64(S < C.SoBase.size() ? St.NextSo + C.SoBase[S] : St.NextSo);
    W.boolean(St.NeedsFullRerun);
    std::vector<std::pair<Key, TxnId>> Sorted;
    Sorted.reserve(St.Scratch.LastWrite.size());
    St.Scratch.LastWrite.forEach(
        [&](Key X, TxnId T) { Sorted.emplace_back(X, T); });
    std::sort(Sorted.begin(), Sorted.end());
    W.u64(Sorted.size());
    for (const auto &[K, T] : Sorted) {
      W.u64(K);
      W.u32(GT(T));
    }
  }
}

bool SaturationState::loadState(ByteReader &R, std::string *Err,
                                const StateCoords &C) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  // Exact inverses of the saveState transforms.
  uint32_t IdBase = C.IdBase;
  auto LT = [&](TxnId T) { return static_cast<TxnId>(T - IdBase); };
  auto LSo = [&](SessionId S, uint32_t So) {
    return S < C.SoBase.size() ? static_cast<uint32_t>(So - C.SoBase[S])
                               : So;
  };

  EvictedBase = IdBase;
  uint8_t SavedLevel = R.u8();
  if (!R.ok())
    return Fail("truncated checkpoint (saturation state)");
  if (SavedLevel != static_cast<uint8_t>(Level))
    return Fail("checkpoint isolation level does not match this monitor");
  NumSessions = R.u64();
  // One engine session per monitor session: the tables below are sized by
  // this count, so it must not exceed the window's.
  if (NumSessions > C.SoBase.size())
    return Fail("corrupted checkpoint (session count)");
  BaseCyclic = R.boolean();
  NeedsFullHbRecompute = R.boolean();

  if (!Order.loadState(R, IdBase))
    return Fail("corrupted checkpoint (topological order)");

  // Source lists: the in-memory (global-coordinate, tombstone-carrying)
  // form verbatim. The tables are indexed by source id, and a
  // per-transaction id is bounded by the processed count, which follows:
  // the lists wait in a staging buffer until it is known.
  struct StagedSource {
    uint64_t Source;
    size_t Begin;
    size_t Len;
  };
  std::vector<StagedSource> Staged;
  std::vector<uint64_t> StagedEdges;
  uint64_t NumSources = R.u64();
  if (!R.checkCount(NumSources, 16))
    return Fail("corrupted checkpoint (source count)");
  Staged.reserve(NumSources);
  for (uint64_t I = 0; I < NumSources && R.ok(); ++I) {
    uint64_t Source = R.u64();
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 8))
      return Fail("corrupted checkpoint (source list)");
    Staged.push_back({Source, StagedEdges.size(), static_cast<size_t>(Len)});
    for (uint64_t J = 0; J < Len; ++J)
      StagedEdges.push_back(R.u64());
  }

  Quarantined.clear();
  uint64_t NumQuarantined = R.u64();
  if (!R.checkCount(NumQuarantined, 8))
    return Fail("corrupted checkpoint (quarantine)");
  for (uint64_t I = 0; I < NumQuarantined; ++I)
    Quarantined[localizePacked(R.u64())] = 1;

  uint64_t NumProcessed = R.u64();
  if (!R.checkCount(NumProcessed, 1))
    return Fail("corrupted checkpoint (processed flags)");
  Processed.resize(NumProcessed);
  for (uint64_t I = 0; I < NumProcessed; ++I)
    Processed[I] = R.u8();
  HbQueued.assign(NumProcessed, 0);
  if (!R.ok())
    return Fail("truncated checkpoint (saturation state)");
  // Ids from here on index tables of NumProcessed entries.
  auto InWindow = [&](uint64_t Packed) {
    return edgeFrom(Packed) < NumProcessed && edgeTo(Packed) < NumProcessed;
  };
  bool QuarantineInWindow = true;
  Quarantined.forEach([&](uint64_t Packed, uint8_t) {
    QuarantineInWindow &= InWindow(Packed);
  });
  if (!QuarantineInWindow)
    return Fail("corrupted checkpoint (quarantine)");

  Sources = detail::SourceLog();
  Sources.grow(NumProcessed, NumSessions);
  for (const StagedSource &St : Staged) {
    uint32_t Tag = static_cast<uint32_t>(St.Source >> 32);
    uint32_t Id = static_cast<uint32_t>(St.Source);
    if (Tag > SourceTag::So)
      return Fail("corrupted checkpoint (source tag)");
    if (detail::SourceLog::isPerTxn(Tag)) {
      if (Id < IdBase || Id - IdBase >= NumProcessed)
        return Fail("corrupted checkpoint (source transaction)");
      Id -= IdBase;
    } else if (Id >= NumSessions) {
      return Fail("corrupted checkpoint (source session)");
    }
    if (!Sources.entries(Tag, Id).empty())
      return Fail("corrupted checkpoint (duplicate source)");
    Sources.append(Tag, Id, EdgeSpan(StagedEdges).subspan(St.Begin, St.Len),
                   0);
  }
  std::vector<StagedSource>().swap(Staged);
  std::vector<uint64_t>().swap(StagedEdges);
  // Derive the refcount map: it is a pure, order-independent refcount
  // image of the filtered lists, so replaying them here reproduces the
  // live engine's map bit-exactly.
  Edges.clear();
  InferredDistinct = 0;
  bool EdgesInWindow = true;
  Sources.forEach(IdBase, [&](uint64_t Source, EdgeSpan List) {
    bool IsBase = isBaseSource(Source);
    for (uint64_t GPacked : List) {
      if (deadPacked(GPacked))
        continue;
      uint64_t Packed = localizePacked(GPacked);
      EdgesInWindow &= InWindow(Packed);
      EdgeRefs &Refs = Edges[Packed];
      if (IsBase) {
        ++Refs.Base;
      } else {
        if (Refs.Inferred == 0)
          ++InferredDistinct;
        ++Refs.Inferred;
      }
    }
  });
  if (!EdgesInWindow)
    return Fail("corrupted checkpoint (source edge)");

  uint64_t NumReaders = R.u64();
  if (!R.checkCount(NumReaders, 8))
    return Fail("corrupted checkpoint (reader lists)");
  ReadersOf.assign(NumReaders, {});
  for (uint64_t I = 0; I < NumReaders && R.ok(); ++I) {
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return Fail("corrupted checkpoint (reader list)");
    ReadersOf[I].resize(Len);
    for (uint64_t J = 0; J < Len; ++J)
      ReadersOf[I][J] = LT(R.u32());
  }

  HbStride = R.u64();
  uint64_t NumHb = R.u64();
  if (!R.checkCount(NumHb, 4))
    return Fail("corrupted checkpoint (happens-before rows)");
  HbRows.resize(NumHb);
  bool RowShaped = HbStride != 0 && NumHb % HbStride == 0;
  for (uint64_t I = 0; I < NumHb; ++I) {
    uint32_t F = R.u32();
    HbRows[I] =
        F && RowShaped ? LSo(static_cast<SessionId>(I % HbStride), F) : F;
  }

  Writers.clear();
  uint64_t NumKeys = R.u64();
  if (!R.checkCount(NumKeys, 16))
    return Fail("corrupted checkpoint (writer index)");
  for (uint64_t I = 0; I < NumKeys && R.ok(); ++I) {
    Key K = R.u64();
    detail::CcWriterIndex::KeyWriters *KW = Writers.addKey(K);
    if (!KW)
      return Fail("corrupted checkpoint (duplicate writer key)");
    uint64_t Slots = R.u64();
    if (!R.checkCount(Slots, 12))
      return Fail("corrupted checkpoint (writer slots)");
    KW->Slots.reserve(Slots);
    for (uint64_t Slot = 0; Slot < Slots && R.ok(); ++Slot) {
      SessionId S = R.u32();
      uint64_t Len = R.u64();
      if (!R.checkCount(Len, 8))
        return Fail("corrupted checkpoint (writer list)");
      // A slot's session indexes the happens-before rows.
      if (S >= NumSessions)
        return Fail("corrupted checkpoint (writer session)");
      uint32_t Begin = static_cast<uint32_t>(KW->Entries.size());
      KW->Slots.push_back({S, Begin, static_cast<uint32_t>(Len),
                           static_cast<uint32_t>(Len)});
      for (uint64_t J = 0; J < Len && R.ok(); ++J) {
        TxnId T = LT(R.u32());
        if (R.ok() && T >= NumProcessed)
          return Fail("corrupted checkpoint (writer transaction)");
        KW->Entries.push_back({T, LSo(S, R.u32())});
      }
    }
  }

  RaStates.clear();
  uint64_t NumRa = R.u64();
  if (!R.checkCount(NumRa, 9))
    return Fail("corrupted checkpoint (RA state)");
  RaStates.resize(NumRa);
  for (uint64_t I = 0; I < NumRa && R.ok(); ++I) {
    RaSessionState &St = RaStates[I];
    St.NextSo = R.u64();
    if (I < C.SoBase.size())
      St.NextSo -= C.SoBase[I];
    St.NeedsFullRerun = R.boolean();
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 12))
      return Fail("corrupted checkpoint (RA last-write)");
    for (uint64_t J = 0; J < Len && R.ok(); ++J) {
      Key K = R.u64();
      TxnId T = LT(R.u32());
      if (R.ok() && T >= NumProcessed)
        return Fail("corrupted checkpoint (RA last-write transaction)");
      St.Scratch.LastWrite[K] = T;
    }
  }

  if (!R.ok())
    return Fail("truncated checkpoint (saturation state)");
  return true;
}

