//===- checker/saturation_state.cpp - Incremental saturation engine --------===//

#include "checker/saturation_state.h"

#include "checker/check_cc.h"
#include "checker/checkpoint_chunks.h"
#include "checker/commit_graph.h"
#include "graph/scc.h"
#include "graph/topo_sort.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/serialize.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace awdit;

namespace {

uint32_t edgeFrom(uint64_t Packed) {
  return static_cast<uint32_t>(Packed >> 32);
}
uint32_t edgeTo(uint64_t Packed) { return static_cast<uint32_t>(Packed); }

uint64_t pack(TxnId From, TxnId To) {
  return CommitGraph::packEdge(From, To);
}

/// Base sources (wr, so) are structural so ∪ wr edges; the rest are
/// saturation-inferred.
bool isBaseSource(uint64_t Source) { return (Source >> 32) >= 3; }

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
    if (EngineMode == Mode::Streaming)
      Order.addNodes(N - Processed.size());
    Processed.resize(N, 0);
    ReadersOf.resize(N);
  }
  if (NumSessions < H.numSessions())
    NumSessions = H.numSessions();
  if (Level != IsolationLevel::CausalConsistency ||
      EngineMode != Mode::Streaming)
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

bool SaturationState::baseReaches(uint32_t SrcNode, uint32_t DstNode) const {
  std::vector<uint32_t> Stack{SrcNode};
  std::unordered_set<uint32_t> Seen{SrcNode};
  while (!Stack.empty()) {
    uint32_t U = Stack.back();
    Stack.pop_back();
    for (uint32_t W : Order.succs(U)) {
      const EdgeRefs *Refs = Edges.find(pack(U, W));
      if (!Refs || Refs->Base == 0)
        continue;
      if (W == DstNode)
        return true;
      if (Seen.insert(W).second)
        Stack.push_back(W);
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
  if (WasLive || EngineMode == Mode::Batch)
    return;

  uint32_t From = edgeFrom(Packed), To = edgeTo(Packed);
  std::vector<uint32_t> Path;
  while (!Order.addEdge(From, To, &Path)) {
    // The insertion would close a cycle: report it with the extracted
    // path, then keep the order valid by quarantining an edge.
    if (Out)
      Out->push_back(makeCycleViolation(H, From, To, Path));
    if (!IsBase) {
      Quarantined.insert(Packed);
      return;
    }
    // A base (so/wr) edge. If the cycle exists in so ∪ wr alone this is a
    // causality cycle and happens-before is undefined from here on —
    // exactly the condition under which the batch CC checker stops
    // saturating. Otherwise evict an inferred edge of the path instead so
    // the structural relation stays ordered (it drives HB propagation).
    if (baseReaches(To, From)) {
      BaseCyclic = true;
      Quarantined.insert(Packed);
      return;
    }
    bool Evicted = false;
    for (size_t I = 0; I + 1 < Path.size() && !Evicted; ++I) {
      uint64_t OnPath = pack(Path[I], Path[I + 1]);
      const EdgeRefs *OnPathRefs = Edges.find(OnPath);
      if (OnPathRefs && OnPathRefs->Base == 0) {
        Order.removeEdge(Path[I], Path[I + 1]);
        Quarantined.insert(OnPath);
        Evicted = true;
      }
    }
    if (!Evicted) {
      // Unreachable in theory (a non-base cycle has an inferred edge),
      // but never loop forever on a logic error.
      BaseCyclic = true;
      Quarantined.insert(Packed);
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
  if (Quarantined.erase(Packed))
    return;
  if (EngineMode == Mode::Streaming)
    Order.removeEdge(edgeFrom(Packed), edgeTo(Packed));
}

void SaturationState::addSourceEdges(const History &H, uint64_t Source,
                                     bool IsBase,
                                     const std::vector<uint64_t> &NewEdges,
                                     std::vector<Violation> *Out) {
  if (NewEdges.empty())
    return;
  // Edge insertion is where the Pearce–Kelly order maintenance (and its
  // cycle extraction) runs; metered per source call, not per edge, so the
  // clock reads stay off the per-edge path.
  uint64_t T0 = EngineMode == Mode::Streaming ? obs::traceNowNanos() : 0;
  std::vector<uint64_t> &List = BySource[globalizeSource(Source)];
  for (uint64_t Packed : NewEdges) {
    List.push_back(globalizePacked(Packed));
    insertLive(H, Packed, IsBase, Out);
  }
  if (EngineMode == Mode::Streaming)
    PhaseNs.Pk += obs::traceNowNanos() - T0;
}

void SaturationState::clearSource(uint64_t Source, bool IsBase) {
  auto It = BySource.find(globalizeSource(Source));
  if (It == BySource.end())
    return;
  for (uint64_t GPacked : It->second)
    if (!deadPacked(GPacked))
      removeLive(localizePacked(GPacked), IsBase);
  BySource.erase(It);
}

void SaturationState::retryQuarantined(const History &H) {
  (void)H;
  if (Quarantined.empty())
    return;
  // A source re-run or an eviction may have broken the cycle that forced
  // an edge out of the order; re-verify the quarantined region and bring
  // every edge that is no longer on a cycle back in (quietly — the region
  // was reported when first quarantined).
  std::vector<uint64_t> Snapshot(Quarantined.begin(), Quarantined.end());
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
  Digraph G(RegionSize);
  for (size_t I = 0; I < RegionSize; ++I) {
    for (uint32_t W : Order.succs(NodeAt[I])) {
      uint32_t P = Order.position(W);
      if (P >= Lo && P <= Hi)
        G.addEdge(static_cast<uint32_t>(I), P - Lo);
    }
  }
  // Dense endpoints captured now: admissions below reorder positions.
  std::vector<std::pair<uint32_t, uint32_t>> Dense;
  Dense.reserve(Snapshot.size());
  for (uint64_t Packed : Snapshot) {
    Dense.emplace_back(Order.position(edgeFrom(Packed)) - Lo,
                       Order.position(edgeTo(Packed)) - Lo);
    G.addEdge(Dense.back().first, Dense.back().second);
  }
  SccResult Scc = computeScc(G);

  // Edges between distinct components are jointly cycle-free (the
  // condensation is a DAG): re-admit them all in one pass. Same-component
  // edges stay out — their region is still mutually cyclic.
  for (size_t I = 0; I < Snapshot.size(); ++I) {
    if (Scc.CompOf[Dense[I].first] == Scc.CompOf[Dense[I].second])
      continue;
    if (Order.addEdge(edgeFrom(Snapshot[I]), edgeTo(Snapshot[I]), nullptr))
      Quarantined.erase(Snapshot[I]);
  }
  maybeClearBaseCyclic();
}

void SaturationState::maybeClearBaseCyclic() {
  if (!BaseCyclic)
    return;
  for (uint64_t Packed : Quarantined) {
    const EdgeRefs *Refs = Edges.find(Packed);
    if (Refs && Refs->Base > 0)
      return; // a base edge is still out of the order: still cyclic
  }
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
  for (Key X : T.WriteKeys) {
    KeyWriters &KW = Writers[X];
    size_t Slot = 0;
    for (; Slot < KW.Sessions.size(); ++Slot)
      if (KW.Sessions[Slot] == T.Session)
        break;
    if (Slot == KW.Sessions.size()) {
      KW.Sessions.push_back(T.Session);
      KW.Lists.emplace_back();
    }
    std::vector<detail::CcWriterEntry> &List = KW.Lists[Slot];
    // Commits of one session arrive in so order, so this is almost always
    // a push_back; a flush processing two commits of one session out of
    // local-id order is the rare exception.
    detail::CcWriterEntry Entry{L, T.SoIndex};
    auto It = std::lower_bound(List.begin(), List.end(), Entry,
                               [](const detail::CcWriterEntry &A,
                                  const detail::CcWriterEntry &B) {
                                 return A.SoIndex < B.SoIndex;
                               });
    List.insert(It, Entry);
  }
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

void SaturationState::speculateCc(const History &H,
                                  const std::vector<TxnId> &Ready,
                                  SpecMap &Spec) {
  // Pre-create every entry: the parallel phase below only const-finds the
  // map (no rehash under concurrent readers) and each worker writes only
  // the values of its own bucket.
  for (TxnId L : Ready)
    Spec.emplace(L, CcSpeculation{});

  // Partition by session: a session's rows chain along so, so one worker
  // owning the whole (so-sorted) chain can speculate straight through it,
  // reading sibling speculative rows instead of invalidating on them.
  std::unordered_map<SessionId, size_t> BucketOf;
  std::vector<std::vector<TxnId>> Buckets;
  for (TxnId L : Ready) {
    auto [It, IsNew] = BucketOf.emplace(H.txn(L).Session, Buckets.size());
    if (IsNew)
      Buckets.emplace_back();
    Buckets[It->second].push_back(L);
  }
  for (std::vector<TxnId> &B : Buckets)
    std::sort(B.begin(), B.end(), [&](TxnId A, TxnId C) {
      return H.txn(A).SoIndex < H.txn(C).SoIndex;
    });

  // The speculation phase proper. The engine is quiescent: HbRows, the
  // writer index, ReadersOf, and H are all read-only until the merge, so
  // workers race with nothing. Results that chained a sibling row record
  // it in BatchInputs; rows taken from the pre-merge snapshot go to
  // ExternalInputs — the merge revalidates both.
  SpecPool->parallelFor(0, Buckets.size(), 1, [&](size_t BLo, size_t BHi) {
    std::unordered_set<TxnId> Computed;
    for (size_t B = BLo; B < BHi; ++B) {
      Computed.clear();
      for (TxnId L : Buckets[B]) {
        CcSpeculation &Sp = Spec.find(L)->second;
        const Transaction &T = H.txn(L);
        Sp.Row.assign(HbStride, 0);
        auto InputRow = [&](TxnId Input) -> const uint32_t * {
          if (Computed.count(Input)) {
            Sp.BatchInputs.push_back(Input);
            return Spec.find(Input)->second.Row.data();
          }
          Sp.ExternalInputs.push_back(Input);
          return &HbRows[static_cast<size_t>(Input) * HbStride];
        };
        if (T.SoIndex > 0) {
          const uint32_t *PredRow =
              InputRow(H.sessionTxns(T.Session)[T.SoIndex - 1]);
          std::copy(PredRow, PredRow + HbStride, Sp.Row.begin());
          Sp.Row[T.Session] = T.SoIndex; // = SoIndex(Pred) + 1.
        }
        for (TxnId Writer : T.ReadFroms) {
          const Transaction &W = H.txn(Writer);
          const uint32_t *WRow = InputRow(Writer);
          for (size_t I = 0; I < HbStride; ++I)
            Sp.Row[I] = std::max(Sp.Row[I], WRow[I]);
          Sp.Row[W.Session] = std::max(Sp.Row[W.Session], W.SoIndex + 1);
        }
        if (!T.ExtReads.empty()) {
          runCcReaderRow(H, L, Sp.Row.data(), Sp.Edges);
          std::sort(Sp.Edges.begin(), Sp.Edges.end());
          Sp.Edges.erase(std::unique(Sp.Edges.begin(), Sp.Edges.end()),
                         Sp.Edges.end());
        }
        Computed.insert(L);
      }
    }
  });
}

bool SaturationState::mergeHbRow(const History &H, TxnId L, SpecMap *Spec) {
  CcSpeculation *Sp = nullptr;
  if (Spec) {
    auto It = Spec->find(L);
    if (It != Spec->end() && !It->second.Row.empty())
      Sp = &It->second;
  }
  if (Sp) {
    // Adopt only when every input the worker read provably still holds
    // its speculated value: snapshot rows unstamped this merge, sibling
    // rows merged to exactly their speculation. Then the speculative row
    // *is* what recomputeHbRow would produce — bit-identical by
    // construction, no comparison of outputs needed.
    bool Valid = true;
    for (TxnId E : Sp->ExternalInputs)
      if (RowEpochs.touchedInCurrentEpoch(E)) {
        Valid = false;
        break;
      }
    if (Valid)
      for (TxnId B : Sp->BatchInputs)
        if (!Spec->find(B)->second.Matched) {
          Valid = false;
          break;
        }
    if (Valid) {
      ++SpecAdoptedRows;
      Sp->Matched = true;
      uint32_t *Row = &HbRows[static_cast<size_t>(L) * HbStride];
      if (std::equal(Row, Row + HbStride, Sp->Row.begin()))
        return false;
      std::copy(Sp->Row.begin(), Sp->Row.end(), Row);
      RowEpochs.touch(L);
      return true;
    }
  }
  bool Changed = recomputeHbRow(H, L);
  if (Changed)
    RowEpochs.touch(L);
  if (Sp) {
    // A re-derived row that lands on the speculated value still validates
    // the chains (and the edge set) built on it.
    ++SpecRecomputedRows;
    const uint32_t *Row = &HbRows[static_cast<size_t>(L) * HbStride];
    Sp->Matched = std::equal(Row, Row + HbStride, Sp->Row.begin());
  }
  return Changed;
}

void SaturationState::propagateHappensBefore(const History &H,
                                             const std::vector<TxnId> &Ready,
                                             std::vector<TxnId> &ChangedOut,
                                             SpecMap *Spec) {
  // Worklist keyed by the maintained topological position: every
  // transaction is recomputed after all its so/wr predecessors, so one
  // pass per dirty node reaches the fixpoint. A node revisited after an
  // input changed revalidates (and usually drops) its speculation.
  std::set<std::pair<uint32_t, TxnId>> Work;
  auto Push = [&](TxnId L) {
    if (H.txn(L).Committed)
      Work.insert({Order.position(L), L});
  };
  if (NeedsFullHbRecompute) {
    NeedsFullHbRecompute = false;
    for (TxnId L = 0; L < static_cast<TxnId>(Processed.size()); ++L)
      if (Processed[L])
        Push(L);
  }
  for (TxnId L : Ready)
    Push(L);

  while (!Work.empty()) {
    TxnId L = Work.begin()->second;
    Work.erase(Work.begin());
    bool RowChanged = mergeHbRow(H, L, Spec);
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
  runCcReaderRow(H, L, &HbRows[static_cast<size_t>(L) * HbStride], EdgesOut);
}

void SaturationState::runCcReaderRow(const History &H, TxnId L,
                                     const uint32_t *Row,
                                     std::vector<uint64_t> &EdgesOut) const {
  const Transaction &T = H.txn(L);
  for (uint32_t ReadIdx : T.ExtReads) {
    const ReadInfo &RI = T.Reads[ReadIdx];
    TxnId T1 = RI.Writer;
    auto WIt = Writers.find(RI.K);
    if (WIt == Writers.end())
      continue;
    const KeyWriters &KW = WIt->second;
    // Algorithm 3 lines 9-15 with the monotone pointer scan replaced by a
    // binary search (the inference is the same: the so-latest writer of
    // the key in each session under the reader's happens-before frontier).
    for (size_t Slot = 0; Slot < KW.Sessions.size(); ++Slot) {
      uint32_t Frontier = Row[KW.Sessions[Slot]];
      if (Frontier == 0)
        continue;
      TxnId T2 = detail::ccFrontierWriter(KW.Lists[Slot], Frontier);
      if (T2 == NoTxn || T2 == T1)
        continue;
      EdgesOut.push_back(pack(T2, T1));
    }
  }
}

void SaturationState::setReaderWrEdges(const History &H, TxnId L,
                                       std::vector<Violation> *Out) {
  uint64_t Source = wrSource(L);
  auto It = BySource.find(globalizeSource(Source));
  if (It != BySource.end()) {
    for (uint64_t GPacked : It->second) {
      if (deadPacked(GPacked))
        continue;
      std::vector<TxnId> &Readers =
          ReadersOf[edgeFrom(localizePacked(GPacked))];
      auto RIt = std::find(Readers.begin(), Readers.end(), L);
      if (RIt != Readers.end()) {
        *RIt = Readers.back();
        Readers.pop_back();
      }
    }
  }
  clearSource(Source, /*IsBase=*/true);
  const Transaction &T = H.txn(L);
  if (T.ReadFroms.empty())
    return;
  std::vector<uint64_t> NewEdges;
  NewEdges.reserve(T.ReadFroms.size());
  for (TxnId Writer : T.ReadFroms) {
    NewEdges.push_back(pack(Writer, L));
    ReadersOf[Writer].push_back(L);
  }
  addSourceEdges(H, Source, /*IsBase=*/true, NewEdges, Out);
}

//===----------------------------------------------------------------------===//
// The streaming delta pass.
//===----------------------------------------------------------------------===//

void SaturationState::flushDelta(const History &H,
                                 const std::vector<TxnId> &Ready,
                                 std::vector<Violation> &Out) {
  AWDIT_ASSERT(EngineMode == Mode::Streaming,
               "flushDelta: batch-mode state takes coldStart/batches");
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
          addSourceEdges(H, soSource(T.Session), /*IsBase=*/true,
                         {pack(Pred, L)}, &Out);
        }
        if (Level == IsolationLevel::CausalConsistency)
          appendWriterEntries(H, L);
      }
      setReaderWrEdges(H, L, &Out);
    }
  }
  uint64_t MergeT0 = obs::traceNowNanos();
  PhaseNs.DeltaBuild += MergeT0 - DeltaT0;
  uint64_t SpecBeforeNs = PhaseNs.Speculate;
  AWDIT_SPAN("flush.merge");

  switch (Level) {
  case IsolationLevel::ReadCommitted: {
    // Algorithm 1 is per-transaction: re-saturate exactly the delta.
    for (TxnId L : Ready) {
      clearSource(rcSource(L), /*IsBase=*/false);
      std::vector<uint64_t> NewEdges;
      detail::saturateRcRange(H, L, L + 1, RcScratchState,
                              [&](TxnId From, TxnId To) {
                                NewEdges.push_back(pack(From, To));
                              });
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, rcSource(L), /*IsBase=*/false, NewEdges, &Out);
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
        clearSource(raSource(S), /*IsBase=*/false);
        St.Scratch.LastWrite.clear();
        St.NextSo = 0;
        St.NeedsFullRerun = false;
      }
      size_t Size = H.sessionTxns(S).size();
      if (St.NextSo >= Size)
        continue;
      std::vector<uint64_t> NewEdges;
      detail::saturateRaSessionRange(H, S, St.NextSo, Size, St.Scratch,
                                     [&](TxnId From, TxnId To) {
                                       NewEdges.push_back(pack(From, To));
                                     });
      St.NextSo = Size;
      std::sort(NewEdges.begin(), NewEdges.end());
      NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                     NewEdges.end());
      addSourceEdges(H, raSource(S), /*IsBase=*/false, NewEdges, &Out);
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
      break; // so ∪ wr is cyclic; HB undefined (the batch checker stops too).

    // Speculation phase: with a pool installed and a worthwhile delta,
    // shard workers pre-compute rows and reader inferences against the
    // pre-merge snapshot. The merge below adopts a result only when its
    // inputs provably did not change, so the observable output is
    // bit-identical to the sequential path at every thread count. A
    // pending full-row recompute dirties far more than Ready — skip.
    RowEpochs.ensureSlots(Processed.size());
    RowEpochs.beginEpoch();
    SpecMap Spec;
    if (SpecPool && !NeedsFullHbRecompute && Ready.size() >= SpecMinBatch) {
      AWDIT_SPAN("flush.speculate");
      uint64_t SpecT0 = obs::traceNowNanos();
      speculateCc(H, Ready, Spec);
      PhaseNs.Speculate += obs::traceNowNanos() - SpecT0;
    }

    std::vector<TxnId> Changed;
    propagateHappensBefore(H, Ready, Changed, Spec.empty() ? nullptr : &Spec);
    for (TxnId L : Changed) {
      clearSource(ccSource(L), /*IsBase=*/false);
      if (H.txn(L).ExtReads.empty())
        continue;
      std::vector<uint64_t> NewEdges;
      CcSpeculation *Sp = nullptr;
      if (!Spec.empty()) {
        auto It = Spec.find(L);
        if (It != Spec.end() && It->second.Matched)
          Sp = &It->second;
      }
      if (Sp) {
        // The row merged to exactly its speculation, so the speculative
        // inference (already sorted and deduplicated) is the sequential
        // result.
        NewEdges = std::move(Sp->Edges);
        ++SpecAdoptedEdgeSets;
      } else {
        runCcReader(H, L, NewEdges);
        std::sort(NewEdges.begin(), NewEdges.end());
        NewEdges.erase(std::unique(NewEdges.begin(), NewEdges.end()),
                       NewEdges.end());
      }
      addSourceEdges(H, ccSource(L), /*IsBase=*/false, NewEdges, &Out);
    }
    break;
  }
  }
  // Speculation ran inside the merge window on this thread; carve it out
  // so the two phases stay disjoint in the breakdown.
  uint64_t MergeNs = obs::traceNowNanos() - MergeT0;
  uint64_t SpecNs = PhaseNs.Speculate - SpecBeforeNs;
  PhaseNs.Merge += MergeNs > SpecNs ? MergeNs - SpecNs : 0;
}

//===----------------------------------------------------------------------===//
// Batch feeds: the one-shot cold start and the parallel shard merge.
//===----------------------------------------------------------------------===//

void SaturationState::coldStart(const History &H) {
  AWDIT_ASSERT(EngineMode == Mode::Batch,
               "coldStart: streaming state takes flushDelta");
  auto Push = [this](TxnId From, TxnId To) {
    BatchEdges.push_back(pack(From, To));
  };
  switch (Level) {
  case IsolationLevel::ReadCommitted: {
    detail::RcScratch Scratch;
    detail::saturateRcRange(H, 0, static_cast<TxnId>(H.numTxns()), Scratch,
                            Push);
    break;
  }
  case IsolationLevel::ReadAtomic: {
    detail::RaScratch Scratch;
    for (SessionId S = 0; S < H.numSessions(); ++S)
      detail::saturateRaSession(H, S, Scratch, Push);
    break;
  }
  case IsolationLevel::CausalConsistency: {
    std::optional<std::vector<uint32_t>> TopoOrder = computeBaseOrder(H);
    if (!TopoOrder)
      break; // so ∪ wr cycle: fails every level, no saturation.
    HappensBefore HB;
    fillHappensBefore(H, *TopoOrder, HB);
    detail::saturateCc(H, HB, Push);
    break;
  }
  }
}

std::optional<std::vector<uint32_t>> SaturationState::computeBaseOrder(
    const History &H) {
  AWDIT_ASSERT(EngineMode == Mode::Batch,
               "computeBaseOrder: batch-mode helper");
  CachedBase.emplace(H);
  std::optional<std::vector<uint32_t>> TopoOrder =
      topologicalSort(CachedBase->graph());
  if (!TopoOrder)
    BaseCyclic = true;
  return TopoOrder;
}

void SaturationState::appendInferredBatch(const uint64_t *NewEdges,
                                          size_t Count) {
  if (Count == 0)
    return;
  size_t Idx = NextStripe.fetch_add(1, std::memory_order_relaxed);
  Stripe &S = Stripes[Idx % NumStripes];
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Buf.insert(S.Buf.end(), NewEdges, NewEdges + Count);
}

bool SaturationState::finalizeAcyclic(const History &H,
                                      std::vector<Violation> &Out,
                                      size_t MaxWitnesses,
                                      SaturationStats *Stats) {
  // One canonical pass over the complete edge set: the commit graph
  // canonicalizes (sorts, deduplicates) the inferred edges, so the result
  // is independent of which path or interleaving collected them — and
  // bit-identical to the historical batch checkers. The CC paths already
  // built the base graph for the topological sort; reuse it.
  std::optional<CommitGraph> Local;
  CommitGraph &Co = CachedBase ? *CachedBase : Local.emplace(H);
  for (uint64_t Packed : BatchEdges)
    Co.inferEdge(edgeFrom(Packed), edgeTo(Packed));
  for (Stripe &S : Stripes) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    for (uint64_t Packed : S.Buf)
      Co.inferEdge(edgeFrom(Packed), edgeTo(Packed));
    S.Buf.clear();
  }
  Edges.forEach([&](uint64_t Packed, const EdgeRefs &Refs) {
    if (Refs.Inferred > 0)
      Co.inferEdge(edgeFrom(Packed), edgeTo(Packed));
  });
  if (Stats) {
    Stats->InferredEdges = Co.numInferredEdges();
    Stats->GraphEdges = Co.numEdges();
  }
  return Co.checkAcyclic(Out, MaxWitnesses);
}

//===----------------------------------------------------------------------===//
// Eviction-aware compaction.
//===----------------------------------------------------------------------===//

void SaturationState::compact(const History &H, TxnId Cut) {
  AWDIT_ASSERT(EngineMode == Mode::Streaming, "compact: streaming only");
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
  // positions.
  for (auto It = Writers.begin(); It != Writers.end();) {
    KeyWriters &KW = It->second;
    size_t KeptSlots = 0;
    for (size_t Slot = 0; Slot < KW.Sessions.size(); ++Slot) {
      SessionId S = KW.Sessions[Slot];
      std::vector<detail::CcWriterEntry> &List = KW.Lists[Slot];
      size_t Kept = 0;
      for (const detail::CcWriterEntry &E : List) {
        if (E.T < Cut)
          continue;
        List[Kept++] = {E.T - Cut, E.SoIndex - RemovedBelow(S, E.SoIndex)};
      }
      List.resize(Kept);
      if (Kept) {
        if (KeptSlots != Slot) {
          KW.Sessions[KeptSlots] = S;
          KW.Lists[KeptSlots] = std::move(List);
        }
        ++KeptSlots;
      }
    }
    KW.Sessions.resize(KeptSlots);
    KW.Lists.resize(KeptSlots);
    It = KeptSlots ? std::next(It) : Writers.erase(It);
  }

  // RA incremental state: scratch entries of evicted writers vanish, the
  // processed frontier shifts by the members removed below it.
  for (SessionId S = 0; S < RaStates.size() && S < K; ++S) {
    RaSessionState &St = RaStates[S];
    St.NextSo -= RemovedBelow(S, static_cast<uint32_t>(St.NextSo));
    for (auto ScIt = St.Scratch.LastWrite.begin();
         ScIt != St.Scratch.LastWrite.end();) {
      if (ScIt->second < Cut) {
        ScIt = St.Scratch.LastWrite.erase(ScIt);
      } else {
        ScIt->second -= Cut;
        ++ScIt;
      }
    }
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
  for (auto It = BySource.begin(); It != BySource.end();) {
    uint64_t Tag = It->first >> 32;
    if (Tag == 4) {
      It = BySource.erase(It); // so chains: rebuilt below.
      continue;
    }
    if (isPerTxnSource(It->first)) {
      It = static_cast<uint32_t>(It->first) < NewBase ? BySource.erase(It)
                                                      : std::next(It);
      continue;
    }
    // Per-session RA lists: prune dead entries, keep global coordinates.
    std::vector<uint64_t> &List = It->second;
    size_t Kept = 0;
    for (uint64_t GPacked : List)
      if (edgeFrom(GPacked) >= NewBase && edgeTo(GPacked) >= NewBase)
        List[Kept++] = GPacked;
    List.resize(Kept);
    It = Kept ? std::next(It) : BySource.erase(It);
  }
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
    if (!Chain.empty())
      BySource.emplace(soSource(S), std::move(Chain));
  }
  EvictedBase = NewBase;

  // Quarantined edges between survivors stay quarantined (their region
  // may still be cyclic); the retry at the next flush revisits them.
  std::unordered_set<uint64_t> NewQuarantine;
  for (uint64_t Packed : Quarantined) {
    TxnId From = edgeFrom(Packed), To = edgeTo(Packed);
    if (From >= Cut && To >= Cut)
      NewQuarantine.insert(pack(From - Cut, To - Cut));
  }
  Quarantined = std::move(NewQuarantine);

  // Rebuild refcounts, the order, and the reader lists from the filtered
  // sources. Surviving edges preserve their relative order, so re-adding
  // them is forward (O(1) per edge).
  Edges.clear();
  InferredDistinct = 0;
  Order.clearEdgesAndCompact(Cut);
  Processed.erase(Processed.begin(), Processed.begin() + Cut);
  RowEpochs.eraseFront(Cut);
  ReadersOf.assign(NewN, {});
  // Replay in sorted source order, not hash-table order: adjacency-list
  // order steers later witness extraction, and a canonical replay makes
  // the post-compaction order a pure function of the logical edge set —
  // identical between a resumed and an uninterrupted run, and stable
  // between consecutive checkpoints (what keeps their chunks unchanged).
  std::vector<uint64_t> ReplayOrder;
  ReplayOrder.reserve(BySource.size());
  for (const auto &[Source, EdgeList] : BySource)
    ReplayOrder.push_back(Source);
  std::sort(ReplayOrder.begin(), ReplayOrder.end());
  for (uint64_t Source : ReplayOrder) {
    const std::vector<uint64_t> &EdgeList = BySource.at(Source);
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
        Quarantined.insert(Packed); // only possible under a stale base cycle
    }
    if ((Source >> 32) == 3) { // wr: rebuild reader lists
      TxnId Reader = static_cast<TxnId>(static_cast<uint32_t>(Source) -
                                        EvictedBase);
      for (uint64_t GPacked : EdgeList)
        if (!deadPacked(GPacked))
          ReadersOf[edgeFrom(localizePacked(GPacked))].push_back(Reader);
    }
  }

  // Quarantine entries whose every referencing source was evicted are
  // gone with their references.
  for (auto It = Quarantined.begin(); It != Quarantined.end();)
    It = Edges.count(*It) ? std::next(It) : Quarantined.erase(It);

  maybeClearBaseCyclic();
}

//===----------------------------------------------------------------------===//
// Checkpoint support: verbatim serialization of the streaming state.
//===----------------------------------------------------------------------===//

void SaturationState::saveState(ByteWriter &W, const StateCoords &C) const {
  AWDIT_ASSERT(EngineMode == Mode::Streaming,
               "saveState: only streaming state checkpoints");
  // Local→global transforms (see StateCoords in support/serialize.h).
  uint32_t IdBase = C.IdBase;
  auto GT = [&](TxnId T) { return static_cast<TxnId>(T + IdBase); };
  auto GSo = [&](SessionId S, uint32_t So) {
    return S < C.SoBase.size() ? static_cast<uint32_t>(So + C.SoBase[S])
                               : So;
  };
  // BySource is already global-coordinate in memory and written verbatim,
  // so its base and the checkpoint's must agree.
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
  {
    std::vector<uint64_t> Sources;
    Sources.reserve(BySource.size());
    for (const auto &[Source, List] : BySource)
      Sources.push_back(Source);
    std::sort(Sources.begin(), Sources.end());
    W.chunk(chunkId(ckchunk::SSources));
    W.u64(Sources.size());
    for (uint64_t Source : Sources) {
      const std::vector<uint64_t> &List = BySource.at(Source);
      W.chunk(chunkId(ckchunk::SSources,
                      1 + (((Source >> 32) << 28) |
                           (static_cast<uint32_t>(Source) >> 4))));
      W.u64(Source);
      W.u64(List.size());
      for (uint64_t GPacked : List)
        W.u64(GPacked);
    }
  }

  {
    std::vector<uint64_t> Sorted(Quarantined.begin(), Quarantined.end());
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
    std::vector<Key> SortedKeys;
    SortedKeys.reserve(Writers.size());
    for (const auto &[K, KW] : Writers)
      SortedKeys.push_back(K);
    std::sort(SortedKeys.begin(), SortedKeys.end());
    W.chunk(chunkId(ckchunk::SWriters));
    W.u64(SortedKeys.size());
    for (Key K : SortedKeys) {
      const KeyWriters &KW = Writers.at(K);
      W.chunk(chunkId(ckchunk::SWriters, 1 + (K >> 4)));
      W.u64(K);
      W.u64(KW.Sessions.size());
      for (size_t Slot = 0; Slot < KW.Sessions.size(); ++Slot) {
        SessionId S = KW.Sessions[Slot];
        W.u32(S);
        const std::vector<detail::CcWriterEntry> &List = KW.Lists[Slot];
        W.u64(List.size());
        for (const detail::CcWriterEntry &E : List) {
          W.u32(GT(E.T));
          W.u32(GSo(S, E.SoIndex));
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
    std::vector<std::pair<Key, TxnId>> Sorted(St.Scratch.LastWrite.begin(),
                                              St.Scratch.LastWrite.end());
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

  if (EngineMode != Mode::Streaming)
    return Fail("checkpoint restore requires a streaming-mode engine");
  EvictedBase = IdBase;
  uint8_t SavedLevel = R.u8();
  if (!R.ok())
    return Fail("truncated checkpoint (saturation state)");
  if (SavedLevel != static_cast<uint8_t>(Level))
    return Fail("checkpoint isolation level does not match this monitor");
  NumSessions = R.u64();
  BaseCyclic = R.boolean();
  NeedsFullHbRecompute = R.boolean();
  // Speculation bookkeeping is transient per-flush state: deliberately
  // absent from checkpoints, reset here.
  RowEpochs.clear();

  if (!Order.loadState(R, IdBase))
    return Fail("corrupted checkpoint (topological order)");

  // Source lists: the in-memory (global-coordinate, tombstone-carrying)
  // form verbatim.
  BySource.clear();
  uint64_t NumSources = R.u64();
  if (!R.checkCount(NumSources, 16))
    return Fail("corrupted checkpoint (source count)");
  for (uint64_t I = 0; I < NumSources && R.ok(); ++I) {
    uint64_t Source = R.u64();
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 8))
      return Fail("corrupted checkpoint (source list)");
    std::vector<uint64_t> List(Len);
    for (uint64_t &GPacked : List)
      GPacked = R.u64();
    BySource.emplace(Source, std::move(List));
  }
  // Derive the refcount map: it is a pure, order-independent refcount
  // image of the filtered lists, so replaying them here reproduces the
  // live engine's map bit-exactly.
  Edges.clear();
  InferredDistinct = 0;
  for (const auto &[Source, List] : BySource) {
    bool IsBase = isBaseSource(Source);
    for (uint64_t GPacked : List) {
      if (deadPacked(GPacked))
        continue;
      EdgeRefs &Refs = Edges[localizePacked(GPacked)];
      if (IsBase) {
        ++Refs.Base;
      } else {
        if (Refs.Inferred == 0)
          ++InferredDistinct;
        ++Refs.Inferred;
      }
    }
  }

  Quarantined.clear();
  uint64_t NumQuarantined = R.u64();
  if (!R.checkCount(NumQuarantined, 8))
    return Fail("corrupted checkpoint (quarantine)");
  for (uint64_t I = 0; I < NumQuarantined; ++I)
    Quarantined.insert(localizePacked(R.u64()));

  uint64_t NumProcessed = R.u64();
  if (!R.checkCount(NumProcessed, 1))
    return Fail("corrupted checkpoint (processed flags)");
  Processed.resize(NumProcessed);
  for (uint64_t I = 0; I < NumProcessed; ++I)
    Processed[I] = R.u8();

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
    KeyWriters &KW = Writers[K];
    uint64_t Slots = R.u64();
    if (!R.checkCount(Slots, 12))
      return Fail("corrupted checkpoint (writer slots)");
    KW.Sessions.resize(Slots);
    KW.Lists.assign(Slots, {});
    for (uint64_t Slot = 0; Slot < Slots && R.ok(); ++Slot) {
      SessionId S = R.u32();
      KW.Sessions[Slot] = S;
      uint64_t Len = R.u64();
      if (!R.checkCount(Len, 8))
        return Fail("corrupted checkpoint (writer list)");
      KW.Lists[Slot].resize(Len);
      for (uint64_t J = 0; J < Len; ++J) {
        KW.Lists[Slot][J].T = LT(R.u32());
        KW.Lists[Slot][J].SoIndex = LSo(S, R.u32());
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
    for (uint64_t J = 0; J < Len; ++J) {
      Key K = R.u64();
      St.Scratch.LastWrite[K] = LT(R.u32());
    }
  }

  if (!R.ok())
    return Fail("truncated checkpoint (saturation state)");
  return true;
}
