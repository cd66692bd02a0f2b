//===- checker/monitor.cpp - Streaming online-checking session -------------===//

#include "checker/monitor.h"

#include "checker/check_ra.h"
#include "checker/checkpoint_chunks.h"
#include "checker/read_consistency.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "support/serialize.h"

#include <algorithm>
#include <chrono>

using namespace awdit;

namespace {

const char *edgeKindName(EdgeKind Kind) {
  switch (Kind) {
  case EdgeKind::So:
    return "so";
  case EdgeKind::Wr:
    return "wr";
  case EdgeKind::Inferred:
    return "co'";
  }
  return "?";
}

} // namespace

Monitor::Monitor(const MonitorOptions &Options, ViolationSink *Sink)
    : Opts(Options), Sink(Sink),
      Saturation(Options.Level, SaturationState::Mode::Streaming) {}

SessionId Monitor::addSession() {
  Live.Sessions.emplace_back();
  SessionSoBase.push_back(0);
  Saturation.addSession();
  return static_cast<SessionId>(Live.Sessions.size() - 1);
}

TxnId Monitor::toLocal(TxnId MonitorId) const {
  AWDIT_ASSERT(MonitorId >= Base &&
                   MonitorId - Base < Live.Txns.size(),
               "Monitor: unknown or evicted transaction id");
  return MonitorId - Base;
}

TxnId Monitor::beginTxn(SessionId S) {
  AWDIT_ASSERT(S < Live.Sessions.size(), "beginTxn: unknown session");
  AWDIT_ASSERT(!Finalized, "beginTxn: monitor already finalized");
  Transaction T;
  T.Session = S;
  // Open transactions are not yet part of T_c: Committed flips on commit().
  T.Committed = false;
  Live.Txns.push_back(std::move(T));
  Meta.push_back(TxnMeta{/*Open=*/true, /*Deferred=*/false,
                         /*Ts=*/CurrentTime});
  TxnId Local = static_cast<TxnId>(Live.Txns.size() - 1);
  OpenTxns.insert(Local);
  ++Stats.IngestedTxns;
  return toMonitorId(Local);
}

void Monitor::read(TxnId T, Key K, Value V) {
  append(T, Operation::read(K, V));
}

bool Monitor::write(TxnId T, Key K, Value V) {
  return append(T, Operation::write(K, V));
}

bool Monitor::append(TxnId T, Operation Op) {
  if (ForceAbortedIds.count(T))
    return true; // the hung transaction was force-aborted; drop quietly
  TxnId L = toLocal(T);
  AWDIT_ASSERT(Meta[L].Open, "append: transaction already closed");
  Keys.insert(Op.K);
  Live.KeyCount = Keys.size();
  if (Op.isWrite()) {
    uint32_t OpIdx = static_cast<uint32_t>(Live.Txns[L].Ops.size());
    if (!Writes.record(Op.K, Op.V, L, OpIdx)) {
      if (ErrText.empty())
        ErrText = duplicateWriteMessage(Op.K, Op.V);
      return false;
    }
    // Retroactive resolution: readers that closed before this write
    // arrived re-derive at the next checking pass.
    auto It = PendingReads.find(KeyValue{Op.K, Op.V});
    if (It != PendingReads.end()) {
      for (auto [Reader, ReadOp] : It->second) {
        (void)ReadOp;
        Dirty.insert(Reader);
        --Stats.UnresolvedReads;
      }
      PendingReads.erase(It);
    }
  }
  Live.Txns[L].Ops.push_back(Op);
  ++Live.TotalOps;
  ++Stats.IngestedOps;
  return true;
}

void Monitor::commit(TxnId T) {
  if (ForceAbortedIds.count(T))
    return; // already aborted by the force-abort policy
  closeTxn(toLocal(T), /*Committed=*/true);
}

void Monitor::abortTxn(TxnId T) {
  if (ForceAbortedIds.count(T))
    return; // already aborted by the force-abort policy
  closeTxn(toLocal(T), /*Committed=*/false);
}

void Monitor::advanceTime(uint64_t Now) {
  if (!HasTime) {
    // First timestamp: everything ingested so far predates the clock, so
    // its lifecycle times are unknown. Anchor them here — otherwise a
    // stream whose ticks start at a large absolute value (epoch millis)
    // would instantly age out, or force-abort, transactions that are
    // seconds old.
    HasTime = true;
    CurrentTime = Now;
    for (TxnMeta &M : Meta)
      M.Ts = Now;
    return;
  }
  if (Now > CurrentTime)
    CurrentTime = Now;
}

void Monitor::closeTxn(TxnId Local, bool Committed) {
  AWDIT_ASSERT(Meta[Local].Open, "closeTxn: transaction already closed");
  Meta[Local].Open = false;
  Meta[Local].Ts = CurrentTime;
  OpenTxns.erase(Local);
  Transaction &Txn = Live.Txns[Local];
  Txn.Committed = Committed;
  if (Committed) {
    std::vector<TxnId> &Sess = Live.Sessions[Txn.Session];
    Txn.SoIndex = static_cast<uint32_t>(Sess.size());
    Sess.push_back(Local);
    ++Live.CommittedCount;
    ++Stats.CommittedTxns;
  }

  // Resolve this transaction's reads and schedule its checking.
  if (!deriveTxn(Local))
    Meta[Local].Deferred = true;
  Dirty.insert(Local);

  // Wake readers that resolved to this transaction while it was open:
  // its commit status is now known.
  auto It = WaitersOnClose.find(Local);
  if (It != WaitersOnClose.end()) {
    for (TxnId Reader : It->second)
      Dirty.insert(Reader);
    WaitersOnClose.erase(It);
  }

  if (Committed && Opts.CheckIntervalTxns &&
      ++CommitsSinceFlush >= Opts.CheckIntervalTxns)
    flush(/*Final=*/false);
}

bool Monitor::deriveTxn(TxnId Local) {
  Transaction &T = Live.Txns[Local];
  T.Reads.clear();

  std::vector<Key> WrittenKeys;
  bool AllWritersClosed = true;
  uint64_t ReaderTag = static_cast<uint64_t>(toMonitorId(Local)) << 32;

  for (uint32_t OpIdx = 0; OpIdx < T.Ops.size(); ++OpIdx) {
    const Operation &Op = T.Ops[OpIdx];
    if (Op.isWrite()) {
      WrittenKeys.push_back(Op.K);
      continue;
    }
    ReadInfo RI{OpIdx, Op.K, Op.V, NoTxn, NoOp};
    bool Masked = EvictedWriterMask.count(ReaderTag | OpIdx) != 0;
    if (!Masked) {
      if (const WriteSite *Site = Writes.find(Op.K, Op.V)) {
        RI.Writer = Site->T;
        RI.WriterOp = Site->Op;
      }
    }
    T.Reads.push_back(RI);

    if (RI.Writer == NoTxn) {
      if (!Masked) {
        // No write site yet: park the read for retroactive resolution.
        std::vector<std::pair<TxnId, uint32_t>> &Waiters =
            PendingReads[KeyValue{Op.K, Op.V}];
        if (std::find(Waiters.begin(), Waiters.end(),
                      std::make_pair(Local, OpIdx)) == Waiters.end()) {
          Waiters.emplace_back(Local, OpIdx);
          ++Stats.UnresolvedReads;
        }
      }
      continue;
    }
    if (RI.Writer == Local)
      continue; // Internal read; never external.
    if (Meta[RI.Writer].Open) {
      // The writer's commit status is unknown; re-derive when it closes.
      AllWritersClosed = false;
      std::vector<TxnId> &Waiters = WaitersOnClose[RI.Writer];
      if (std::find(Waiters.begin(), Waiters.end(), Local) == Waiters.end())
        Waiters.push_back(Local);
    }
  }

  std::sort(WrittenKeys.begin(), WrittenKeys.end());
  WrittenKeys.erase(std::unique(WrittenKeys.begin(), WrittenKeys.end()),
                    WrittenKeys.end());
  T.WriteKeys = std::move(WrittenKeys);
  classifyExternalReads(Local);
  return AllWritersClosed;
}

void Monitor::classifyExternalReads(TxnId Local) {
  Transaction &T = Live.Txns[Local];
  T.ExtReads.clear();
  T.ReadFroms.clear();
  std::vector<TxnId> SeenWriters;
  for (uint32_t ReadIdx = 0; ReadIdx < T.Reads.size(); ++ReadIdx) {
    const ReadInfo &RI = T.Reads[ReadIdx];
    if (RI.Writer == NoTxn || RI.Writer == Local ||
        Meta[RI.Writer].Open || !Live.Txns[RI.Writer].Committed)
      continue;
    T.ExtReads.push_back(ReadIdx);
    if (std::find(SeenWriters.begin(), SeenWriters.end(), RI.Writer) ==
        SeenWriters.end()) {
      SeenWriters.push_back(RI.Writer);
      T.ReadFroms.push_back(RI.Writer);
    }
  }
}

void Monitor::replay(const History &H) {
  while (Live.Sessions.size() < H.numSessions())
    addSession();
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    TxnId M = beginTxn(T.Session);
    for (const Operation &Op : T.Ops)
      append(M, Op);
    if (T.Committed)
      commit(M);
    else
      abortTxn(M);
  }
}

History Monitor::takeHistory() {
  AWDIT_ASSERT(!Finalized, "takeHistory: monitor already finalized");
  AWDIT_ASSERT(Stats.EvictedTxns == 0,
               "takeHistory: window was evicted; the history is partial");
  Finalized = true;
  for (size_t L = 0; L < Meta.size(); ++L)
    AWDIT_ASSERT(!Meta[L].Open, "takeHistory: transaction still open");
  for (TxnId L : Dirty)
    deriveTxn(L);
  Dirty.clear();
  return std::move(Live);
}

bool Monitor::check() {
  flush(/*Final=*/false);
  return !AnyViolation;
}

void Monitor::forceAbortHung() {
  if (!Opts.ForceAbortOpenTicks || !HasTime)
    return;
  std::vector<TxnId> Hung;
  for (TxnId L : OpenTxns)
    if (CurrentTime - Meta[L].Ts >= Opts.ForceAbortOpenTicks)
      Hung.push_back(L);
  for (TxnId L : Hung) {
    // The session may come back and keep using the handle: remember the
    // monitor id forever (one entry per forced abort) so late operations
    // and the eventual commit/abort are dropped instead of touching a
    // closed — possibly already evicted — transaction.
    ForceAbortedIds.insert(toMonitorId(L));
    closeTxn(L, /*Committed=*/false);
    ++Stats.ForcedAborts;
  }
}

void Monitor::flush(bool Final) {
  AWDIT_SPAN("flush");
  uint64_t FlushT0 = obs::traceNowNanos();
  auto FlushStart = std::chrono::steady_clock::now();
  ++Stats.Flushes;
  CommitsSinceFlush = 0;
  forceAbortHung();

  // Re-derive dirty transactions; those with a still-open writer stay
  // dirty until it closes.
  std::vector<TxnId> Ready;
  std::vector<TxnId> DirtyNow(Dirty.begin(), Dirty.end());
  for (TxnId L : DirtyNow) {
    if (Meta[L].Open)
      continue;
    if (!deriveTxn(L)) {
      Meta[L].Deferred = true;
      continue;
    }
    Meta[L].Deferred = false;
    Dirty.erase(L);
    if (Live.Txns[L].Committed)
      Ready.push_back(L);
  }

  std::vector<Violation> Found;

  // Read-level axioms for the affected transactions. Thin-air reads are
  // withheld until the stream ends: the write may simply not have arrived
  // yet (they are tracked in PendingReads meanwhile).
  for (TxnId L : Ready) {
    std::vector<Violation> Tmp;
    checkReadConsistencyRange(Live, L, L + 1, Tmp);
    if (Opts.Level == IsolationLevel::ReadAtomic)
      checkRepeatableReadsRange(Live, L, L + 1, Tmp);
    for (Violation &V : Tmp)
      if (V.Kind != ViolationKind::ThinAirRead)
        Found.push_back(std::move(V));
  }

  // Thin-air reads are never reported here. Without evictions the
  // canonical finalize pass reports them exactly; after evictions an
  // unresolved read is indistinguishable from a read of an evicted write,
  // so it is only counted (UnresolvedReads / EvictedUnresolvedReads) —
  // the windowed-mode completeness trade-off.

  // The incremental saturation pass: only the delta and what it reaches
  // is reprocessed; a cycle is reported the moment its closing edge is
  // inserted into the maintained topological order.
  uint64_t DeltaPreNs = obs::traceNowNanos() - FlushT0;
  Saturation.flushDelta(Live, Ready, Found);

  uint64_t FinalizeT0 = obs::traceNowNanos();
  {
    AWDIT_SPAN("flush.finalize");
    for (Violation &V : Found) {
      translateToMonitorIds(V);
      emitViolation(std::move(V));
    }

    Stats.GraphEdges = Saturation.numGraphEdges();
    Stats.InferredEdges = Saturation.numInferredEdges();
    if (!Final)
      maybeEvict();
    Stats.LiveTxns = Live.numTxns();
  }

  // Phase accounting: the derive + read-level segment above counts toward
  // delta-build, the saturation pass splits itself, the tail is finalize.
  SaturationState::FlushPhaseNanos Ph = Saturation.takeFlushPhaseNanos();
  uint64_t Phases[obs::NumFlushPhases] = {};
  Phases[unsigned(obs::FlushPhase::DeltaBuild)] =
      (DeltaPreNs + Ph.DeltaBuild) / 1000;
  Phases[unsigned(obs::FlushPhase::Speculate)] = Ph.Speculate / 1000;
  Phases[unsigned(obs::FlushPhase::Merge)] = Ph.Merge / 1000;
  Phases[unsigned(obs::FlushPhase::Pk)] = Ph.Pk / 1000;
  Phases[unsigned(obs::FlushPhase::Finalize)] =
      (obs::traceNowNanos() - FinalizeT0) / 1000;
  obs::PipelineMetrics &M = obs::metrics();
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I) {
    M.FlushPhases[I].record(Phases[I]);
    PhaseMicros[I] += Phases[I];
  }
  uint64_t FlushMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - FlushStart)
          .count());
  M.FlushTotal.record(FlushMicros);
  FlushHist.record(FlushMicros);
  Stats.FlushMicros += FlushMicros;
}

void Monitor::translateToMonitorIds(Violation &V) const {
  if (V.T != NoTxn)
    V.T += Base;
  if (V.Other != NoTxn)
    V.Other += Base;
  for (WitnessEdge &E : V.Cycle) {
    E.From += Base;
    E.To += Base;
  }
}

std::string Monitor::fingerprint(const Violation &V) {
  std::string Fp = std::to_string(static_cast<int>(V.Kind)) + "|" +
                   std::to_string(V.T) + "|" + std::to_string(V.OpIndex) +
                   "|" + std::to_string(V.Other);
  for (const WitnessEdge &E : V.Cycle) {
    Fp += "|";
    Fp += std::to_string(E.From) + ">" + std::to_string(E.To) + ":" +
          std::to_string(static_cast<int>(E.Kind));
  }
  return Fp;
}

bool Monitor::emitViolation(Violation V) {
  if (!V.Cycle.empty()) {
    // One report per emerging cyclic region: as the stream grows, a cyclic
    // region can grow and its extracted witness change; re-reporting it
    // every pass would flood the sink.
    for (const WitnessEdge &E : V.Cycle)
      if (ReportedCycleTxns.count(E.From))
        return false;
    for (const WitnessEdge &E : V.Cycle)
      ReportedCycleTxns.insert(E.From);
  }
  if (!ReportedFp.insert(fingerprint(V)).second)
    return false;
  AnyViolation = true;
  ++Stats.ReportedViolations;
  if (Sink)
    Sink->onViolation(V, describe(V));
  if (StreamReported.size() < MaxWindowedReportViolations)
    StreamReported.push_back(std::move(V));
  return true;
}

void Monitor::maybeEvict() {
  size_t LiveTxns = Live.numTxns();
  size_t Target = 0;
  if (Opts.WindowTxns && LiveTxns > Opts.WindowTxns)
    Target = LiveTxns - Opts.WindowTxns;
  if (Opts.WindowEdges && Stats.GraphEdges > Opts.WindowEdges)
    Target = std::max(Target, LiveTxns / 4);
  size_t AgeTarget = 0;
  if (Opts.WindowAgeTicks && HasTime && CurrentTime > Opts.WindowAgeTicks) {
    // Age horizon: the closed prefix whose close timestamps fell out of
    // the window. Bounded by the first open transaction anyway.
    uint64_t Horizon = CurrentTime - Opts.WindowAgeTicks;
    while (AgeTarget < LiveTxns && !Meta[AgeTarget].Open &&
           Meta[AgeTarget].Ts < Horizon)
      ++AgeTarget;
    Target = std::max(Target, AgeTarget);
  }
  if (Target == 0)
    return;

  // Only a prefix of fully processed transactions can leave: stop at the
  // first still-open or still-dirty one.
  size_t Evictable = Dirty.empty() ? LiveTxns
                                   : static_cast<size_t>(*Dirty.begin());
  size_t ClosedPrefix = 0;
  while (ClosedPrefix < Evictable && !Meta[ClosedPrefix].Open)
    ++ClosedPrefix;
  size_t Count = std::min(Target, ClosedPrefix);
  if (Count > 0) {
    Stats.AgeEvictedTxns += std::min(Count, AgeTarget);
    compact(Count);
  }
}

void Monitor::compact(size_t Count) {
  ++Stats.Compactions;
  Stats.EvictedTxns += Count;
  TxnId Cut = static_cast<TxnId>(Count);

  // The saturation engine compacts its persisted state first: it needs
  // the pre-eviction window (session lists, derived reads) to compute the
  // per-session position shifts.
  Saturation.compact(Live, Cut);

  // Window accounting of the evicted prefix.
  for (size_t L = 0; L < Count; ++L) {
    const Transaction &T = Live.Txns[L];
    Live.TotalOps -= T.Ops.size();
    if (T.Committed)
      --Live.CommittedCount;
  }

  // Write index: entries of evicted writers vanish; the rest rebase.
  Writes.remapTxns([Cut](TxnId T) {
    return T < Cut ? NoTxn : static_cast<TxnId>(T - Cut);
  });

  // Pending reads: evicted readers are dropped (counted), others rebase.
  for (auto It = PendingReads.begin(); It != PendingReads.end();) {
    std::vector<std::pair<TxnId, uint32_t>> &Waiters = It->second;
    size_t Kept = 0;
    for (auto &[Reader, OpIdx] : Waiters) {
      if (Reader < Cut) {
        ++Stats.EvictedUnresolvedReads;
        --Stats.UnresolvedReads;
        continue;
      }
      Waiters[Kept++] = {static_cast<TxnId>(Reader - Cut), OpIdx};
    }
    Waiters.resize(Kept);
    It = Waiters.empty() ? PendingReads.erase(It) : std::next(It);
  }

  // Close-waiters: keys are open transactions and thus never evicted.
  {
    std::unordered_map<TxnId, std::vector<TxnId>> NewWaiters;
    for (auto &[Writer, Readers] : WaitersOnClose) {
      AWDIT_ASSERT(Writer >= Cut, "compact: open writer in evicted prefix");
      std::vector<TxnId> Kept;
      for (TxnId R : Readers)
        if (R >= Cut)
          Kept.push_back(R - Cut);
      if (!Kept.empty())
        NewWaiters.emplace(Writer - Cut, std::move(Kept));
    }
    WaitersOnClose = std::move(NewWaiters);
  }

  // Drop the prefix and rebase the survivors' resolved state. Reads whose
  // writer left the window are masked: excluded from checking, never
  // reported as thin-air.
  Live.Txns.erase(Live.Txns.begin(), Live.Txns.begin() + Count);
  Meta.erase(Meta.begin(), Meta.begin() + Count);
  uint64_t NewBase = static_cast<uint64_t>(Base) + Count;
  for (size_t L = 0; L < Live.Txns.size(); ++L) {
    Transaction &T = Live.Txns[L];
    bool Changed = false;
    for (ReadInfo &RI : T.Reads) {
      if (RI.Writer == NoTxn)
        continue;
      if (RI.Writer < Cut) {
        EvictedWriterMask.emplace(
            ((NewBase + L) << 32) | RI.OpIndex,
            (static_cast<uint64_t>(Base + RI.Writer) << 32) | RI.WriterOp);
        RI.Writer = NoTxn;
        RI.WriterOp = NoOp;
        ++Stats.EvictedWriterReads;
        Changed = true;
      } else {
        RI.Writer -= Cut;
      }
    }
    if (!Changed && T.ExtReads.empty())
      continue;
    // Rebuild the derived external-read indices from the rebased reads.
    classifyExternalReads(static_cast<TxnId>(L));
  }

  // Session lists: drop evicted members, rebase the rest, reassign so
  // positions, and remember how many so slots each session lost (labels).
  for (SessionId S = 0; S < Live.Sessions.size(); ++S) {
    std::vector<TxnId> &Sess = Live.Sessions[S];
    size_t Kept = 0, Removed = 0;
    for (size_t Pos = 0; Pos < Sess.size(); ++Pos) {
      TxnId L = Sess[Pos];
      if (L < Cut) {
        ++Removed;
        continue;
      }
      TxnId NewL = L - Cut;
      Live.Txns[NewL].SoIndex = static_cast<uint32_t>(Kept);
      Sess[Kept++] = NewL;
    }
    Sess.resize(Kept);
    SessionSoBase[S] += Removed;
  }

  // Dirty and open transactions are never evicted (the prefix stops at
  // the first); rebase the sets.
  {
    std::set<TxnId> NewDirty;
    for (TxnId L : Dirty) {
      AWDIT_ASSERT(L >= Cut, "compact: dirty transaction in evicted prefix");
      NewDirty.insert(L - Cut);
    }
    Dirty = std::move(NewDirty);
    std::set<TxnId> NewOpen;
    for (TxnId L : OpenTxns) {
      AWDIT_ASSERT(L >= Cut, "compact: open transaction in evicted prefix");
      NewOpen.insert(L - Cut);
    }
    OpenTxns = std::move(NewOpen);
  }

  // Mask entries of evicted readers can never be consulted again.
  for (auto It = EvictedWriterMask.begin();
       It != EvictedWriterMask.end();) {
    if ((It->first >> 32) < NewBase)
      It = EvictedWriterMask.erase(It);
    else
      ++It;
  }

  // Evicted transactions can never join a new cycle (their edges are
  // gone), so their delivery-dedup entries are prunable.
  for (auto It = ReportedCycleTxns.begin();
       It != ReportedCycleTxns.end();) {
    if (*It < NewBase)
      It = ReportedCycleTxns.erase(It);
    else
      ++It;
  }

  // The window's key universe shrank with the evicted operations.
  Keys.clear();
  for (const Transaction &T : Live.Txns)
    for (const Operation &Op : T.Ops)
      Keys.insert(Op.K);
  Live.KeyCount = Keys.size();

  Base = static_cast<TxnId>(NewBase);
}

CheckReport Monitor::finalize() {
  AWDIT_ASSERT(!Finalized, "finalize: called twice");
  Finalized = true;

  // Online semantics: a transaction that never committed did not commit.
  for (size_t L = 0; L < Meta.size(); ++L)
    if (Meta[L].Open)
      closeTxn(static_cast<TxnId>(L), /*Committed=*/false);

  if (Stats.EvictedTxns == 0) {
    // Exact mode: bring every derived index to its final state, then run
    // the canonical one-shot engine over the full ingested history, so the
    // report is bit-identical to checking the replayed history in one shot.
    for (TxnId L : Dirty) {
      bool Derived = deriveTxn(L);
      AWDIT_ASSERT(Derived, "finalize: writer still open after close-all");
      (void)Derived;
    }
    Dirty.clear();
    CheckReport Report = checkIsolation(Live, Opts.Level, Opts.Check);
    // Deliver anything the incremental passes had not yet surfaced.
    // Monitor ids equal history ids here (nothing was evicted).
    for (const Violation &V : Report.Violations)
      emitViolation(V);
    Stats.LiveTxns = Live.numTxns();
    Stats.InferredEdges = Report.Stats.InferredEdges;
    Stats.GraphEdges = Report.Stats.GraphEdges;
    return Report;
  }

  // Windowed mode: one last incremental pass, then aggregate what the
  // stream produced. Completeness is bounded by the window — that is the
  // contract of eviction; in particular thin-air reads are not reported
  // (indistinguishable from reads of evicted writes), only counted in
  // UnresolvedReads / EvictedUnresolvedReads.
  flush(/*Final=*/true);
  CheckReport Report;
  Report.Consistent = !AnyViolation;
  Report.Violations = StreamReported;
  Report.Stats.InferredEdges = Stats.InferredEdges;
  Report.Stats.GraphEdges = Stats.GraphEdges;
  return Report;
}

const MonitorStats &Monitor::stats() {
  Stats.LiveTxns = Live.numTxns();
  Stats.InferredEdges = Saturation.numInferredEdges();
  return Stats;
}

std::string Monitor::txnLabel(TxnId MonitorId) const {
  std::string Label = "t" + std::to_string(MonitorId);
  if (MonitorId < Base)
    return Label + "(evicted)";
  TxnId L = MonitorId - Base;
  if (L >= Live.Txns.size())
    return Label + "(?)";
  const Transaction &T = Live.Txns[L];
  Label += "(s" + std::to_string(T.Session) + "#" +
           std::to_string(SessionSoBase[T.Session] + T.SoIndex);
  if (!T.Committed)
    Label += ",aborted";
  Label += ")";
  return Label;
}

std::string Monitor::describe(const Violation &V) const {
  std::string Out = violationKindName(V.Kind);
  Out += ":";
  if (!V.Cycle.empty()) {
    for (const WitnessEdge &E : V.Cycle) {
      Out += ' ';
      Out += txnLabel(E.From);
      Out += " -";
      Out += edgeKindName(E.Kind);
      Out += "->";
    }
    Out += ' ';
    Out += txnLabel(V.Cycle.front().From);
    return Out;
  }
  if (V.T != NoTxn) {
    Out += " read";
    if (V.T >= Base && V.OpIndex != NoOp) {
      TxnId L = V.T - Base;
      if (L < Live.Txns.size() && V.OpIndex < Live.Txns[L].Ops.size()) {
        const Operation &Op = Live.Txns[L].Ops[V.OpIndex];
        Out +=
            " R(" + std::to_string(Op.K) + "," + std::to_string(Op.V) + ")";
      }
    }
    Out += " in " + txnLabel(V.T);
  }
  if (V.Other != NoTxn)
    Out += " (writer " + txnLabel(V.Other) + ")";
  return Out;
}

//===----------------------------------------------------------------------===//
// Persistent checkpoints: chunked serialization of the monitoring state.
//===----------------------------------------------------------------------===//

namespace {

void saveViolation(ByteWriter &W, const Violation &V) {
  W.u8(static_cast<uint8_t>(V.Kind));
  W.u32(V.T);
  W.u32(V.OpIndex);
  W.u32(V.Other);
  W.u64(V.Cycle.size());
  for (const WitnessEdge &E : V.Cycle) {
    W.u32(E.From);
    W.u32(E.To);
    W.u8(static_cast<uint8_t>(E.Kind));
  }
}

bool loadViolation(ByteReader &R, Violation &V) {
  V.Kind = static_cast<ViolationKind>(R.u8());
  V.T = R.u32();
  V.OpIndex = R.u32();
  V.Other = R.u32();
  uint64_t Len = R.u64();
  if (!R.checkCount(Len, 9))
    return false;
  V.Cycle.resize(Len);
  for (uint64_t I = 0; I < Len; ++I) {
    V.Cycle[I].From = R.u32();
    V.Cycle[I].To = R.u32();
    V.Cycle[I].Kind = static_cast<EdgeKind>(R.u8());
  }
  return R.ok();
}

template <typename Container>
void saveU32Sequence(ByteWriter &W, const Container &C) {
  W.u64(C.size());
  for (uint32_t V : C)
    W.u32(V);
}

} // namespace

void Monitor::saveStateImpl(ByteWriter &W, const StateCoords &C) const {
  AWDIT_ASSERT(!Finalized, "saveState: monitor already finalized");
  // Local→global coordinate transforms; see StateCoords.
  uint32_t IdBase = C.IdBase;
  auto GT = [&](TxnId T) {
    return T == NoTxn ? T : static_cast<TxnId>(T + IdBase);
  };
  auto GSo = [&](SessionId S, uint32_t So) {
    return S < C.SoBase.size() ? static_cast<uint32_t>(So + C.SoBase[S])
                               : So;
  };

  // The live window. Transactions live at global ids [Base, Base+N) in
  // id order, so bucketing by global id makes the chunk covering a given
  // transaction byte-identical until the transaction itself changes.
  W.chunk(chunkId(ckchunk::MTxns));
  W.u64(Live.Txns.size());
  for (size_t I = 0; I < Live.Txns.size(); ++I) {
    const Transaction &T = Live.Txns[I];
    W.chunk(chunkId(ckchunk::MTxns, 1 + ((IdBase + I) >> 4)));
    W.u32(T.Session);
    W.u32(GSo(T.Session, T.SoIndex));
    W.boolean(T.Committed);
    W.u64(T.Ops.size());
    for (const Operation &Op : T.Ops) {
      W.u8(static_cast<uint8_t>(Op.Kind));
      W.u64(Op.K);
      W.i64(Op.V);
    }
    W.u64(T.Reads.size());
    for (const ReadInfo &RI : T.Reads) {
      W.u32(RI.OpIndex);
      W.u64(RI.K);
      W.i64(RI.V);
      // A masked read is written as its original pre-eviction (global
      // writer, op) — the record's bytes never change when the writer is
      // later evicted; the loader re-masks anything below the window base.
      uint32_t WriterOut = GT(RI.Writer);
      uint32_t WriterOpOut = RI.WriterOp;
      if (RI.Writer == NoTxn) {
        auto MIt = EvictedWriterMask.find(
            ((static_cast<uint64_t>(IdBase) + I) << 32) | RI.OpIndex);
        if (MIt != EvictedWriterMask.end()) {
          WriterOut = static_cast<uint32_t>(MIt->second >> 32);
          WriterOpOut = static_cast<uint32_t>(MIt->second);
        }
      }
      W.u32(WriterOut);
      W.u32(WriterOpOut);
    }
    // External-read indices and read-from lists are a pure function of
    // the reads, the mask, and commit metadata (classifyExternalReads):
    // they are derived at load instead of churning chunks every time an
    // evicted writer drops out of them.
    W.u64(T.WriteKeys.size());
    for (Key K : T.WriteKeys)
      W.u64(K);
  }
  W.chunk(chunkId(ckchunk::MSess));
  W.u64(Live.Sessions.size());
  for (size_t S = 0; S < Live.Sessions.size(); ++S) {
    const std::vector<TxnId> &Sess = Live.Sessions[S];
    W.chunk(chunkId(ckchunk::MSess, 1 + (S << 26)));
    W.u64(Sess.size());
    for (TxnId Member : Sess) {
      W.chunk(chunkId(ckchunk::MSess,
                      1 + ((S << 26) | (static_cast<uint64_t>(GT(Member)) >>
                                        8))));
      W.u32(GT(Member));
    }
  }
  W.chunk(chunkId(ckchunk::MMisc));
  W.u64(Live.TotalOps);
  W.u64(Live.CommittedCount);
  // Live.KeyCount is rebuilt with the key universe on load.

  W.u32(Base);
  W.chunk(chunkId(ckchunk::MMeta));
  for (size_t I = 0; I < Meta.size(); ++I) {
    const TxnMeta &TM = Meta[I];
    W.chunk(chunkId(ckchunk::MMeta, 1 + ((IdBase + I) >> 6)));
    W.boolean(TM.Open);
    W.boolean(TM.Deferred);
    W.u64(TM.Ts);
  }

  Saturation.saveState(W, C);

  // wr resolution: the write-site index, sorted by (key, value).
  {
    std::vector<std::pair<KeyValue, WriteSite>> Sorted;
    Sorted.reserve(Writes.size());
    Writes.forEach([&](const KeyValue &KV, const WriteSite &Site) {
      Sorted.emplace_back(KV, Site);
    });
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) {
                return A.first.K != B.first.K ? A.first.K < B.first.K
                                              : A.first.V < B.first.V;
              });
    W.chunk(chunkId(ckchunk::MWrites));
    W.u64(Sorted.size());
    for (const auto &[KV, Site] : Sorted) {
      W.chunk(chunkId(ckchunk::MWrites, 1 + (KV.K >> 4)));
      W.u64(KV.K);
      W.i64(KV.V);
      W.u32(GT(Site.T));
      W.u32(Site.Op);
    }
  }

  // Pending (unresolved) reads, sorted by (key, value); waiter lists
  // verbatim.
  {
    std::vector<const std::pair<const KeyValue,
                                std::vector<std::pair<TxnId, uint32_t>>> *>
        Sorted;
    Sorted.reserve(PendingReads.size());
    for (const auto &Entry : PendingReads)
      Sorted.push_back(&Entry);
    std::sort(Sorted.begin(), Sorted.end(), [](const auto *A, const auto *B) {
      return A->first.K != B->first.K ? A->first.K < B->first.K
                                      : A->first.V < B->first.V;
    });
    W.chunk(chunkId(ckchunk::MPending));
    W.u64(Sorted.size());
    for (const auto *Entry : Sorted) {
      W.chunk(chunkId(ckchunk::MPending, 1 + (Entry->first.K >> 4)));
      W.u64(Entry->first.K);
      W.i64(Entry->first.V);
      W.u64(Entry->second.size());
      for (const auto &[Reader, OpIdx] : Entry->second) {
        W.u32(GT(Reader));
        W.u32(OpIdx);
      }
    }
  }

  // Close-waiters, sorted by writer; reader lists verbatim.
  {
    std::vector<TxnId> Writers;
    Writers.reserve(WaitersOnClose.size());
    for (const auto &[Writer, Readers] : WaitersOnClose)
      Writers.push_back(Writer);
    std::sort(Writers.begin(), Writers.end());
    W.chunk(chunkId(ckchunk::MWaiters));
    W.u64(Writers.size());
    for (TxnId Writer : Writers) {
      W.chunk(chunkId(ckchunk::MWaiters,
                      1 + (static_cast<uint64_t>(GT(Writer)) >> 4)));
      W.u32(GT(Writer));
      const std::vector<TxnId> &Readers = WaitersOnClose.at(Writer);
      W.u64(Readers.size());
      for (TxnId Reader : Readers)
        W.u32(GT(Reader));
    }
  }

  W.chunk(chunkId(ckchunk::MDirty));
  W.u64(Dirty.size());
  for (TxnId T : Dirty)
    W.u32(GT(T));
  W.chunk(chunkId(ckchunk::MOpen));
  W.u64(OpenTxns.size());
  for (TxnId T : OpenTxns)
    W.u32(GT(T));
  {
    std::vector<TxnId> Sorted(ForceAbortedIds.begin(),
                              ForceAbortedIds.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.chunk(chunkId(ckchunk::MForced));
    saveU32Sequence(W, Sorted); // monitor (global) ids: no transform
  }

  W.chunk(chunkId(ckchunk::MSoBase));
  W.u64(SessionSoBase.size());
  for (uint64_t V : SessionSoBase)
    W.u64(V);

  // Exactly-once delivery state: this is what makes a resumed monitor
  // re-emit only the violations a never-stopped run would still emit.
  {
    std::vector<const std::string *> Sorted;
    Sorted.reserve(ReportedFp.size());
    for (const std::string &Fp : ReportedFp)
      Sorted.push_back(&Fp);
    std::sort(Sorted.begin(), Sorted.end(),
              [](const std::string *A, const std::string *B) {
                return *A < *B;
              });
    W.chunk(chunkId(ckchunk::MFp));
    W.u64(Sorted.size());
    for (size_t I = 0; I < Sorted.size(); ++I) {
      W.chunk(chunkId(ckchunk::MFp, 1 + (I >> 5)));
      W.str(*Sorted[I]);
    }
  }
  {
    std::vector<TxnId> Sorted(ReportedCycleTxns.begin(),
                              ReportedCycleTxns.end());
    std::sort(Sorted.begin(), Sorted.end());
    W.chunk(chunkId(ckchunk::MCyc));
    W.u64(Sorted.size());
    for (TxnId T : Sorted) {
      // Monitor (global) ids: no transform.
      W.chunk(chunkId(ckchunk::MCyc, 1 + (static_cast<uint64_t>(T) >> 6)));
      W.u32(T);
    }
  }
  W.chunk(chunkId(ckchunk::MRep));
  W.u64(StreamReported.size());
  for (size_t I = 0; I < StreamReported.size(); ++I) {
    W.chunk(chunkId(ckchunk::MRep, 1 + (I >> 4)));
    saveViolation(W, StreamReported[I]);
  }

  W.chunk(chunkId(ckchunk::MTail));
  W.u64(Stats.IngestedTxns);
  W.u64(Stats.IngestedOps);
  W.u64(Stats.CommittedTxns);
  W.u64(Stats.Flushes);
  W.u64(Stats.ReportedViolations);
  W.u64(Stats.UnresolvedReads);
  W.u64(Stats.EvictedTxns);
  W.u64(Stats.Compactions);
  W.u64(Stats.EvictedUnresolvedReads);
  W.u64(Stats.EvictedWriterReads);
  W.u64(Stats.AgeEvictedTxns);
  W.u64(Stats.ForcedAborts);
  // Stats.FlushMicros is deliberately not serialized: wall-clock timing is
  // host-local, and including it would make the bytes non-canonical for a
  // given logical state.

  W.u64(CommitsSinceFlush);
  W.u64(CurrentTime);
  W.boolean(HasTime);
  W.boolean(AnyViolation);
  W.str(ErrText);
}

bool Monitor::loadStateImpl(ByteReader &R, std::string *Err,
                            const StateCoords &C) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Finalized || !Live.Txns.empty() || !Live.Sessions.empty())
    return Fail("checkpoint restore requires a pristine monitor");

  // Exact inverses of the globalizing transforms in saveStateImpl.
  const uint32_t IdBase = C.IdBase;
  auto LT = [&](TxnId T) {
    return T == NoTxn ? T : static_cast<TxnId>(T - IdBase);
  };
  auto LSo = [&](uint32_t S, uint32_t V) {
    return S < C.SoBase.size() ? static_cast<uint32_t>(V - C.SoBase[S]) : V;
  };

  uint64_t NumTxns = R.u64();
  if (!R.checkCount(NumTxns, 16))
    return Fail("corrupted checkpoint (transaction count)");
  Live.Txns.resize(NumTxns);
  for (uint64_t I = 0; I < NumTxns && R.ok(); ++I) {
    Transaction &T = Live.Txns[I];
    T.Session = R.u32();
    T.SoIndex = LSo(T.Session, R.u32());
    T.Committed = R.boolean();
    uint64_t NumOps = R.u64();
    if (!R.checkCount(NumOps, 17))
      return Fail("corrupted checkpoint (operation count)");
    T.Ops.resize(NumOps);
    for (Operation &Op : T.Ops) {
      Op.Kind = static_cast<OpKind>(R.u8());
      Op.K = R.u64();
      Op.V = R.i64();
    }
    uint64_t NumReads = R.u64();
    if (!R.checkCount(NumReads, 28))
      return Fail("corrupted checkpoint (read count)");
    T.Reads.resize(NumReads);
    for (ReadInfo &RI : T.Reads) {
      RI.OpIndex = R.u32();
      RI.K = R.u64();
      RI.V = R.i64();
      uint32_t GW = R.u32();
      uint32_t WOp = R.u32();
      if (GW != NoTxn && GW < IdBase) {
        // Records keep a masked read's original pre-eviction writer;
        // anything below the window base was evicted, so re-mask it here.
        RI.Writer = NoTxn;
        RI.WriterOp = NoOp;
        EvictedWriterMask.emplace(
            ((static_cast<uint64_t>(IdBase) + I) << 32) | RI.OpIndex,
            (static_cast<uint64_t>(GW) << 32) | WOp);
      } else {
        RI.Writer = LT(GW);
        RI.WriterOp = WOp;
      }
    }
    uint64_t NumWk = R.u64();
    if (!R.checkCount(NumWk, 8))
      return Fail("corrupted checkpoint (write keys)");
    T.WriteKeys.resize(NumWk);
    for (Key &K : T.WriteKeys)
      K = R.u64();
  }

  uint64_t NumSessions = R.u64();
  if (!R.checkCount(NumSessions, 8))
    return Fail("corrupted checkpoint (session count)");
  Live.Sessions.resize(NumSessions);
  for (uint64_t S = 0; S < NumSessions && R.ok(); ++S) {
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return Fail("corrupted checkpoint (session list)");
    Live.Sessions[S].resize(Len);
    for (TxnId &T : Live.Sessions[S])
      T = LT(R.u32());
  }
  Live.TotalOps = R.u64();
  Live.CommittedCount = R.u64();

  Base = R.u32();
  Meta.resize(NumTxns);
  for (TxnMeta &TM : Meta) {
    TM.Open = R.boolean();
    TM.Deferred = R.boolean();
    TM.Ts = R.u64();
  }
  if (!R.ok())
    return Fail("truncated checkpoint (window)");
  // ExtReads/ReadFroms are not serialized: both are pure functions of the
  // reads, open flags, and commit bits, all of which are loaded by now.
  for (uint64_t I = 0; I < NumTxns; ++I)
    classifyExternalReads(static_cast<TxnId>(I));
  if (!Saturation.loadState(R, Err, C))
    return false;

  uint64_t NumWrites = R.u64();
  if (!R.checkCount(NumWrites, 24))
    return Fail("corrupted checkpoint (write index)");
  for (uint64_t I = 0; I < NumWrites; ++I) {
    Key K = R.u64();
    Value V = R.i64();
    TxnId T = LT(R.u32());
    uint32_t Op = R.u32();
    if (R.ok() && !Writes.record(K, V, T, Op))
      return Fail("corrupted checkpoint (duplicate write-site entry)");
  }

  uint64_t NumPending = R.u64();
  if (!R.checkCount(NumPending, 24))
    return Fail("corrupted checkpoint (pending reads)");
  for (uint64_t I = 0; I < NumPending && R.ok(); ++I) {
    Key K = R.u64();
    Value V = R.i64();
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 8))
      return Fail("corrupted checkpoint (pending-read list)");
    std::vector<std::pair<TxnId, uint32_t>> Waiters(Len);
    for (auto &[Reader, OpIdx] : Waiters) {
      Reader = LT(R.u32());
      OpIdx = R.u32();
    }
    PendingReads.emplace(KeyValue{K, V}, std::move(Waiters));
  }

  uint64_t NumWaiters = R.u64();
  if (!R.checkCount(NumWaiters, 12))
    return Fail("corrupted checkpoint (close-waiters)");
  for (uint64_t I = 0; I < NumWaiters && R.ok(); ++I) {
    TxnId Writer = LT(R.u32());
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return Fail("corrupted checkpoint (close-waiter list)");
    std::vector<TxnId> Readers(Len);
    for (TxnId &Reader : Readers)
      Reader = LT(R.u32());
    WaitersOnClose.emplace(Writer, std::move(Readers));
  }

  auto LoadTxnSet = [&](std::set<TxnId> &Set) {
    uint64_t Len = R.u64();
    if (!R.checkCount(Len, 4))
      return false;
    for (uint64_t I = 0; I < Len; ++I)
      Set.insert(LT(R.u32()));
    return true;
  };
  if (!LoadTxnSet(Dirty))
    return Fail("corrupted checkpoint (dirty set)");
  if (!LoadTxnSet(OpenTxns))
    return Fail("corrupted checkpoint (open set)");
  uint64_t NumForced = R.u64();
  if (!R.checkCount(NumForced, 4))
    return Fail("corrupted checkpoint (force-aborted set)");
  for (uint64_t I = 0; I < NumForced; ++I)
    ForceAbortedIds.insert(R.u32());

  uint64_t NumSoBase = R.u64();
  if (!R.checkCount(NumSoBase, 8))
    return Fail("corrupted checkpoint (session bases)");
  SessionSoBase.resize(NumSoBase);
  for (uint64_t &V : SessionSoBase)
    V = R.u64();

  uint64_t NumFp = R.u64();
  if (!R.checkCount(NumFp, 8))
    return Fail("corrupted checkpoint (delivery fingerprints)");
  for (uint64_t I = 0; I < NumFp && R.ok(); ++I)
    ReportedFp.insert(R.str());
  uint64_t NumCycleTxns = R.u64();
  if (!R.checkCount(NumCycleTxns, 4))
    return Fail("corrupted checkpoint (cycle-txn set)");
  for (uint64_t I = 0; I < NumCycleTxns; ++I)
    ReportedCycleTxns.insert(R.u32());
  uint64_t NumReported = R.u64();
  if (!R.checkCount(NumReported, 13))
    return Fail("corrupted checkpoint (reported violations)");
  StreamReported.resize(NumReported);
  for (Violation &V : StreamReported)
    if (!loadViolation(R, V))
      return Fail("corrupted checkpoint (violation record)");

  Stats.IngestedTxns = R.u64();
  Stats.IngestedOps = R.u64();
  Stats.CommittedTxns = R.u64();
  Stats.Flushes = R.u64();
  Stats.ReportedViolations = R.u64();
  Stats.UnresolvedReads = R.u64();
  Stats.EvictedTxns = R.u64();
  Stats.Compactions = R.u64();
  Stats.EvictedUnresolvedReads = R.u64();
  Stats.EvictedWriterReads = R.u64();
  Stats.AgeEvictedTxns = R.u64();
  Stats.ForcedAborts = R.u64();

  CommitsSinceFlush = R.u64();
  CurrentTime = R.u64();
  HasTime = R.boolean();
  AnyViolation = R.boolean();
  ErrText = R.str();

  if (!R.ok())
    return Fail("truncated checkpoint (monitor state)");

  // Derived state not worth serializing: the key universe of the window.
  for (const Transaction &T : Live.Txns)
    for (const Operation &Op : T.Ops)
      Keys.insert(Op.K);
  Live.KeyCount = Keys.size();

  if (Base != IdBase)
    return Fail("inconsistent checkpoint (window base vs. root metadata)");
  if (SessionSoBase != C.SoBase)
    return Fail("inconsistent checkpoint (session bases vs. root metadata)");
  // Structural sanity: counts that must agree for the monitor to be usable.
  if (Meta.size() != Live.Txns.size() ||
      SessionSoBase.size() != Live.Sessions.size())
    return Fail("inconsistent checkpoint (structure mismatch)");
  return true;
}

void Monitor::saveStateChunked(std::string &Bytes,
                               std::vector<ChunkMark> &Marks,
                               uint32_t &IdBase,
                               std::vector<uint64_t> &SoBase) const {
  Bytes.clear();
  Marks.clear();
  IdBase = Base;
  SoBase = SessionSoBase;
  ByteWriter W(Bytes);
  W.enableChunks(&Marks);
  saveStateImpl(W, StateCoords{Base, SessionSoBase});
}

bool Monitor::loadStateChunked(std::string_view Bytes, uint32_t IdBase,
                               const std::vector<uint64_t> &SoBase,
                               std::string *Err) {
  ByteReader R(Bytes);
  if (!loadStateImpl(R, Err, StateCoords{IdBase, SoBase}))
    return false;
  if (R.remaining() != 0) {
    if (Err)
      *Err = "trailing bytes after checkpoint state";
    return false;
  }
  return true;
}
