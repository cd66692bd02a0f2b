//===- server/session_registry.cpp - Per-stream monitor sessions -----------===//

#include "server/session_registry.h"

#include "obs/trace.h"
#include "support/serialize.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

using namespace awdit;
using namespace awdit::server;

uint64_t awdit::server::approxWindowBytes(const MonitorStats &S) {
  // Per-object charges are deliberately round: a live transaction holds
  // its op vector and graph node (~192B), an edge is two indices plus
  // adjacency slack (~48B for inferred, ~32B once saturated into the
  // graph), an unresolved read parks a pending witness (~64B). The quota
  // is a bound on growth, not an allocator audit — what matters is that
  // the estimate is monotone in the window content and identical across
  // runs.
  return S.LiveTxns * 192 + S.InferredEdges * 48 + S.GraphEdges * 32 +
         S.UnresolvedReads * 64;
}

//===----------------------------------------------------------------------===//
// StreamSession
//===----------------------------------------------------------------------===//

StreamSession::StreamSession(std::string Name, std::string Format,
                             MonitorOptions Options, const SessionEnv &Env)
    : Name(std::move(Name)), Format(std::move(Format)),
      Options(std::move(Options)), Env(Env),
      M(this->Options, &ViolationsOut), Ingest(M, this->Format, /*Threads=*/1) {
  touch();
}

void StreamSession::openSink(bool Fresh) {
  if (Env.SinkDir.empty())
    return;
  std::error_code Ec;
  std::filesystem::create_directories(Env.SinkDir, Ec);
  std::string Stem = Env.SinkDir + "/" + sanitizeStreamName(Name);
  if (Fresh) {
    // A reused stream id starts a new record; drop the previous run's
    // summary too so a half-read directory can't pair old and new.
    std::remove((Stem + ".summary.json").c_str());
  }
  SinkFile = std::make_unique<std::ofstream>(
      Stem + ".jsonl", Fresh ? std::ios::trunc : std::ios::app);
}

void StreamSession::Sink::onViolation(const Violation &V,
                                      const std::string &Description) {
  // The durable per-stream record: byte-identical to the lines a
  // standalone `awdit monitor --json` prints for the same stream (no
  // stream tag — the file name is the stream).
  if (S.SinkFile && S.SinkFile->is_open() && !SuppressFile) {
    *S.SinkFile << violationToJson(V, &Description) << "\n";
    S.SinkFile->flush();
  }
  // The push channel: tagged with the stream id so a client multiplexing
  // many sessions can demux.
  S.sendToClient("VIOLATION " + violationToJson(V, &Description, &S.Name));
}

void StreamSession::touch() {
  LastActivitySec.store(steadyNowSec(), std::memory_order_relaxed);
}

StatsSnapshot StreamSession::countersSinceCreation() const {
  return counters().minus(Base);
}

StatsSnapshot StreamSession::counters() const {
  StatsSnapshot Snap;
  Snap.Txns = CTxns.load(std::memory_order_relaxed);
  Snap.Committed = CCommitted.load(std::memory_order_relaxed);
  Snap.Ops = COps.load(std::memory_order_relaxed);
  Snap.LiveTxns = CLive.load(std::memory_order_relaxed);
  Snap.Violations = CViolations.load(std::memory_order_relaxed);
  Snap.Flushes = CFlushes.load(std::memory_order_relaxed);
  Snap.EvictedTxns = CEvicted.load(std::memory_order_relaxed);
  Snap.ForcedAborts = CForced.load(std::memory_order_relaxed);
  Snap.FlushMicros = CFlushMicros.load(std::memory_order_relaxed);
  return Snap;
}

void StreamSession::publishCounters() {
  if (CountersFrozen)
    return;
  const MonitorStats &S = M.stats();
  CTxns.store(S.IngestedTxns, std::memory_order_relaxed);
  CCommitted.store(S.CommittedTxns, std::memory_order_relaxed);
  COps.store(S.IngestedOps, std::memory_order_relaxed);
  CLive.store(S.LiveTxns, std::memory_order_relaxed);
  CViolations.store(S.ReportedViolations, std::memory_order_relaxed);
  CFlushes.store(S.Flushes, std::memory_order_relaxed);
  CEvicted.store(S.EvictedTxns, std::memory_order_relaxed);
  CForced.store(S.ForcedAborts, std::memory_order_relaxed);
  CFlushMicros.store(S.FlushMicros, std::memory_order_relaxed);
  const uint64_t *Ph = M.flushPhaseMicros();
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I)
    CPhaseMicros[I].store(Ph[I], std::memory_order_relaxed);
  WindowBytesApprox.store(approxWindowBytes(S), std::memory_order_relaxed);
  OffsetAtomic.store(Ingest.streamOffset(), std::memory_order_release);
  LineNoAtomic.store(Ingest.lineNumber(), std::memory_order_release);
}

void StreamSession::wedge(const std::string &Reply) {
  PhaseLocal = Phase::Failed;
  PhaseAtomic.store(Phase::Failed, std::memory_order_release);
  sendToClient(Reply);
}

void StreamSession::enforceWindowQuota() {
  uint64_t Quota = WindowQuotaBytes.load(std::memory_order_relaxed);
  if (!Quota || PhaseLocal != Phase::Active)
    return;
  uint64_t Approx = WindowBytesApprox.load(std::memory_order_relaxed);
  if (Approx <= Quota)
    return;
  // Over quota: wedge this stream (further data is dropped, exactly like
  // a parse error) without touching any other tenant.
  QuotaTripsAtomic.fetch_add(1, std::memory_order_relaxed);
  wedge("ERR quota " + Name + " window-bytes: ~" + std::to_string(Approx) +
        " bytes of window state exceeds quota " + std::to_string(Quota) +
        " (raise window-bytes= or tighten window=/window-age=)");
}

void StreamSession::enqueue(Item I, ThreadPool &P) {
  touch();
  if (I.K == Item::Kind::Data)
    InboxBytes.fetch_add(I.Bytes, std::memory_order_relaxed);
  bool Start = false;
  {
    std::lock_guard<std::mutex> L(InboxMu);
    Inbox.push_back(std::move(I));
    if (!Running) {
      Running = true;
      Start = true;
    }
  }
  if (Start)
    P.submit([Self = shared_from_this()] { Self->pump(); });
}

void StreamSession::attachWriter(std::shared_ptr<ResponseWriter> W) {
  std::lock_guard<std::mutex> L(AttachMu);
  Writer = std::move(W);
}

void StreamSession::detachWriter() {
  std::lock_guard<std::mutex> L(AttachMu);
  Writer.reset();
}

void StreamSession::sendToClient(const std::string &Line) {
  std::shared_ptr<ResponseWriter> W;
  {
    std::lock_guard<std::mutex> L(AttachMu);
    W = Writer;
  }
  if (W)
    W->sendLine(Line);
}

std::string StreamSession::taggedJson(const char *Verb,
                                      const std::string &Json) const {
  // Splice the stream id in as the first field of the object.
  std::string Out = Verb;
  Out += " {\"stream\":\"";
  appendJsonEscaped(Out, Name);
  Out += "\",";
  Out += std::string_view(Json).substr(1);
  return Out;
}

void StreamSession::pump() {
  bool Died = false;
  for (;;) {
    Item I;
    {
      std::lock_guard<std::mutex> L(InboxMu);
      if (Inbox.empty()) {
        // Publish the final mirror *before* releasing ownership: once
        // Running is false a successor pump may start on another thread,
        // and it must never overlap these reads of the monitor state.
        publishCounters();
        Running = false;
        break;
      }
      I = std::move(Inbox.front());
      Inbox.pop_front();
    }
    Phase Before = PhaseLocal;
    {
      AWDIT_SPAN("server.pump");
      obs::ScopedLatency Lat(obs::metrics().ServerPump);
      processItem(I);
    }
    if (Before != Phase::Dead && PhaseLocal == Phase::Dead)
      Died = true;
    touch();
  }
  if (Died && OnDead)
    OnDead(*this);
}

void StreamSession::maybeCheckpoint(bool Force) {
  if (Env.CheckpointDir.empty() || PhaseLocal != Phase::Active)
    return;
  uint64_t Flushes = M.flushCount();
  if (!Force && Flushes - LastCkptFlushes < Env.CheckpointIntervalFlushes)
    return;
  CheckpointMeta Meta;
  Meta.Format = Format;
  Meta.Options = Options;
  Meta.StreamOffset = Ingest.streamOffset();
  Meta.LineNo = Ingest.lineNumber();
  Meta.CommittedTxns = Ingest.committedTxns();
  Meta.Flushes = Flushes;
  std::string MachineBlob;
  ByteWriter W(MachineBlob);
  Ingest.machine().saveState(W);
  std::string Err;
  if (!StoreCkpt) {
    StoreCkpt = std::make_unique<StoreCheckpointer>();
    if (!StoreCkpt->open(checkpointStoreDirFor(Env.CheckpointDir, Name),
                         &Err)) {
      std::fprintf(stderr,
                   "warning: stream %s: checkpoint store not opened: %s\n",
                   Name.c_str(), Err.c_str());
      StoreCkpt.reset();
      return;
    }
  }
  if (!StoreCkpt->write(M, MachineBlob, Meta, &Err)) {
    std::fprintf(stderr, "warning: stream %s: checkpoint not written: %s\n",
                 Name.c_str(), Err.c_str());
    return;
  }
  LastCkptFlushes = Flushes;
  ++Checkpoints;
  CheckpointsAtomic.store(Checkpoints, std::memory_order_relaxed);
}

void StreamSession::finalizeSession(bool ToSinkFile, const char *ReplyVerb) {
  ViolationsOut.SuppressFile = !ToSinkFile;
  CheckReport Report = M.finalize();
  const MonitorStats &S = M.stats();
  std::string Summary = monitorSummaryJson(Report, S, Options.Level);
  sendToClient(taggedJson(ReplyVerb, Summary));
  if (ToSinkFile && !Env.SinkDir.empty()) {
    // The end-of-stream summary, as its own (overwritten) file: the sink
    // .jsonl plus this line equal a standalone `awdit monitor --json` run.
    std::ofstream Out(Env.SinkDir + "/" + sanitizeStreamName(Name) +
                      ".summary.json");
    Out << Summary << "\n";
  }
}

void StreamSession::processItem(const Item &I) {
  switch (I.K) {
  case Item::Kind::Data: {
    // A wedged or closed stream drops its data quietly.
    if (PhaseLocal == Phase::Active)
      for (const PageSpan &S : I.Spans)
        if (!Ingest.feedSpan(S)) {
          wedge("ERR " + Name + " " + Ingest.errorText());
          break;
        }
    InboxBytes.fetch_sub(I.Bytes, std::memory_order_relaxed);
    maybeCheckpoint(/*Force=*/false);
    publishCounters();
    enforceWindowQuota();
    return;
  }

  case Item::Kind::Stats: {
    if (PhaseLocal == Phase::Dead)
      return;
    std::string Json = StatsSnapshot::of(M.stats()).toJson();
    if (I.Deep) {
      // Splice the deep section in before the closing brace.
      Json.pop_back();
      Json += ",\"flush_latency\":";
      Json += M.flushLatency().snapshot().percentilesJson();
      Json += ",\"flush_phase_micros\":{";
      for (unsigned P = 0; P < obs::NumFlushPhases; ++P) {
        if (P)
          Json += ',';
        Json += '"';
        Json += obs::flushPhaseName(static_cast<obs::FlushPhase>(P));
        Json += "\":";
        Json += std::to_string(M.flushPhaseMicros()[P]);
      }
      Json += "}}";
    }
    sendToClient(taggedJson("STATS", Json));
    return;
  }

  case Item::Kind::Detach: {
    if (PhaseLocal == Phase::Dead)
      return;
    // Capture the latest lines so an idle-evicted or killed server can
    // still resume this tenant from its detach point.
    maybeCheckpoint(/*Force=*/true);
    // Clear the attachment *before* replying: the moment the client reads
    // the acknowledgement it may re-HELLO, and that must not race the
    // registry's attached() check.
    std::shared_ptr<ResponseWriter> W;
    {
      std::lock_guard<std::mutex> L(AttachMu);
      W = std::move(Writer);
      Writer.reset();
    }
    if (W && !I.Quiet)
      W->sendLine("OK detached " + Name);
    return;
  }

  case Item::Kind::End: {
    if (PhaseLocal == Phase::Dead)
      return;
    if (PhaseLocal == Phase::Active) {
      std::string Err;
      if (!Ingest.machine().atEnd(&Err))
        wedge("ERR " + Name + ": " + Err);
    }
    // Finalize and report even for a wedged stream: what was ingested was
    // still checked (the standalone CLI does the same on a parse error).
    finalizeSession(/*ToSinkFile=*/true, "FINAL");
    if (!Env.CheckpointDir.empty()) {
      // The stream is complete; its checkpoint would only resurrect it.
      StoreCkpt.reset(); // unmap before unlinking
      std::string StoreDir = checkpointStoreDirFor(Env.CheckpointDir, Name);
      if (StoreCheckpointer::isStoreDir(StoreDir)) {
        std::string Err;
        if (!removeStoreDir(StoreDir, &Err))
          std::fprintf(stderr, "warning: stream %s: %s\n", Name.c_str(),
                       Err.c_str());
      }
    }
    sendToClient("BYE");
    detachWriter();
    RetireReason = Retire::Ended;
    PhaseLocal = Phase::Dead;
    // Mirror the finalize-pass counters *before* the Dead store: the
    // registry folds a session's atomics into its retired totals the
    // moment it observes the phase, and must not fold a stale view.
    publishCounters();
    PhaseAtomic.store(Phase::Dead, std::memory_order_release);
    return;
  }

  case Item::Kind::Evict:
    if (PhaseLocal == Phase::Dead)
      return;
    maybeCheckpoint(/*Force=*/true);
    RetireReason = Retire::Evicted;
    PhaseLocal = Phase::Dead;
    publishCounters();
    PhaseAtomic.store(Phase::Dead, std::memory_order_release);
    return;

  case Item::Kind::Drain:
    if (PhaseLocal == Phase::Dead)
      return;
    if (PhaseLocal == Phase::Active) {
      // Checkpoint first: the snapshot is the resumable state. The
      // finalize after it is a courtesy report for the attached client —
      // its extra end-of-stream violations stay out of the durable JSONL
      // sink, which a resumed session must continue exactly-once.
      maybeCheckpoint(/*Force=*/true);
      sendToClient("DRAINING " + Name +
                   " offset=" + std::to_string(Ingest.streamOffset()));
    }
    // Freeze the metrics mirror at the checkpointed state: the courtesy
    // finalize's extra violations are in neither the durable record nor
    // the resumed run's baseline, so they must not be folded either.
    publishCounters();
    CountersFrozen = true;
    finalizeSession(/*ToSinkFile=*/false, "FINAL");
    sendToClient("BYE");
    detachWriter();
    RetireReason = Retire::Drained;
    PhaseLocal = Phase::Dead;
    PhaseAtomic.store(Phase::Dead, std::memory_order_release);
    return;
  }
}

//===----------------------------------------------------------------------===//
// SessionRegistry
//===----------------------------------------------------------------------===//

namespace {

/// Truncates a resumed stream's JSONL sink to the first \p Lines lines —
/// the violations the restored checkpoint knows it delivered. Anything
/// after that was appended between the checkpoint and a non-graceful
/// death, and the resumed session will re-detect and re-append it; without
/// the truncation those lines would duplicate. A file already at (or
/// below) the expected length is left untouched.
void reconcileSinkFile(const std::string &Path, uint64_t Lines) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return;
  // Every kept line was written by the sink with a trailing '\n', so the
  // byte offset of line N is just the running sum — no buffering of the
  // (possibly huge) prefix needed.
  std::string Line;
  uint64_t N = 0;
  uint64_t KeepBytes = 0;
  while (N < Lines && std::getline(In, Line)) {
    KeepBytes += Line.size() + 1;
    ++N;
  }
  bool Extra = N == Lines && In.peek() != std::ifstream::traits_type::eof();
  In.close();
  if (!Extra)
    return;
  std::error_code Ec;
  std::filesystem::resize_file(Path, KeepBytes, Ec);
  if (Ec)
    std::fprintf(stderr, "warning: cannot reconcile sink '%s': %s\n",
                 Path.c_str(), Ec.message().c_str());
}

} // namespace

SessionRegistry::HelloResult
SessionRegistry::hello(const HelloRequest &Req,
                       std::shared_ptr<ResponseWriter> Writer) {
  HelloResult R;
  std::shared_ptr<StreamSession> S;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Sessions.find(Req.Stream);
    if (It != Sessions.end()) {
      if (It->second->phase() == StreamSession::Phase::Dead) {
        fold(*It->second);
        Sessions.erase(It);
      } else {
        S = It->second;
      }
    }
  }

  if (S) {
    if (S->retiring()) {
      R.Err = "stream '" + Req.Stream + "' is being evicted; retry";
      return R;
    }
    if (S->attached()) {
      R.Err = "stream '" + Req.Stream + "' already has an attached client";
      return R;
    }
    if (!checkCompatible(Req, S->format(), S->options(), &R.Err))
      return R;
    applyQuotas(*S, Req);
    S->attachWriter(std::move(Writer));
    S->touch();
    R.Session = S;
    R.Status = "attached";
    R.Offset = S->streamOffset();
    R.LineNo = S->lineNo();
    return R;
  }

  // No live session. Only the event-loop thread creates sessions, so no
  // other creator can race this unlocked section; resume from the
  // per-stream checkpoint store when one exists.
  std::string CkptPath;
  std::unique_ptr<StoreCheckpointer> ResumeStore;
  // A store that cannot be resumed refuses the HELLO and is counted; a
  // HELLO whose options do not match a readable store is not.
  auto ResumeFailed = [&](std::string Msg) {
    R.Err = std::move(Msg);
    std::lock_guard<std::mutex> L(Mu);
    ++ResumeFailures;
    return R;
  };
  if (!Env.CheckpointDir.empty()) {
    CkptPath = checkpointStoreDirFor(Env.CheckpointDir, Req.Stream);
    if (StoreCheckpointer::isStoreDir(CkptPath)) {
      ResumeStore = std::make_unique<StoreCheckpointer>();
      std::string Err;
      if (!ResumeStore->open(CkptPath, &Err))
        return ResumeFailed("checkpoint store " + CkptPath + ": " + Err);
      // A store directory with no committed root (a crash before the first
      // checkpoint) has nothing to resume from.
      if (!ResumeStore->hasCheckpoint())
        ResumeStore.reset();
    }
  }

  if (ResumeStore) {
    CheckpointMeta Meta;
    std::string Err;
    if (!ResumeStore->readMeta(Meta, &Err))
      return ResumeFailed("checkpoint " + CkptPath + ": " + Err);
    if (!checkCompatible(Req, Meta.Format, Meta.Options, &R.Err))
      return R;
    S = std::make_shared<StreamSession>(Req.Stream, Meta.Format,
                                        Meta.Options, Env);
    // Before any dereference: a checkpoint with an unknown format name
    // (foreign writer, hand-edited but checksum-valid) must be an ERR,
    // not a null-machine crash.
    if (!S->Ingest.valid())
      return ResumeFailed("checkpoint " + CkptPath + ": unknown format '" +
                          Meta.Format + "'");
    std::string MachineState;
    if (!ResumeStore->restore(S->M, MachineState, &Err))
      return ResumeFailed("checkpoint " + CkptPath + ": " + Err);
    ByteReader MR(MachineState);
    if (!S->Ingest.machine().loadState(MR))
      return ResumeFailed("checkpoint " + CkptPath +
                          ": corrupted parser state");
    S->Ingest.primeResume(Meta.StreamOffset, Meta.LineNo);
    // Keep committing into the store just restored from.
    S->StoreCkpt = std::move(ResumeStore);
    S->LastCkptFlushes = Meta.Flushes;
    R.Status = "resumed";
  } else {
    S = std::make_shared<StreamSession>(Req.Stream, Req.Format, Req.Options,
                                        Env);
    R.Status = "new";
    if (!S->Ingest.valid()) {
      R.Err = "unknown format '" + Req.Format + "'";
      return R;
    }
  }

  S->OnDead = [this](StreamSession &Dead) { onSessionDead(Dead); };
  applyQuotas(*S, Req);
  S->publishCounters();
  if (R.Status == "resumed") {
    // The aggregate totals count this process's work only; the restored
    // cumulative counters become the session's base (also cancels the
    // fold of an idle-evicted tenant that comes back in-process).
    S->Base = S->counters();
    if (!Env.SinkDir.empty())
      reconcileSinkFile(Env.SinkDir + "/" + sanitizeStreamName(Req.Stream) +
                            ".jsonl",
                        S->M.stats().ReportedViolations);
  }
  S->openSink(/*Fresh=*/R.Status != "resumed");
  S->attachWriter(std::move(Writer));
  S->touch();
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Created;
    if (R.Status == "resumed")
      ++Resumed;
    Sessions[Req.Stream] = S;
  }
  R.Session = S;
  R.Offset = S->streamOffset();
  R.LineNo = S->lineNo();
  return R;
}

void SessionRegistry::applyQuotas(StreamSession &S,
                                  const HelloRequest &Req) const {
  S.InboxQuotaBytes = Req.InboxBytes
                          ? std::min<size_t>(Req.InboxBytes, Env.MaxInboxBytes)
                          : Env.MaxInboxBytes;
  uint64_t Window = Req.WindowBytes ? Req.WindowBytes : Env.MaxWindowBytes;
  if (Env.MaxWindowBytes)
    Window = Window ? std::min(Window, Env.MaxWindowBytes)
                    : Env.MaxWindowBytes;
  S.WindowQuotaBytes.store(Window, std::memory_order_relaxed);
}

void SessionRegistry::fold(StreamSession &S) {
  StatsSnapshot Last = S.countersSinceCreation();
  // LiveTxns is a gauge: a retired session holds nothing live, and add()
  // sums the field (correct across live sessions, wrong in a permanent
  // accumulator).
  Last.LiveTxns = 0;
  Retired.add(Last);
  RetiredCheckpoints += S.checkpointsWritten();
  RetiredQuotaTrips += S.quotaTrips();
  switch (S.RetireReason) {
  case StreamSession::Retire::Ended:
    ++Ended;
    break;
  case StreamSession::Retire::Evicted:
    ++Evicted;
    break;
  case StreamSession::Retire::Drained:
  case StreamSession::Retire::None:
    break;
  }
}

size_t SessionRegistry::sweep(uint64_t NowSec, uint64_t IdleTimeoutSec) {
  std::vector<std::shared_ptr<StreamSession>> ToEvict;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (auto It = Sessions.begin(); It != Sessions.end();) {
      StreamSession &S = *It->second;
      if (S.phase() == StreamSession::Phase::Dead) {
        fold(S);
        It = Sessions.erase(It);
        continue;
      }
      if (IdleTimeoutSec && !S.attached() && !S.retiring() &&
          NowSec >= S.lastActivitySec() &&
          NowSec - S.lastActivitySec() >= IdleTimeoutSec)
        ToEvict.push_back(It->second);
      ++It;
    }
  }
  for (const std::shared_ptr<StreamSession> &S : ToEvict) {
    S->markRetiring();
    StreamSession::Item I;
    I.K = StreamSession::Item::Kind::Evict;
    S->enqueue(std::move(I), Pool);
  }
  return ToEvict.size();
}

void SessionRegistry::drainAll() {
  std::vector<std::shared_ptr<StreamSession>> All = sessions();
  for (const std::shared_ptr<StreamSession> &S : All) {
    S->markRetiring();
    StreamSession::Item I;
    I.K = StreamSession::Item::Kind::Drain;
    S->enqueue(std::move(I), Pool);
  }
  std::unique_lock<std::mutex> L(Mu);
  DeadCv.wait_for(L, std::chrono::seconds(60), [&] {
    for (const auto &[Name, S] : Sessions)
      if (S->phase() != StreamSession::Phase::Dead)
        return false;
    return true;
  });
  for (auto &[Name, S] : Sessions)
    fold(*S);
  Sessions.clear();
}

void SessionRegistry::onSessionDead(StreamSession &) {
  // Counters are folded when the registry erases the entry (sweep, drain,
  // or a replacing HELLO); this only wakes a drain waiting for the pumps.
  // The lock pairs the notify with drainAll's predicate check — without
  // it, a Dead store landing between the check and the block would be a
  // lost wakeup and drain would sleep out its full timeout.
  std::lock_guard<std::mutex> L(Mu);
  DeadCv.notify_all();
}

SessionRegistry::Totals SessionRegistry::totals() const {
  Totals T;
  std::lock_guard<std::mutex> L(Mu);
  T.SessionsCreated = Created;
  T.SessionsResumed = Resumed;
  T.ResumeFailures = ResumeFailures;
  T.SessionsEvicted = Evicted;
  T.SessionsEnded = Ended;
  T.Counters = Retired;
  T.Checkpoints = RetiredCheckpoints;
  T.QuotaTrips = RetiredQuotaTrips;
  for (const auto &[Name, S] : Sessions) {
    if (S->phase() != StreamSession::Phase::Dead)
      ++T.SessionsLive;
    T.Counters.add(S->countersSinceCreation());
    T.Checkpoints += S->checkpointsWritten();
    T.QuotaTrips += S->quotaTrips();
  }
  return T;
}

std::vector<std::shared_ptr<StreamSession>>
SessionRegistry::sessions() const {
  std::vector<std::shared_ptr<StreamSession>> Out;
  std::lock_guard<std::mutex> L(Mu);
  Out.reserve(Sessions.size());
  for (const auto &[Name, S] : Sessions)
    Out.push_back(S);
  return Out;
}
