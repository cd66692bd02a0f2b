//===- server/server.cpp - Multi-tenant monitoring server ------------------===//

#include "server/server.h"

#include "io/token_util.h"
#include "obs/histogram.h"
#include "obs/trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace awdit;
using namespace awdit::server;

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
void appendLabelEscaped(std::string &Out, std::string_view Text) {
  for (char C : Text) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

void metricHeader(std::string &Out, const char *Name, const char *Help,
                  const char *Type) {
  Out += "# HELP ";
  Out += Name;
  Out += ' ';
  Out += Help;
  Out += '\n';
  Out += "# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

void metricLine(std::string &Out, const char *Name, const char *Help,
                const char *Type, uint64_t Value) {
  metricHeader(Out, Name, Help, Type);
  Out += Name;
  Out += ' ';
  Out += std::to_string(Value);
  Out += '\n';
}

} // namespace

/// One client connection: a non-blocking socket, the line-assembly
/// buffer, the session(s) it is attached to, and a bounded output queue.
/// sendLine() is the ResponseWriter the session pumps push replies
/// through — it only ever *enqueues* (under the write mutex, because the
/// event loop's OK/ERR replies and the pool threads' VIOLATION/STATS/
/// FINAL pushes both land here) and wakes the event loop, which drains
/// the queue with non-blocking sends on POLLOUT. No caller ever blocks
/// in write(2); a client that stops reading fills its own queue, trips
/// the quota, and is muted + disconnected (a counted event).
struct Server::Conn : ResponseWriter,
                      std::enable_shared_from_this<Server::Conn> {
  Socket Sock;
  /// Inbound byte staging: read(2) lands directly in refcounted arena
  /// pages; whole lines are dispatched from the page (a hot connection's
  /// data lines leave as zero-copy spans of it), the trailing partial line
  /// simply stays staged — the writer keeps it contiguous across rolls, so
  /// there is no separate assembly buffer.
  ArenaWriter Rx{256 << 10};
  std::shared_ptr<StreamSession> Session;
  /// Mux mode (`HELLO ... mux=on`): one connection, many tenants. The
  /// sticky router sends bare lines to CurStream; the current Batch
  /// belongs to BatchStream (empty = the plain-mode Session). Event-loop
  /// thread only.
  bool Mux = false;
  std::unordered_map<std::string, std::shared_ptr<StreamSession>>
      MuxSessions;
  std::string CurStream;
  std::string BatchStream;
  /// Data-rate tracker (bytes within the current steady second). A
  /// connection crossing the server's threshold turns Hot — sticky — and
  /// ships spans, upgrading its session's pump to the sharded pipeline.
  /// (Mux connections interleave tenants and never take the span path.)
  uint64_t RateWindowSec = 0;
  uint64_t RateBytes = 0;
  bool Hot = false;
  /// The batch of stream lines accumulated from the current read chunk
  /// (flushed to the session's inbox at the next verb or end of chunk).
  StreamSession::Item Batch;
  bool Dead = false;
  /// Set once a send failed or the output queue overflowed; the push
  /// channel goes mute and the event loop's next sweep closes the
  /// connection.
  std::atomic<bool> WriteFailed{false};

  // --- Output queue (WriteMu). ---
  /// One queued reply line plus its enqueue timestamp, so the drain can
  /// record the enqueue-to-wire residency histogram.
  struct OutMsg {
    std::string Bytes;
    uint64_t EnqueueNs;
  };
  std::mutex WriteMu;
  std::deque<OutMsg> OutQ;
  /// Bytes of OutQ.front() already sent (partial non-blocking sends).
  size_t OutHead = 0;
  /// Total un-sent bytes across OutQ.
  size_t OutBytes = 0;
  /// Queue quota: server default, overridable per HELLO `outq-bytes=`
  /// (clamped to the server cap; last HELLO on the connection wins).
  size_t OutQuota = 8 << 20;
  /// The server's self-pipe write end: an enqueue on an idle queue wakes
  /// the poll loop so it registers POLLOUT.
  int WakeFd = -1;
  /// The server's slow-client disconnect counter (overflow mutes).
  std::atomic<uint64_t> *SlowDrops = nullptr;

  void sendLine(const std::string &Line) override {
    if (WriteFailed.load(std::memory_order_relaxed))
      return;
    bool Wake = false;
    size_t Depth = 0;
    {
      std::lock_guard<std::mutex> L(WriteMu);
      if (!Sock.valid())
        return;
      if (OutBytes + Line.size() + 1 > OutQuota) {
        // The client is not keeping up: mute it (drop everything queued —
        // the durable record is the JSONL sink, not the push channel) and
        // wake the loop so the sweep disconnects it.
        WriteFailed.store(true, std::memory_order_relaxed);
        OutQ.clear();
        OutHead = 0;
        OutBytes = 0;
        if (SlowDrops)
          SlowDrops->fetch_add(1, std::memory_order_relaxed);
        Wake = true;
      } else {
        Wake = OutBytes == 0;
        std::string Out = Line;
        Out += '\n';
        OutBytes += Out.size();
        OutQ.push_back({std::move(Out), obs::traceNowNanos()});
        Depth = OutBytes;
      }
    }
    if (Depth)
      obs::metrics().ServerOutqDepth.record(Depth);
    if (Wake && WakeFd >= 0) {
      char B = 1;
      // Best effort; a full pipe means a wakeup is already pending.
      (void)!::write(WakeFd, &B, 1);
    }
  }

  bool pendingOut() {
    std::lock_guard<std::mutex> L(WriteMu);
    return OutBytes > 0;
  }

  void closeSocket() {
    std::lock_guard<std::mutex> L(WriteMu);
    Sock.close();
  }
};

/// The per-(connection, stream) ResponseWriter of a mux tenant: every
/// reply and push is prefixed with its `@<stream> ` tag so the client can
/// demux. Thread-safety rides on Conn::sendLine.
struct Server::MuxWriter final : ResponseWriter {
  MuxWriter(std::shared_ptr<Conn> C, std::string Stream)
      : C(std::move(C)), Tag("@" + std::move(Stream) + " ") {}

  void sendLine(const std::string &Line) override { C->sendLine(Tag + Line); }

  std::shared_ptr<Conn> C;
  std::string Tag;
};

namespace {

/// Resolves the hot-session thread budget: explicit values win, -1 picks 4
/// threads per hot session when the shared pool is big enough to spare
/// them, and anything below 2 disables the upgrade (a sharded pipeline
/// needs at least an applier and one shard worker).
unsigned hotThreadsFor(int ShardHotSessions, size_t PoolThreads) {
  if (ShardHotSessions >= 0)
    return ShardHotSessions >= 2 ? static_cast<unsigned>(ShardHotSessions)
                                 : 0;
  return PoolThreads >= 4 ? 4u : 0u;
}

SessionEnv sessionEnvFor(const ServerOptions &O, size_t PoolThreads) {
  SessionEnv Env;
  Env.CheckpointDir = O.CheckpointDir;
  Env.SinkDir = O.SinkDir;
  Env.CheckpointIntervalFlushes = O.CheckpointIntervalFlushes;
  Env.HotThreads = hotThreadsFor(O.ShardHotSessions, PoolThreads);
  Env.HotBytesPerSec = O.HotBytesPerSec;
  Env.MaxInboxBytes = O.MaxInboxBytes;
  Env.MaxWindowBytes = O.MaxWindowBytes;
  return Env;
}

} // namespace

Server::Server(ServerOptions Options)
    : Options(std::move(Options)),
      Pool(std::make_unique<ThreadPool>(this->Options.Threads)),
      Registry(std::make_unique<SessionRegistry>(
          sessionEnvFor(this->Options, Pool->numThreads()), *Pool)) {}

Server::~Server() {
  // Join every pump before the registry (which the pumps' OnDead hooks
  // point into) goes away.
  Pool.reset();
  Registry.reset();
  if (WakePipe[0] >= 0)
    ::close(WakePipe[0]);
  if (WakePipe[1] >= 0)
    ::close(WakePipe[1]);
}

bool Server::start(std::string *Err) {
  if (::pipe(WakePipe) != 0) {
    if (Err)
      *Err = std::string("pipe(): ") + std::strerror(errno);
    return false;
  }
  if (!Listener.listenOn(Options.Host, Options.Port, Err))
    return false;
  if (Options.EnableMetrics &&
      !MetricsListener.listenOn(Options.Host, Options.MetricsPort, Err))
    return false;
  if (!Options.TraceDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Options.TraceDir, Ec);
    if (Ec) {
      if (Err)
        *Err = "cannot create trace dir '" + Options.TraceDir +
               "': " + Ec.message();
      return false;
    }
  }
  return true;
}

void Server::requestShutdown() {
  ShutdownRequested.store(true, std::memory_order_release);
  if (WakePipe[1] >= 0) {
    char B = 1;
    // Best effort; the poll timeout catches a full pipe.
    (void)!::write(WakePipe[1], &B, 1);
  }
}

void Server::acceptClient() {
  Socket S = Listener.accept();
  if (!S.valid())
    return;
  // Non-blocking from the first byte: reads happen on POLLIN, replies go
  // through the bounded output queue and leave on POLLOUT. Nothing on
  // this socket can ever block the event loop or a pump thread.
  S.setNonBlocking(true);
  if (Options.SockSndBuf > 0)
    ::setsockopt(S.fd(), SOL_SOCKET, SO_SNDBUF, &Options.SockSndBuf,
                 sizeof(Options.SockSndBuf));
  auto C = std::make_shared<Conn>();
  C->Sock = std::move(S);
  C->Batch.K = StreamSession::Item::Kind::Data;
  C->OutQuota = Options.MaxOutQueueBytes;
  C->WakeFd = WakePipe[1];
  C->SlowDrops = &SlowClientDrops;
  Conns.push_back(std::move(C));
}

void Server::flushBatch(const std::shared_ptr<Conn> &C) {
  if (C->Batch.Lines.empty() && C->Batch.Spans.empty())
    return;
  StreamSession::Item I;
  I.K = StreamSession::Item::Kind::Data;
  std::swap(I, C->Batch);
  C->Batch.K = StreamSession::Item::Kind::Data;
  std::shared_ptr<StreamSession> Target = C->Session;
  if (!C->BatchStream.empty()) {
    auto It = C->MuxSessions.find(C->BatchStream);
    Target = It == C->MuxSessions.end() ? nullptr : It->second;
  }
  if (Target)
    Target->enqueue(std::move(I), *Pool);
}

void Server::handleHello(const std::shared_ptr<Conn> &C,
                         std::string_view Line) {
  // HELLO-to-OK-queued latency: the handshake runs inline on the event
  // loop (parse, auth, checkpoint restore on resume), so this histogram is
  // both the client's attach experience and a loop-stall witness.
  AWDIT_SPAN("server.hello");
  obs::ScopedLatency Lat(obs::metrics().ServerHello);
  HelloRequest Req;
  std::string Err;
  if (!parseHello(Line, Req, &Err)) {
    C->sendLine("ERR " + Err);
    return;
  }

  // The auth gate comes first: an unauthenticated HELLO must be rejected
  // before any session state is created (no registry lookup, no
  // checkpoint read, no sink file).
  if (!Options.AuthToken.empty() && Req.Token != Options.AuthToken) {
    AuthFailures.fetch_add(1, std::memory_order_relaxed);
    C->sendLine(Req.Token.empty()
                    ? "ERR auth token required (HELLO ... token=<secret>)"
                    : "ERR auth bad token");
    return;
  }

  // Quota requests above the server cap are refused, not silently
  // clamped — the tenant asked for a guarantee the server won't give.
  auto OverCap = [&](const char *Key, uint64_t Want, uint64_t Cap) {
    if (!Cap || !Want || Want <= Cap)
      return false;
    QuotaRejects.fetch_add(1, std::memory_order_relaxed);
    C->sendLine("ERR quota " + std::string(Key) + "=" +
                std::to_string(Want) + " exceeds server cap " +
                std::to_string(Cap));
    return true;
  };
  if (OverCap("inbox-bytes", Req.InboxBytes, Options.MaxInboxBytes) ||
      OverCap("outq-bytes", Req.OutQueueBytes, Options.MaxOutQueueBytes) ||
      OverCap("window-bytes", Req.WindowBytes, Options.MaxWindowBytes))
    return;

  bool MuxMode = C->Mux || Req.Mux;
  if (MuxMode && C->Session) {
    C->sendLine("ERR cannot mix mux and plain framing on one connection");
    return;
  }
  if (!MuxMode && C->Session) {
    C->sendLine("ERR already attached to stream '" + C->Session->name() +
                "'; DETACH first");
    return;
  }
  // Replies for a mux tenant carry its tag — including this HELLO's own
  // OK/ERR, so the client can demux concurrent handshakes.
  auto Reply = [&](const std::string &L) {
    C->sendLine(MuxMode ? "@" + Req.Stream + " " + L : L);
  };
  if (MuxMode && C->MuxSessions.count(Req.Stream)) {
    Reply("ERR already attached to stream '" + Req.Stream +
          "' on this connection");
    return;
  }

  std::shared_ptr<ResponseWriter> W =
      MuxMode ? std::shared_ptr<ResponseWriter>(
                    std::make_shared<MuxWriter>(C, Req.Stream))
              : C;
  SessionRegistry::HelloResult R = Registry->hello(Req, std::move(W));
  if (!R.Session) {
    Reply("ERR " + R.Err);
    return;
  }
  if (Req.OutQueueBytes) {
    // The output queue belongs to the connection; on a mux connection the
    // last HELLO's request wins.
    std::lock_guard<std::mutex> L(C->WriteMu);
    C->OutQuota = Req.OutQueueBytes;
  }
  if (MuxMode) {
    C->Mux = true;
    C->MuxSessions[Req.Stream] = R.Session;
    C->CurStream = Req.Stream;
  } else {
    C->Session = R.Session;
  }
  Reply("OK " + Req.Stream + " " + R.Status +
        " offset=" + std::to_string(R.Offset) +
        " line=" + std::to_string(R.LineNo));
}

void Server::handleTrace(const std::shared_ptr<Conn> &C,
                         std::string_view Line) {
  // TRACE is an operator verb with process-wide effect (toggling tracing
  // clears every ring; dump writes files into --trace-dir). Behind
  // --auth-token it requires the same gate as HELLO: an anonymous
  // connection must not wipe recordings or fill the disk with dumps.
  if (!Options.AuthToken.empty() && !C->Session && C->MuxSessions.empty()) {
    AuthFailures.fetch_add(1, std::memory_order_relaxed);
    C->sendLine("ERR auth TRACE needs an authenticated session "
                "(HELLO ... token=<secret> first)");
    return;
  }
  std::vector<std::string_view> Tok = io::tokenize(Line);
  std::string_view Arg = Tok.size() >= 2 ? Tok[1] : std::string_view();
  if (Arg == "on") {
    // A fresh window: operators turn tracing on to look at *now*, not at
    // whatever the rings held from a forgotten earlier session.
    obs::traceClear();
    obs::setTraceEnabled(true);
    C->sendLine("OK trace on");
    return;
  }
  if (Arg == "off") {
    obs::setTraceEnabled(false);
    C->sendLine("OK trace off");
    return;
  }
  if (Arg == "dump") {
    if (Options.TraceDir.empty()) {
      C->sendLine("ERR trace dump needs the server started with "
                  "--trace-dir");
      return;
    }
    std::string Path = Options.TraceDir + "/trace-" +
                       std::to_string(++TraceDumpSeq) + ".json";
    // Serializing every ring and writing the file can take long enough to
    // stall the event loop (and trip the poll-stall gauge the soak gate
    // watches), so the dump runs on the shared pool; the reply leaves
    // through the thread-safe output queue when the file is on disk.
    Pool->submit([C, Path] {
      std::string Err;
      if (!obs::writeTraceFile(Path, &Err))
        C->sendLine("ERR trace " + Err);
      else
        C->sendLine("OK trace dumped " + Path);
    });
    return;
  }
  C->sendLine("ERR TRACE wants on|off|dump");
}

std::string Server::serverStatsJson(bool Deep) const {
  SessionRegistry::Totals T = Registry->totals();
  std::string Out = "{\"sessions_live\":" +
                    std::to_string(T.SessionsLive) +
                    ",\"sessions_created\":" +
                    std::to_string(T.SessionsCreated) +
                    ",\"sessions_resumed\":" +
                    std::to_string(T.SessionsResumed) +
                    ",\"sessions_evicted\":" +
                    std::to_string(T.SessionsEvicted) +
                    ",\"sessions_ended\":" + std::to_string(T.SessionsEnded) +
                    ",\"checkpoints\":" + std::to_string(T.Checkpoints) +
                    ",\"hot_upgrades\":" + std::to_string(T.HotUpgrades) +
                    ",\"quota_trips\":" + std::to_string(T.QuotaTrips) +
                    ",\"totals\":" + T.Counters.toJson();
  if (Deep) {
    // The process-wide pipeline latency percentiles, one object per
    // histogram family (same data /metrics renders as buckets).
    const obs::PipelineMetrics &PM = obs::metrics();
    auto Field = [&Out](const char *Name, const obs::LatencyHistogram &H) {
      Out += ",\"";
      Out += Name;
      Out += "\":";
      Out += H.snapshot().percentilesJson();
    };
    Field("flush", PM.FlushTotal);
    Field("server_pump", PM.ServerPump);
    Field("server_hello", PM.ServerHello);
    Field("server_output_queue", PM.ServerOutputQueue);
    Field("ingest_queue_wait", PM.IngestQueueWait);
    Field("checkpoint_store", PM.CheckpointStoreCommit);
  }
  Out += "}";
  return Out;
}

void Server::handleLine(const std::shared_ptr<Conn> &C,
                        std::string_view Line) {
  if (C->Mux) {
    handleMuxLine(C, Line);
    return;
  }
  switch (classifyLine(Line)) {
  case Verb::Hello:
    flushBatch(C);
    handleHello(C, Line);
    return;

  case Verb::Stats:
    flushBatch(C);
    if (C->Session) {
      StreamSession::Item I;
      I.K = StreamSession::Item::Kind::Stats;
      I.Deep = statsWantsDeep(Line);
      C->Session->enqueue(std::move(I), *Pool);
    } else {
      // Pre-HELLO STATS: the whole-server view.
      C->sendLine("STATS " + serverStatsJson(statsWantsDeep(Line)));
    }
    return;

  case Verb::Trace:
    flushBatch(C);
    handleTrace(C, Line);
    return;

  case Verb::Detach:
    flushBatch(C);
    if (!C->Session) {
      C->sendLine("ERR not attached");
      return;
    }
    {
      StreamSession::Item I;
      I.K = StreamSession::Item::Kind::Detach;
      std::shared_ptr<StreamSession> S = std::move(C->Session);
      C->Session.reset();
      S->enqueue(std::move(I), *Pool);
    }
    return;

  case Verb::End:
    flushBatch(C);
    if (!C->Session) {
      C->sendLine("ERR not attached");
      return;
    }
    {
      StreamSession::Item I;
      I.K = StreamSession::Item::Kind::End;
      std::shared_ptr<StreamSession> S = std::move(C->Session);
      C->Session.reset();
      S->enqueue(std::move(I), *Pool);
    }
    return;

  case Verb::Shutdown:
    flushBatch(C);
    C->sendLine("OK shutting-down");
    requestShutdown();
    return;

  case Verb::None:
    if (!C->Session) {
      // Tolerate leading blank lines/comments before HELLO.
      size_t NonBlank = Line.find_first_not_of(" \t");
      if (NonBlank == std::string_view::npos || Line[NonBlank] == '#')
        return;
      C->sendLine("ERR expected HELLO before stream data");
      return;
    }
    C->Batch.Lines.emplace_back(Line);
    C->Batch.Bytes += Line.size() + 1;
    return;
  }
}

void Server::handleMuxLine(const std::shared_ptr<Conn> &C,
                           std::string_view Line) {
  // The '@@' escape: a bare (current-stream) payload that itself starts
  // with '@', shipped with the '@' doubled.
  if (Line.size() >= 2 && Line[0] == '@' && Line[1] == '@') {
    if (C->CurStream.empty()) {
      C->sendLine("ERR mux: no current stream (switch with '@<stream>')");
      return;
    }
    routeMuxPayload(C, C->CurStream, unescapeMuxPayload(Line));
    return;
  }

  if (isMuxFrame(Line)) {
    std::string_view Stream, Payload;
    bool HasPayload = false;
    if (!splitMuxFrame(Line, Stream, Payload, HasPayload)) {
      C->sendLine("ERR mux: malformed frame (want '@<stream> [line]')");
      return;
    }
    std::string Name(Stream);
    if (!C->MuxSessions.count(Name)) {
      C->sendLine("ERR mux: unknown stream '" + Name + "'");
      return;
    }
    C->CurStream = Name;
    if (HasPayload)
      routeMuxPayload(C, Name, Payload);
    return;
  }

  // A bare line. Connection-level verbs first: HELLO opens another
  // tenant, SHUTDOWN drains the server, STATS with no current stream is
  // the whole-server view.
  Verb V = classifyLine(Line);
  if (V == Verb::Hello) {
    flushBatch(C);
    handleHello(C, Line);
    return;
  }
  if (V == Verb::Shutdown) {
    flushBatch(C);
    C->sendLine("OK shutting-down");
    requestShutdown();
    return;
  }
  if (V == Verb::Trace) {
    flushBatch(C);
    handleTrace(C, Line);
    return;
  }
  if (C->CurStream.empty()) {
    if (V == Verb::Stats) {
      flushBatch(C);
      C->sendLine("STATS " + serverStatsJson(statsWantsDeep(Line)));
      return;
    }
    // Tolerate blank lines/comments, as pre-HELLO plain mode does.
    size_t NonBlank = Line.find_first_not_of(" \t");
    if (NonBlank == std::string_view::npos || Line[NonBlank] == '#')
      return;
    C->sendLine("ERR mux: no current stream (switch with '@<stream>')");
    return;
  }
  routeMuxPayload(C, C->CurStream, Line);
}

void Server::routeMuxPayload(const std::shared_ptr<Conn> &C,
                             const std::string &Stream,
                             std::string_view Payload) {
  auto It = C->MuxSessions.find(Stream);
  if (It == C->MuxSessions.end()) {
    C->sendLine("ERR mux: unknown stream '" + Stream + "'");
    return;
  }
  std::shared_ptr<StreamSession> S = It->second;
  auto Enqueue = [&](StreamSession::Item::Kind K) {
    flushBatch(C);
    StreamSession::Item I;
    I.K = K;
    S->enqueue(std::move(I), *Pool);
  };
  switch (classifyLine(Payload)) {
  case Verb::None:
    // A data line: extend the sticky batch, flushing when the routed
    // stream changed under it.
    if (C->BatchStream != Stream) {
      flushBatch(C);
      C->BatchStream = Stream;
    }
    C->Batch.Lines.emplace_back(Payload);
    C->Batch.Bytes += Payload.size() + 1;
    return;

  case Verb::Stats: {
    flushBatch(C);
    StreamSession::Item I;
    I.K = StreamSession::Item::Kind::Stats;
    I.Deep = statsWantsDeep(Payload);
    S->enqueue(std::move(I), *Pool);
    return;
  }

  case Verb::Trace:
    flushBatch(C);
    handleTrace(C, Payload);
    return;

  case Verb::Detach:
    Enqueue(StreamSession::Item::Kind::Detach);
    C->MuxSessions.erase(Stream);
    if (C->CurStream == Stream)
      C->CurStream.clear();
    if (C->BatchStream == Stream)
      C->BatchStream.clear();
    return;

  case Verb::End:
    Enqueue(StreamSession::Item::Kind::End);
    C->MuxSessions.erase(Stream);
    if (C->CurStream == Stream)
      C->CurStream.clear();
    if (C->BatchStream == Stream)
      C->BatchStream.clear();
    return;

  case Verb::Hello:
    // HELLO names its own stream; a framed one is a client bug.
    C->sendLine("ERR mux: send HELLO unframed (it names its stream)");
    return;

  case Verb::Shutdown:
    flushBatch(C);
    C->sendLine("OK shutting-down");
    requestShutdown();
    return;
  }
}

void Server::readConn(const std::shared_ptr<Conn> &C) {
  // read(2) straight into the connection's arena page: for a hot
  // connection these very bytes are what the session's shard workers
  // decode — no copy in between.
  auto [Buf, Cap] = C->Rx.window(1 << 16);
  long N = C->Sock.readSome(Buf, Cap);
  if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
    return; // spurious wakeup on the non-blocking socket
  if (N <= 0) {
    closeConn(C);
    return;
  }
  C->Rx.commit(static_cast<size_t>(N));

  // Rate tracking (bytes per steady second); crossing the threshold makes
  // the connection hot for the rest of its life.
  uint64_t Now = steadyNowSec();
  if (Now != C->RateWindowSec) {
    C->RateWindowSec = Now;
    C->RateBytes = 0;
  }
  C->RateBytes += static_cast<uint64_t>(N);
  if (!C->Hot && Registry->hotEnabled() &&
      C->RateBytes >= Options.HotBytesPerSec)
    C->Hot = true;

  std::string_view Pending = C->Rx.pending();
  size_t LastNl = Pending.rfind('\n');
  if (LastNl == std::string_view::npos) {
    // Only a growing partial line staged; bound it.
    if (Pending.size() > MaxLineBytes) {
      C->sendLine("ERR line exceeds " + std::to_string(MaxLineBytes) +
                  " bytes");
      closeConn(C);
    }
    return;
  }
  dispatchLines(C, C->Rx.take(LastNl + 1));
  if (C->Rx.pendingBytes() > MaxLineBytes) {
    C->sendLine("ERR line exceeds " + std::to_string(MaxLineBytes) +
                " bytes");
    closeConn(C);
    return;
  }
  flushBatch(C);
}

void Server::dispatchLines(const std::shared_ptr<Conn> &C,
                           const PageSpan &Span) {
  std::string_view V = Span.view(); // whole lines; ends in '\n'
  size_t RunBegin = std::string_view::npos;
  auto FlushRun = [&](size_t RunEnd) {
    if (RunBegin == std::string_view::npos)
      return;
    C->Batch.Spans.push_back(
        PageSpan{Span.Page, Span.Begin + RunBegin, Span.Begin + RunEnd});
    C->Batch.Bytes += RunEnd - RunBegin;
    RunBegin = std::string_view::npos;
  };
  size_t Pos = 0;
  while (Pos < V.size() && !C->Dead) {
    size_t Nl = io::scanToNewline(V, Pos);
    std::string_view Line = V.substr(Pos, Nl - Pos);
    if (C->Hot && C->Session && classifyLine(Line) == Verb::None) {
      // A data line on a hot connection: extend the current zero-copy run
      // (newline included — the sharded pipeline wants verbatim bytes).
      if (RunBegin == std::string_view::npos)
        RunBegin = Pos;
      Pos = Nl + 1;
      continue;
    }
    FlushRun(Pos);
    handleLine(C, Line);
    Pos = Nl + 1;
  }
  FlushRun(Pos);
}

void Server::closeConn(const std::shared_ptr<Conn> &C) {
  flushBatch(C);
  // The client vanished without DETACH: detach quietly, keep the
  // session(s) for a reconnect (or the idle-eviction timer).
  auto DetachQuiet = [&](std::shared_ptr<StreamSession> S) {
    StreamSession::Item I;
    I.K = StreamSession::Item::Kind::Detach;
    I.Quiet = true;
    S->enqueue(std::move(I), *Pool);
  };
  if (C->Session) {
    std::shared_ptr<StreamSession> S = std::move(C->Session);
    C->Session.reset();
    DetachQuiet(std::move(S));
  }
  for (auto &[Name, S] : C->MuxSessions)
    DetachQuiet(S);
  C->MuxSessions.clear();
  C->CurStream.clear();
  C->BatchStream.clear();
  C->closeSocket();
  C->Dead = true;
}

std::string Server::renderMetrics() const {
  SessionRegistry::Totals T = Registry->totals();
  std::string Out;
  metricLine(Out, "awdit_server_sessions_live",
             "Stream sessions currently held by the registry.", "gauge",
             T.SessionsLive);
  metricLine(Out, "awdit_server_sessions_created_total",
             "Sessions created (fresh or resumed) since process start.",
             "counter", T.SessionsCreated);
  metricLine(Out, "awdit_server_sessions_resumed_total",
             "Sessions restored from a per-stream checkpoint.", "counter",
             T.SessionsResumed);
  metricLine(Out, "awdit_server_sessions_evicted_total",
             "Idle detached sessions checkpointed and evicted.", "counter",
             T.SessionsEvicted);
  metricLine(Out, "awdit_server_sessions_ended_total",
             "Sessions ended by the END verb.", "counter", T.SessionsEnded);
  metricLine(Out, "awdit_server_checkpoints_total",
             "Per-stream checkpoints written.", "counter", T.Checkpoints);
  metricLine(Out, "awdit_server_hot_upgrades_total",
             "Sessions upgraded to the sharded ingest pipeline.", "counter",
             T.HotUpgrades);
  metricLine(Out, "awdit_server_quota_trips_total",
             "Tenants wedged for exceeding their window-bytes quota.",
             "counter", T.QuotaTrips);
  metricLine(Out, "awdit_server_quota_rejects_total",
             "HELLOs refused for requesting quotas above the server cap.",
             "counter", QuotaRejects.load(std::memory_order_relaxed));
  metricLine(Out, "awdit_server_auth_failures_total",
             "Commands (HELLO, unauthenticated TRACE) refused for a "
             "missing or bad auth token.", "counter",
             AuthFailures.load(std::memory_order_relaxed));
  metricLine(Out, "awdit_server_slow_client_disconnects_total",
             "Clients muted and dropped for an overflowing output queue.",
             "counter", SlowClientDrops.load(std::memory_order_relaxed));
  // The rolling stall high water resets on every scrape (worst iteration
  // since the last scrape), so exactly one scraper may consume it — a
  // second reader zeroes the window the first expects. Anything else
  // (dashboards, CI gates, manual curls) must use the _lifetime variant,
  // which never resets.
  metricLine(Out, "awdit_server_poll_max_stall_micros",
             "Worst event-loop iteration (micros) since the last scrape; "
             "read-destructive, single-scraper only (others: use _lifetime).",
             "gauge", MaxPollStallMicros.exchange(0, std::memory_order_relaxed));
  metricLine(Out, "awdit_server_poll_max_stall_micros_lifetime",
             "Worst event-loop iteration (micros) since process start.",
             "gauge",
             MaxPollStallLifetimeMicros.load(std::memory_order_relaxed));
  metricLine(Out, "awdit_server_txns_ingested_total",
             "Transactions ingested across all streams.", "counter",
             T.Counters.Txns);
  metricLine(Out, "awdit_server_txns_committed_total",
             "Committed transactions ingested across all streams.",
             "counter", T.Counters.Committed);
  metricLine(Out, "awdit_server_ops_total",
             "Operations ingested across all streams.", "counter",
             T.Counters.Ops);
  metricLine(Out, "awdit_server_violations_total",
             "Isolation violations reported across all streams.", "counter",
             T.Counters.Violations);
  metricLine(Out, "awdit_server_flushes_total",
             "Monitor checking passes run across all streams.", "counter",
             T.Counters.Flushes);
  metricLine(Out, "awdit_server_evicted_txns_total",
             "Transactions evicted from checking windows.", "counter",
             T.Counters.EvictedTxns);
  metricLine(Out, "awdit_server_forced_aborts_total",
             "Hung open transactions force-aborted.", "counter",
             T.Counters.ForcedAborts);
  metricHeader(Out, "awdit_server_flush_seconds_total",
               "Total wall-clock seconds spent in checking passes.",
               "counter");
  Out += "awdit_server_flush_seconds_total ";
  char Sec[64];
  std::snprintf(Sec, sizeof(Sec), "%.6f",
                static_cast<double>(T.Counters.FlushMicros) / 1e6);
  Out += Sec;
  Out += '\n';

  // The pipeline latency histograms (process-global; every session and
  // both CLI paths record into them). Rendered even when empty so a
  // scraper's required-series list holds from the first scrape.
  const obs::PipelineMetrics &PM = obs::metrics();
  auto Histogram = [&Out](const char *Name, const char *Help,
                          const obs::LatencyHistogram &H,
                          const std::string &Labels, bool Unitless = false,
                          bool Header = true) {
    if (Header)
      metricHeader(Out, Name, Help, "histogram");
    H.snapshot().renderProm(Out, Name, Labels, Unitless);
  };
  Histogram("awdit_flush_duration_seconds",
            "One monitor checking pass, end to end.", PM.FlushTotal, "");
  metricHeader(Out, "awdit_flush_phase_duration_seconds",
               "Checking-pass time split by phase (pk overlaps the "
               "others).",
               "histogram");
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I)
    Histogram("awdit_flush_phase_duration_seconds", "", PM.FlushPhases[I],
              std::string("phase=\"") +
                  obs::flushPhaseName(static_cast<obs::FlushPhase>(I)) +
                  "\"",
              false, false);
  metricHeader(Out, "awdit_ingest_stage_duration_seconds",
               "Sharded-ingest batch time by pipeline stage.", "histogram");
  for (unsigned I = 0; I < obs::NumIngestStages; ++I)
    Histogram("awdit_ingest_stage_duration_seconds", "", PM.IngestStages[I],
              std::string("stage=\"") +
                  obs::ingestStageName(static_cast<obs::IngestStage>(I)) +
                  "\"",
              false, false);
  Histogram("awdit_ingest_queue_wait_seconds",
            "Producer block time on a full ingest SPSC queue.",
            PM.IngestQueueWait, "");
  Histogram("awdit_ingest_queue_depth",
            "Ingest SPSC queue occupancy (items), sampled at enqueue.",
            PM.IngestQueueDepth, "", /*Unitless=*/true);
  Histogram("awdit_checkpoint_write_seconds",
            "Checkpoint persistence: one segment-store commit.",
            PM.CheckpointStoreCommit, "format=\"store\"");
  Histogram("awdit_server_pump_seconds",
            "One session-actor work item on the shared pool.",
            PM.ServerPump, "");
  Histogram("awdit_server_hello_seconds",
            "HELLO handling, parse to OK/ERR queued.", PM.ServerHello, "");
  Histogram("awdit_server_output_queue_seconds",
            "Reply residency from enqueue to fully on the wire.",
            PM.ServerOutputQueue, "");
  Histogram("awdit_server_outq_depth_bytes",
            "Connection output-queue bytes, sampled at enqueue.",
            PM.ServerOutqDepth, "", /*Unitless=*/true);

  // Per-stream series for the live tenants.
  metricHeader(Out, "awdit_session_committed_txns",
               "Committed transactions ingested by this stream.", "gauge");
  std::string Violations;
  metricHeader(Violations, "awdit_session_violations",
               "Violations reported on this stream.", "gauge");
  std::string Phases;
  metricHeader(Phases, "awdit_session_flush_phase_micros_total",
               "Stream flush time by phase (micros; pk overlaps).",
               "counter");
  for (const std::shared_ptr<StreamSession> &S : Registry->sessions()) {
    if (S->phase() == StreamSession::Phase::Dead)
      continue;
    StatsSnapshot Snap = S->counters();
    std::string Label = "{stream=\"";
    appendLabelEscaped(Label, S->name());
    Label += "\"}";
    Out += "awdit_session_committed_txns" + Label + " " +
           std::to_string(Snap.Committed) + "\n";
    Violations += "awdit_session_violations" + Label + " " +
                  std::to_string(Snap.Violations) + "\n";
    for (unsigned I = 0; I < obs::NumFlushPhases; ++I) {
      Phases += "awdit_session_flush_phase_micros_total{stream=\"";
      appendLabelEscaped(Phases, S->name());
      Phases += "\",phase=\"";
      Phases += obs::flushPhaseName(static_cast<obs::FlushPhase>(I));
      Phases += "\"} ";
      Phases += std::to_string(S->flushPhaseMicros(I));
      Phases += '\n';
    }
  }
  Out += Violations;
  Out += Phases;
  return Out;
}

void Server::serveMetricsConn() {
  Socket S = MetricsListener.accept();
  if (!S.valid())
    return;
  // A scrape is one small request served inline on the event loop; the
  // timeouts keep a stuck scraper (never sends, or never reads a large
  // response) from wedging every tenant.
  struct timeval Tv = {2, 0};
  ::setsockopt(S.fd(), SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(S.fd(), SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
  char Buf[4096];
  long N = S.readSome(Buf, sizeof(Buf));
  std::string_view Req(Buf, N > 0 ? static_cast<size_t>(N) : 0);
  bool NotFound = false;
  if (Req.rfind("GET ", 0) == 0) {
    size_t PathEnd = Req.find(' ', 4);
    std::string_view Path = Req.substr(4, PathEnd == std::string_view::npos
                                              ? std::string_view::npos
                                              : PathEnd - 4);
    NotFound = Path != "/metrics" && Path != "/";
  }
  std::string Body = NotFound ? "not found\n" : renderMetrics();
  std::string Resp = NotFound ? "HTTP/1.0 404 Not Found\r\n"
                              : "HTTP/1.0 200 OK\r\n";
  Resp += "Content-Type: text/plain; version=0.0.4\r\n"
          "Content-Length: " +
          std::to_string(Body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n";
  Resp += Body;
  S.writeAll(Resp);
}

void Server::drainConnOutput(const std::shared_ptr<Conn> &C) {
  bool Fail = false;
  {
    std::lock_guard<std::mutex> L(C->WriteMu);
    while (!C->OutQ.empty()) {
      std::string_view Front(C->OutQ.front().Bytes);
      Front.remove_prefix(C->OutHead);
      long N = C->Sock.valid() ? C->Sock.sendSome(Front) : -1;
      if (N < 0) {
        Fail = true;
        break;
      }
      if (N == 0)
        break; // kernel buffer full: wait for the next POLLOUT
      C->OutHead += static_cast<size_t>(N);
      C->OutBytes -= static_cast<size_t>(N);
      if (C->OutHead == C->OutQ.front().Bytes.size()) {
        obs::metrics().ServerOutputQueue.record(
            (obs::traceNowNanos() - C->OutQ.front().EnqueueNs) / 1000);
        C->OutQ.pop_front();
        C->OutHead = 0;
      }
    }
    if (Fail) {
      C->OutQ.clear();
      C->OutHead = 0;
      C->OutBytes = 0;
    }
  }
  if (Fail)
    C->WriteFailed.store(true, std::memory_order_relaxed);
}

void Server::run() {
  while (!ShutdownRequested.load(std::memory_order_acquire)) {
    std::vector<pollfd> Fds;
    Fds.push_back({WakePipe[0], POLLIN, 0});
    Fds.push_back({Listener.fd(), POLLIN, 0});
    if (MetricsListener.valid())
      Fds.push_back({MetricsListener.fd(), POLLIN, 0});
    size_t FirstConn = Fds.size();
    std::vector<std::shared_ptr<Conn>> Polled;
    for (const std::shared_ptr<Conn> &C : Conns) {
      if (C->Dead)
        continue;
      short Events = 0;
      // Backpressure: a session that is too far behind its quota is not
      // read; the TCP window fills and pushes back to the client. On a
      // mux connection any lagging tenant gates the whole socket (the
      // frames are interleaved — head-of-line, by design).
      bool Lagging = C->Session && C->Session->inboxBytes() >
                                       C->Session->inboxQuota();
      for (auto It = C->MuxSessions.begin();
           !Lagging && It != C->MuxSessions.end(); ++It)
        Lagging = It->second->inboxBytes() > It->second->inboxQuota();
      if (!Lagging)
        Events |= POLLIN;
      if (C->pendingOut())
        Events |= POLLOUT;
      if (!Events)
        continue;
      Fds.push_back({C->Sock.fd(), Events, 0});
      Polled.push_back(C);
    }

    int Ready = ::poll(Fds.data(), Fds.size(), /*timeout_ms=*/100);
    if (Ready < 0 && errno != EINTR)
      break;

    // Everything below must stay non-blocking: the handling time of one
    // iteration is the loop's stall, tracked as a high-water mark for
    // /metrics (awdit_server_poll_max_stall_micros).
    auto HandleT0 = std::chrono::steady_clock::now();

    if (Ready > 0) {
      if (Fds[0].revents & POLLIN) {
        char B[64];
        (void)!::read(WakePipe[0], B, sizeof(B));
      }
      if (Fds[1].revents & POLLIN)
        acceptClient();
      if (MetricsListener.valid() && (Fds[2].revents & POLLIN))
        serveMetricsConn();
      for (size_t I = FirstConn; I < Fds.size(); ++I) {
        const std::shared_ptr<Conn> &C = Polled[I - FirstConn];
        if (Fds[I].revents & POLLOUT)
          drainConnOutput(C);
        if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
          readConn(C);
      }
    }

    // Housekeeping, at most once a second: sweep dead sessions, schedule
    // idle evictions, drop closed connections.
    uint64_t Now = steadyNowSec();
    if (Now != LastSweepSec) {
      LastSweepSec = Now;
      Registry->sweep(Now, Options.IdleTimeoutSec);
      for (const std::shared_ptr<Conn> &C : Conns)
        if (!C->Dead && C->WriteFailed.load(std::memory_order_relaxed))
          closeConn(C);
      Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                                 [](const std::shared_ptr<Conn> &C) {
                                   return C->Dead;
                                 }),
                  Conns.end());
    }

    uint64_t Micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - HandleT0)
            .count());
    if (Micros > MaxPollStallMicros.load(std::memory_order_relaxed))
      MaxPollStallMicros.store(Micros, std::memory_order_relaxed);
    if (Micros > MaxPollStallLifetimeMicros.load(std::memory_order_relaxed))
      MaxPollStallLifetimeMicros.store(Micros, std::memory_order_relaxed);
  }

  // --- Drain. ---
  Listener.close();
  MetricsListener.close();
  Registry->drainAll();
  // The drain courtesies (DRAINING/FINAL/BYE) are sitting in the output
  // queues; give clients that are still reading a bounded chance to
  // receive them before the sockets close.
  flushOutputAtDrain();
  for (const std::shared_ptr<Conn> &C : Conns) {
    C->Session.reset();
    C->MuxSessions.clear();
    C->closeSocket();
  }
  Conns.clear();
}

void Server::flushOutputAtDrain() {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::vector<pollfd> Fds;
    std::vector<std::shared_ptr<Conn>> Polled;
    for (const std::shared_ptr<Conn> &C : Conns) {
      if (C->Dead || C->WriteFailed.load(std::memory_order_relaxed) ||
          !C->pendingOut())
        continue;
      Fds.push_back({C->Sock.fd(), POLLOUT, 0});
      Polled.push_back(C);
    }
    if (Fds.empty() || std::chrono::steady_clock::now() >= Deadline)
      return;
    int Ready = ::poll(Fds.data(), Fds.size(), /*timeout_ms=*/100);
    if (Ready < 0 && errno != EINTR)
      return;
    for (size_t I = 0; I < Fds.size(); ++I)
      if (Fds[I].revents & (POLLOUT | POLLHUP | POLLERR))
        drainConnOutput(Polled[I]);
  }
}
