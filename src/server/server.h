//===- server/server.h - Multi-tenant monitoring server ----------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `awdit serve`: one process hosting many concurrent monitoring sessions.
/// A poll(2) event loop owns every socket — the line-protocol listener
/// (server/protocol.h), an optional Prometheus-style /metrics HTTP
/// listener, and the client connections — splits incoming bytes into
/// lines, routes control verbs, and enqueues stream-line batches onto the
/// per-stream sessions of a SessionRegistry. The actual checking runs on a
/// shared ThreadPool (support/thread_pool.h): each session is a pinned
/// single-writer actor, so hundreds of tenants share the cores while every
/// Monitor keeps the single-threaded semantics its correctness proofs (and
/// its bit-identical-to-standalone guarantees) rely on.
///
/// Lifecycle:
///
///   start()  binds the listeners (port 0 = ephemeral, reported by
///            port()/metricsPort());
///   run()    blocks in the event loop until a shutdown is requested —
///            by SIGTERM/SIGINT (the CLI wires requestShutdown() into a
///            self-pipe) or by a client's SHUTDOWN verb — then drains:
///            stops accepting, checkpoints + finalizes every session
///            (clients get DRAINING/FINAL/BYE), closes, returns;
///   a restarted server with the same --checkpoint-store-dir resumes every
///   tenant from its per-stream checkpoint on the tenant's next HELLO.
///
/// Backpressure: a client whose session's inbox exceeds its quota is
/// simply not read until the pump catches up — the kernel's TCP window
/// pushes back to the producer, bounding per-session memory. Outbound,
/// every client socket is non-blocking and replies go through a bounded
/// per-connection output queue drained on POLLOUT: a client that stops
/// reading backpressures only itself (its queue fills, it is muted and
/// disconnected — a counted event), and neither the event loop nor any
/// pump thread ever blocks in write(2).
///
/// A connection can multiplex many tenants (`HELLO ... mux=on`, framing
/// in server/protocol.h), and the server can require a shared auth token
/// checked before any session state is created.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SERVER_SERVER_H
#define AWDIT_SERVER_SERVER_H

#include "server/session_registry.h"
#include "support/socket.h"
#include "support/thread_pool.h"

#include <atomic>
#include <memory>
#include <string>

namespace awdit {
namespace server {

struct ServerOptions {
  /// Listen address (dotted-quad IPv4).
  std::string Host = "127.0.0.1";
  /// Line-protocol port; 0 picks an ephemeral port (see Server::port()).
  uint16_t Port = 0;
  /// Serve the /metrics endpoint (on MetricsPort; 0 = ephemeral).
  bool EnableMetrics = false;
  uint16_t MetricsPort = 0;
  /// Per-stream checkpoint stores (`<dir>/<stream>.store/`, O(delta) per
  /// checkpoint) live here; empty disables persistence.
  std::string CheckpointDir;
  /// Per-stream JSONL violation sinks live here; empty disables them.
  std::string SinkDir;
  /// Where the `TRACE dump` verb writes Chrome-trace JSON files; empty
  /// rejects the dump (recording via `TRACE on|off` still works — a
  /// debugger can read the rings).
  std::string TraceDir;
  /// Worker threads of the shared pool (0 = all cores).
  unsigned Threads = 0;
  /// Evict detached sessions idle this long (seconds; 0 = never).
  uint64_t IdleTimeoutSec = 300;
  /// Checkpoint cadence in checking passes.
  uint64_t CheckpointIntervalFlushes = 16;
  /// Hot-session upgrade: extra threads a session crossing the data-rate
  /// threshold may claim for a per-session sharded ingest pipeline
  /// (io/sharded_ingest.h). -1 = auto (4 when the shared pool has >= 4
  /// threads, else off), 0 = off, >= 2 = that many threads per hot
  /// session. Output stays byte-identical either way.
  int ShardHotSessions = -1;
  /// A connection whose inbound data rate crosses this many bytes per
  /// second is treated as hot and ships zero-copy spans.
  uint64_t HotBytesPerSec = 8ull << 20;
  /// Shared-secret authentication: when non-empty, every HELLO must carry
  /// a matching `token=` or is rejected (`ERR auth ...`) before any
  /// session state is created.
  std::string AuthToken;
  /// Per-session inbox quota: default and cap for HELLO `inbox-bytes=`.
  /// The event loop stops reading a client whose session is this far
  /// behind (backpressure via the TCP window).
  size_t MaxInboxBytes = 4 << 20;
  /// Per-connection output-queue quota: default and cap for HELLO
  /// `outq-bytes=`. A connection whose un-sent replies exceed this is
  /// muted and disconnected (counted in
  /// awdit_server_slow_client_disconnects_total).
  size_t MaxOutQueueBytes = 8 << 20;
  /// Per-tenant window-memory quota (approximate bytes of live monitor
  /// state): default and cap for HELLO `window-bytes=`. 0 = unlimited.
  uint64_t MaxWindowBytes = 0;
  /// SO_SNDBUF for client sockets (bytes; 0 = kernel default). Mostly a
  /// testing/tuning knob: a small kernel send buffer makes the userspace
  /// output queue — and its quota — the binding constraint.
  int SockSndBuf = 0;
};

/// The server. One instance per process; start() then run() (typically on
/// its own thread in tests, on the main thread in the CLI).
class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listeners. False with \p Err set on failure.
  bool start(std::string *Err);

  /// The event loop; returns after a requested shutdown has drained every
  /// session.
  void run();

  /// Requests shutdown + drain. Async-signal-safe (writes one byte to a
  /// self-pipe); callable from any thread or from a signal handler.
  void requestShutdown();

  uint16_t port() const { return Listener.port(); }
  uint16_t metricsPort() const { return MetricsListener.port(); }

  /// The Prometheus-style metrics page (also served on /metrics).
  std::string renderMetrics() const;

private:
  struct Conn;
  struct MuxWriter;

  void acceptClient();
  void serveMetricsConn();
  void readConn(const std::shared_ptr<Conn> &C);
  /// Walks the whole lines of \p Span: control verbs route through
  /// handleLine; contiguous runs of data lines on a hot connection become
  /// zero-copy PageSpans in the current batch.
  void dispatchLines(const std::shared_ptr<Conn> &C, const PageSpan &Span);
  void handleLine(const std::shared_ptr<Conn> &C, std::string_view Line);
  /// The mux-mode line router: `@<stream> [line]` frames, `@@` payload
  /// escapes, bare lines to the current stream.
  void handleMuxLine(const std::shared_ptr<Conn> &C, std::string_view Line);
  /// Routes one unframed payload line (verb or data) to a mux stream.
  void routeMuxPayload(const std::shared_ptr<Conn> &C,
                       const std::string &Stream, std::string_view Payload);
  void flushBatch(const std::shared_ptr<Conn> &C);
  void handleHello(const std::shared_ptr<Conn> &C, std::string_view Line);
  /// The connection-level `TRACE on|off|dump` verb (tracing is process
  /// state; the verb needs no session).
  void handleTrace(const std::shared_ptr<Conn> &C, std::string_view Line);
  void closeConn(const std::shared_ptr<Conn> &C);
  /// Drains as much of \p C's output queue as the kernel buffer takes
  /// right now (event-loop thread, on POLLOUT). A hard send error mutes
  /// the connection.
  void drainConnOutput(const std::shared_ptr<Conn> &C);
  /// Bounded best-effort flush of every connection's queued DRAINING/
  /// FINAL/BYE courtesies at shutdown; a client that stopped reading
  /// cannot hold the drain hostage.
  void flushOutputAtDrain();
  std::string serverStatsJson(bool Deep = false) const;

  ServerOptions Options;
  TcpListener Listener;
  TcpListener MetricsListener;
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> ShutdownRequested{false};

  /// Destruction order matters: ~Server joins the pool (so no session
  /// pump can still be running) before the registry goes away — both are
  /// torn down explicitly there.
  std::unique_ptr<ThreadPool> Pool;
  std::unique_ptr<SessionRegistry> Registry;

  std::vector<std::shared_ptr<Conn>> Conns;
  uint64_t LastSweepSec = 0;

  // Operational counters (exported on /metrics).
  std::atomic<uint64_t> AuthFailures{0};
  std::atomic<uint64_t> QuotaRejects{0};
  std::atomic<uint64_t> SlowClientDrops{0};
  /// High-water mark of one event-loop iteration's handling time in
  /// microseconds (poll(2) return to next poll(2) entry). The liveness
  /// witness the soak CI asserts on: the loop never blocks in write(2),
  /// so a stalled client cannot push this toward the old SO_SNDTIMEO
  /// stalls. Rolling: each /metrics scrape reads-and-resets it (hence
  /// mutable — renderMetrics is logically const), so alerting sees the
  /// worst stall *since the last scrape* instead of a one-time startup
  /// blip pinned forever; the `_lifetime` variant below keeps the
  /// process-wide high water for the CI gate.
  mutable std::atomic<uint64_t> MaxPollStallMicros{0};
  std::atomic<uint64_t> MaxPollStallLifetimeMicros{0};
  /// TRACE dump files get increasing sequence numbers within the process.
  uint64_t TraceDumpSeq = 0;

  /// A single protocol/stream line may not exceed this (bounds the
  /// per-connection assembly buffer against a newline-free firehose).
  static constexpr size_t MaxLineBytes = 1 << 20;
};

} // namespace server
} // namespace awdit

#endif // AWDIT_SERVER_SERVER_H
