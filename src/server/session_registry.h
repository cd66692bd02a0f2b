//===- server/session_registry.h - Per-stream monitor sessions ---*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tenant layer of `awdit serve`: a SessionRegistry owns one
/// StreamSession — Monitor + format StreamMachine + sinks + counters — per
/// named stream. Sessions are created lazily on the first HELLO, restored
/// from their per-stream checkpoint store (checker/checkpoint.h) when one
/// exists, detached when their client disconnects, evicted (with
/// a final checkpoint) after an idle timeout, and drained — checkpoint,
/// then finalize — when the server shuts down.
///
/// Concurrency model (the "pinned actor" design the server's event loop
/// relies on):
///
///  - the event loop thread is the only *producer*: it appends work items
///    (line batches, control verbs) to a session's inbox and schedules a
///    pump task on the shared thread pool when none is running;
///  - at most one pump task per session runs at a time (the Running flag,
///    set and cleared under the inbox mutex), so the Monitor, the machine,
///    and the sink files are single-writer — exactly the contract the
///    Monitor requires — while different sessions pump in parallel across
///    the pool;
///  - everything the event loop or the /metrics endpoint reads while a
///    pump may be running (counters, phase, activity clock) is mirrored
///    into atomics.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SERVER_SESSION_REGISTRY_H
#define AWDIT_SERVER_SESSION_REGISTRY_H

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/stats_snapshot.h"
#include "checker/violation_sink.h"
#include "io/sharded_ingest.h"
#include "io/stream_parser.h"
#include "server/protocol.h"
#include "support/byte_arena.h"
#include "support/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace awdit {
namespace server {

/// The steady clock in whole seconds — the server's one activity/idle
/// timebase (session touch(), the sweep scan, the event loop's
/// housekeeping tick all read this same function).
inline uint64_t steadyNowSec() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Where a session pushes protocol reply lines for its attached client.
/// Implemented by the server's connection objects; sendLine() must be
/// thread-safe (pumps call it from pool threads, the event loop from its
/// own).
class ResponseWriter {
public:
  virtual ~ResponseWriter() = default;

  /// Writes \p Line plus a newline to the client. Failures (client gone)
  /// are swallowed — the stream's durable record is the JSONL sink, not
  /// the push channel.
  virtual void sendLine(const std::string &Line) = 0;
};

/// Server-level configuration shared by every session.
struct SessionEnv {
  /// Per-stream checkpoint stores (`<CheckpointDir>/<stream>.store/`,
  /// checker/checkpoint.h StoreCheckpointer) live here; empty disables
  /// persistence.
  std::string CheckpointDir;
  /// Per-stream JSON-lines violation sinks and summaries live here; empty
  /// disables them.
  std::string SinkDir;
  /// Write a checkpoint every this many checking passes (and always at
  /// detach, idle eviction, and drain).
  uint64_t CheckpointIntervalFlushes = 16;
  /// Extra threads a hot session's pump may spawn when it upgrades to the
  /// sharded ingest pipeline (io/sharded_ingest.h); < 2 disables the
  /// upgrade and every session stays on the inline decoder.
  unsigned HotThreads = 0;
  /// A connection whose data rate crosses this (bytes per steady second)
  /// starts shipping zero-copy page spans, upgrading its session.
  uint64_t HotBytesPerSec = 8ull << 20;
  /// Per-session inbox quota (bytes of enqueued-but-unprocessed data):
  /// both the default and the hard cap a HELLO `inbox-bytes=` request may
  /// not exceed. The event loop stops reading a client whose session is
  /// this far behind.
  size_t MaxInboxBytes = 4 << 20;
  /// Per-tenant window-memory quota (approximate bytes of live monitor
  /// state, see approxWindowBytes()): default and cap for HELLO
  /// `window-bytes=`. 0 = unlimited. A tenant crossing its quota gets a
  /// typed `ERR quota` and the stream wedges (Failed) without disturbing
  /// its neighbors.
  uint64_t MaxWindowBytes = 0;
};

/// A coarse, deterministic estimate of a monitor's live window footprint
/// in bytes — what the per-tenant `window-bytes=` quota is enforced
/// against. Derived from the public counters (live transactions and graph
/// edges), not malloc introspection, so it is stable across platforms and
/// cheap enough for every flush.
uint64_t approxWindowBytes(const MonitorStats &S);

/// One tenant: a named stream with its own Monitor, format machine, and
/// sinks. Created/attached only through SessionRegistry.
class StreamSession : public std::enable_shared_from_this<StreamSession> {
public:
  /// Lifecycle phase (atomic mirror; written by the pump).
  enum class Phase : uint8_t {
    /// Ingesting and checking.
    Active,
    /// A parse or model error wedged the stream; further data is dropped.
    Failed,
    /// Terminal: ENDed, drained, or evicted. The registry sweeps it.
    Dead,
  };

  /// Why a session went Dead (for the registry's metrics fold).
  enum class Retire : uint8_t { None, Ended, Evicted, Drained };

  /// One unit of pump work.
  struct Item {
    enum class Kind : uint8_t { Data, Stats, Detach, End, Evict, Drain };
    Kind K = Kind::Data;
    /// For Stats: the `STATS deep` form — add flush-latency percentiles
    /// and the per-phase breakdown to the reply.
    bool Deep = false;
    /// For Data: raw lines (newline stripped, CR kept; byte accounting
    /// adds the newline back).
    std::vector<std::string> Lines;
    /// For Data from a hot connection: verbatim stream bytes (newlines
    /// included) as refcounted spans of the connection's read pages —
    /// zero-copy from read(2) to the shard workers. The first Spans item a
    /// pump sees upgrades the session to the sharded pipeline.
    std::vector<PageSpan> Spans;
    size_t Bytes = 0;
    /// For Detach: true when the client just vanished (no reply).
    bool Quiet = false;
  };

  StreamSession(std::string Name, std::string Format, MonitorOptions Options,
                const SessionEnv &Env);

  const std::string &name() const { return Name; }
  const std::string &format() const { return Format; }
  const MonitorOptions &options() const { return Options; }

  Phase phase() const { return PhaseAtomic.load(std::memory_order_acquire); }
  bool attached() const {
    std::lock_guard<std::mutex> L(AttachMu);
    return Writer != nullptr;
  }
  /// True once eviction or drain has been scheduled; blocks re-attach.
  bool retiring() const {
    std::lock_guard<std::mutex> L(InboxMu);
    return Retiring;
  }
  void markRetiring() {
    std::lock_guard<std::mutex> L(InboxMu);
    Retiring = true;
  }
  /// Bytes of enqueued-but-unprocessed data; the event loop stops reading
  /// a client whose session is this far behind (backpressure).
  size_t inboxBytes() const {
    return InboxBytes.load(std::memory_order_relaxed);
  }
  /// The session's inbox backpressure threshold (HELLO `inbox-bytes=`,
  /// clamped to SessionEnv::MaxInboxBytes). Event-loop thread only.
  size_t inboxQuota() const { return InboxQuotaBytes; }
  /// Typed `ERR quota` rejections this session has pushed (window-memory
  /// trips); folded into the registry totals.
  uint64_t quotaTrips() const {
    return QuotaTripsAtomic.load(std::memory_order_relaxed);
  }
  /// Monotonic activity clock (steady seconds), for the idle-eviction
  /// scan.
  uint64_t lastActivitySec() const {
    return LastActivitySec.load(std::memory_order_relaxed);
  }
  void touch();

  /// Stream cursor as of session creation/restore plus applied lines —
  /// what a (re)attaching client must seek its input to.
  uint64_t streamOffset() const {
    return OffsetAtomic.load(std::memory_order_acquire);
  }
  uint64_t lineNo() const {
    return LineNoAtomic.load(std::memory_order_acquire);
  }

  /// Point-in-time cumulative counters (relaxed reads of the pump's
  /// mirror) — the per-stream view: includes everything the stream's
  /// checkpoint carried in from before this session object existed.
  StatsSnapshot counters() const;
  /// The work done by *this process* on the stream: counters() minus the
  /// restored checkpoint base. What the registry folds into the aggregate
  /// /metrics totals, so an evict + resume cycle cannot double-count.
  StatsSnapshot countersSinceCreation() const;
  uint64_t checkpointsWritten() const {
    return CheckpointsAtomic.load(std::memory_order_relaxed);
  }
  /// Times this session upgraded its pump to the sharded ingest pipeline
  /// (0 or more; a session downgraded by a control verb can re-upgrade).
  uint64_t hotUpgrades() const {
    return HotUpgradesAtomic.load(std::memory_order_relaxed);
  }
  /// True while the sharded pipeline is driving the stream.
  bool hotUpgraded() const {
    return HotAtomic.load(std::memory_order_acquire);
  }

  /// Cumulative micros the stream's flushes spent in phase \p I (an
  /// obs::FlushPhase index) — the per-stream breakdown /metrics renders.
  /// Mirror semantics like counters(): published at pump idle and at hot
  /// flush barriers.
  uint64_t flushPhaseMicros(unsigned I) const {
    return CPhaseMicros[I].load(std::memory_order_relaxed);
  }

  /// Enqueues \p I and schedules a pump on \p Pool if none is running.
  /// Event-loop thread only.
  void enqueue(Item I, ThreadPool &Pool);

  /// Attaches \p W as the session's client. Event-loop thread only; the
  /// caller (registry) has already checked the session is unattached.
  void attachWriter(std::shared_ptr<ResponseWriter> W);
  /// Clears the attached client without a reply (connection vanished).
  /// Safe from the event loop; the pump re-checks under the same mutex.
  void detachWriter();

private:
  friend class SessionRegistry;

  void pump();
  void processItem(const Item &I);
  void applyDataLine(std::string_view Raw);
  /// Cold-path fallback for a Spans item when the upgrade is unavailable:
  /// splits the span and applies line by line.
  void applyDataSpan(const PageSpan &S);
  /// Upgrades the pump to a per-session sharded ingest pipeline: the
  /// session's machine state moves into the pipeline and subsequent data
  /// feeds it (zero-copy for spans). No-op unless Active, configured
  /// (Env.HotThreads >= 2), and not already upgraded.
  void maybeUpgradeHot();
  /// Tears the sharded pipeline down (lossless: server feeds are always
  /// whole lines) and moves the machine state and stream cursor back into
  /// the pump. Surfaces any pipeline error as the usual ERR + Failed
  /// phase. Must run before any verb that reads the machine or monitor.
  void quiesceHot();
  /// Flush-barrier callback while upgraded; runs on the pipeline's applier
  /// thread, which owns the Monitor at that point. Handles the checkpoint
  /// cadence and the counter mirror — the pump skips both while upgraded.
  void hotFlushPoint(const IngestFlushPoint &P);
  void publishCounters();
  /// Pump-side window-memory quota check (reads the mirror published by
  /// publishCounters()/hotFlushPoint(), so it works in both pump modes):
  /// over quota → quiesce, typed `ERR quota`, Failed phase.
  void enforceWindowQuota();
  void maybeCheckpoint(bool Force);
  /// Writes one checkpoint of \p Machine at the given stream cut (shared
  /// by the pump path and the hot flush hook).
  void writeCheckpointNow(const StreamMachine &Machine, uint64_t AtOffset,
                          uint64_t AtLineNo, uint64_t Flushes);
  void finalizeSession(bool ToSinkFile, const char *ReplyVerb);
  void sendToClient(const std::string &Line);
  std::string taggedJson(const char *Verb, const std::string &Json) const;
  /// Opens the per-stream JSONL sink. A fresh stream truncates (a reused
  /// stream id must not append to a finished run's record); a resumed one
  /// appends after the registry reconciled the file against the restored
  /// checkpoint.
  void openSink(bool Fresh);

  // --- Immutable after construction. ---
  const std::string Name;
  const std::string Format;
  const MonitorOptions Options;
  const SessionEnv Env;

  // --- Pump-thread state (single-writer by the Running flag). ---
  /// Pushes each violation to the JSONL sink file (exactly-once, resumes
  /// append across restarts) and to the attached client.
  class Sink final : public ViolationSink {
  public:
    explicit Sink(StreamSession &S) : S(S) {}
    void onViolation(const Violation &V,
                     const std::string &Description) override;
    /// Set during drain-finalize: the courtesy report still reaches the
    /// client, but the durable JSONL stream stays the exactly-once record
    /// a resumed session continues.
    bool SuppressFile = false;

  private:
    StreamSession &S;
  };

  Sink ViolationsOut{*this};
  Monitor M;
  LineDecoder Decode = nullptr;
  std::unique_ptr<StreamMachine> Machine;
  std::unique_ptr<std::ofstream> SinkFile;
  /// The stream's checkpoint store. Set by the registry on a resume,
  /// opened lazily by the first checkpoint of a fresh stream; pump-thread
  /// only after hello() publishes the session.
  std::unique_ptr<StoreCheckpointer> StoreCkpt;
  uint64_t Offset = 0;
  uint64_t LineNo = 0;
  uint64_t LastCkptFlushes = 0;
  uint64_t Checkpoints = 0;
  Phase PhaseLocal = Phase::Active;
  Retire RetireReason = Retire::None;
  /// Set in the drain path after the last meaningful publish: the
  /// courtesy finalize that follows detects end-of-stream violations a
  /// resumed run will re-detect, and those must not leak into the folded
  /// totals (they are not in the durable record either).
  bool CountersFrozen = false;
  /// The restored checkpoint's counters (zero for a fresh stream); see
  /// countersSinceCreation().
  StatsSnapshot Base;
  /// The hot-session upgrade: while set, this pipeline owns the Monitor
  /// and the live machine state (the Machine member is stale until
  /// quiesceHot() moves the state back). Declared after M/Machine so it is
  /// destroyed — joining its threads — before them.
  std::unique_ptr<ShardedMonitorIngest> Sharded;

  // --- Inbox (event loop -> pump). ---
  mutable std::mutex InboxMu;
  std::deque<Item> Inbox;
  bool Running = false;
  /// Set once the registry scheduled eviction/drain; blocks re-attach.
  bool Retiring = false;

  // --- Attached client (event loop <-> pump). ---
  mutable std::mutex AttachMu;
  std::shared_ptr<ResponseWriter> Writer;

  // --- Atomic mirrors for cross-thread readers. ---
  std::atomic<Phase> PhaseAtomic{Phase::Active};
  std::atomic<size_t> InboxBytes{0};
  std::atomic<uint64_t> LastActivitySec{0};
  std::atomic<uint64_t> OffsetAtomic{0};
  std::atomic<uint64_t> LineNoAtomic{0};
  std::atomic<uint64_t> CheckpointsAtomic{0};
  std::atomic<uint64_t> CTxns{0}, CCommitted{0}, COps{0}, CLive{0},
      CViolations{0}, CFlushes{0}, CEvicted{0}, CForced{0}, CFlushMicros{0};
  std::atomic<uint64_t> CPhaseMicros[obs::NumFlushPhases] = {};
  std::atomic<bool> HotAtomic{false};
  std::atomic<uint64_t> HotUpgradesAtomic{0};
  /// The latest approxWindowBytes() estimate (published with the counter
  /// mirror) and the quota it is checked against. The quota is written by
  /// the registry on (re-)attach and read by the pump, hence atomic.
  std::atomic<uint64_t> WindowBytesApprox{0};
  std::atomic<uint64_t> WindowQuotaBytes{0};
  std::atomic<uint64_t> QuotaTripsAtomic{0};
  /// Inbox backpressure threshold; event-loop thread only (written on
  /// attach, read by the poll loop's read gate).
  size_t InboxQuotaBytes = 4 << 20;

  /// Signals the registry when this session turns Dead (drain waits on
  /// it). Set by the registry at construction.
  std::function<void(StreamSession &)> OnDead;
};

/// Owns every live session; all entry points run on the event-loop thread
/// unless stated otherwise.
class SessionRegistry {
public:
  SessionRegistry(SessionEnv Env, ThreadPool &Pool)
      : Env(std::move(Env)), Pool(Pool) {}

  /// The HELLO entry point: create, resume from checkpoint, or re-attach.
  struct HelloResult {
    std::shared_ptr<StreamSession> Session; ///< null on error
    std::string Status;                     ///< "new"|"resumed"|"attached"
    uint64_t Offset = 0;
    uint64_t LineNo = 0;
    std::string Err;
  };
  HelloResult hello(const HelloRequest &Req,
                    std::shared_ptr<ResponseWriter> Writer);

  /// True when sessions may upgrade to the sharded ingest pipeline.
  bool hotEnabled() const { return Env.HotThreads >= 2; }

  /// Sweeps Dead sessions out of the map and schedules eviction of
  /// detached sessions idle for more than \p IdleTimeoutSec (0 disables).
  /// \p NowSec is the steady clock in seconds. Returns the number of
  /// evictions scheduled.
  size_t sweep(uint64_t NowSec, uint64_t IdleTimeoutSec);

  /// Drains every session (checkpoint + finalize) and waits until all
  /// pumps have retired them. Called once, at shutdown.
  void drainAll();

  /// Aggregate totals for /metrics: live sessions are summed on the fly,
  /// retired sessions from the fold-in accumulators. Counters have
  /// process-lifetime semantics (the usual Prometheus counter contract):
  /// work a resumed tenant's checkpoint carried in from a previous
  /// process is its base, not new work, so evict + resume cycles never
  /// double-count.
  struct Totals {
    uint64_t SessionsLive = 0;
    uint64_t SessionsCreated = 0;
    uint64_t SessionsResumed = 0;
    uint64_t SessionsEvicted = 0;
    uint64_t SessionsEnded = 0;
    uint64_t Checkpoints = 0;
    uint64_t HotUpgrades = 0;
    uint64_t QuotaTrips = 0;
    StatsSnapshot Counters;
  };
  Totals totals() const;

  /// Snapshot of the live sessions (for per-session /metrics lines and
  /// the pre-HELLO STATS verb). Thread-safe.
  std::vector<std::shared_ptr<StreamSession>> sessions() const;

private:
  void onSessionDead(StreamSession &S);
  /// Folds a retired session's counters into the accumulators. Caller
  /// holds Mu.
  void fold(StreamSession &S);
  /// Applies a HELLO's per-tenant quota requests to \p S, clamped to the
  /// Env caps (the server already rejected over-cap requests with a typed
  /// `ERR quota`; the clamp keeps direct registry users safe too).
  /// Defaults apply where the HELLO gave nothing.
  void applyQuotas(StreamSession &S, const HelloRequest &Req) const;

  SessionEnv Env;
  ThreadPool &Pool;

  mutable std::mutex Mu;
  std::unordered_map<std::string, std::shared_ptr<StreamSession>> Sessions;
  std::condition_variable DeadCv;

  // Fold-in accumulators of retired sessions (guarded by Mu).
  uint64_t Created = 0, Resumed = 0, Evicted = 0, Ended = 0;
  StatsSnapshot Retired;
  uint64_t RetiredCheckpoints = 0;
  uint64_t RetiredHotUpgrades = 0;
  uint64_t RetiredQuotaTrips = 0;
};

} // namespace server
} // namespace awdit

#endif // AWDIT_SERVER_SESSION_REGISTRY_H
