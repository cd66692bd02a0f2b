//===- checker/monitor.h - Streaming online-checking session -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming entry point of the AWDIT library: a long-lived Monitor
/// session that ingests sessions/transactions/operations as they arrive
/// from a running database (mirroring HistoryBuilder's begin/read/write/
/// commit surface), resolves the wr relation incrementally, and drives the
/// incremental saturation engine (checker/saturation_state.h) with the
/// delta of newly committed or retroactively re-resolved transactions at a
/// configurable cadence — per-flush work is proportional to the delta, not
/// the live window. Violations are pushed to a pluggable ViolationSink the
/// moment they become detectable (read-level axioms when the transaction
/// is checked, cycles the instant the closing edge is inserted) instead of
/// being returned after the whole history has been materialized.
///
/// Without eviction, finalize() returns the one-shot checkIsolation()
/// report over everything ingested — a replayed history is bit-identical
/// to checking it in one shot (enforced by tests/test_monitor.cpp).
///
/// A windowed mode bounds memory on unbounded streams: transactions older
/// than a count-, edge-, or age-based horizon are evicted from the
/// in-memory window (with stats reporting what was dropped), at the
/// documented cost of completeness — anomalies whose witnesses span beyond
/// the window are no longer detectable, and reads observing evicted writes
/// are counted rather than reported as thin-air. Streams that carry
/// timestamps (advanceTime()) can additionally evict by wall-clock age and
/// force-abort long-open transactions that would otherwise pin the
/// evictable prefix behind a hung session.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_MONITOR_H
#define AWDIT_CHECKER_MONITOR_H

#include "checker/checker.h"
#include "checker/saturation_state.h"
#include "checker/violation_sink.h"
#include "history/history.h"
#include "history/wr_resolver.h"
#include "obs/histogram.h"

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;
class ThreadPool;
struct ChunkMark;
struct StateCoords;

/// Options of one monitoring session.
struct MonitorOptions {
  /// The isolation level to monitor.
  IsolationLevel Level = IsolationLevel::CausalConsistency;
  /// Options of the underlying checking algorithms (witness budget, CC
  /// variant and thread count of the canonical finalize pass, ...).
  CheckOptions Check;
  /// Run an incremental checking pass every this many commits. 0 checks
  /// only on explicit check() calls and at finalize().
  size_t CheckIntervalTxns = 0;
  /// Windowed mode: evict the oldest transactions once more than this many
  /// are live (0 = keep everything; exact checking). Only a prefix of
  /// closed, fully processed transactions can leave: a transaction that is
  /// left open indefinitely pins everything after it in memory — see
  /// ForceAbortOpenTicks for the escape hatch when streams carry
  /// timestamps.
  size_t WindowTxns = 0;
  /// Windowed mode, edge-based horizon: evict the oldest quarter of the
  /// window whenever the commit graph of the window exceeds this many
  /// edges (0 = no edge horizon).
  size_t WindowEdges = 0;
  /// Windowed mode, age-based horizon: when the stream carries timestamps
  /// (advanceTime()), evict closed transactions whose close timestamp is
  /// older than the latest timestamp minus this many ticks (0 = no age
  /// horizon). Ticks are whatever unit the stream reports.
  uint64_t WindowAgeTicks = 0;
  /// Force-abort an open transaction once it has been open for more than
  /// this many ticks of stream time (0 = never). A hung session otherwise
  /// pins the evictable prefix: nothing behind its open transaction can
  /// leave the window. Forced aborts are reported in
  /// MonitorStats::ForcedAborts; reads that observed the aborted writes
  /// are reported as aborted reads, exactly as a real abort would be. If
  /// the hung session later resumes using the handle, its operations and
  /// its eventual commit/abort are dropped quietly.
  uint64_t ForceAbortOpenTicks = 0;
};

/// Statistics of a monitoring session. Counters are cumulative over the
/// whole stream unless stated otherwise.
struct MonitorStats {
  uint64_t IngestedTxns = 0;
  uint64_t IngestedOps = 0;
  uint64_t CommittedTxns = 0;
  /// Transactions currently held in the window.
  uint64_t LiveTxns = 0;
  /// Incremental checking passes run so far.
  uint64_t Flushes = 0;
  /// Distinct inferred co' edges currently live in the window.
  uint64_t InferredEdges = 0;
  /// Edges of the window's commit graph at the last checking pass.
  uint64_t GraphEdges = 0;
  /// Violations delivered to the sink so far.
  uint64_t ReportedViolations = 0;
  /// Reads whose (key, value) has no live write yet (thin-air candidates).
  uint64_t UnresolvedReads = 0;
  // --- Windowed mode only. ---
  uint64_t EvictedTxns = 0;
  uint64_t Compactions = 0;
  /// Unresolved reads dropped because their reader was evicted.
  uint64_t EvictedUnresolvedReads = 0;
  /// Live reads whose writer was evicted (excluded from checking).
  uint64_t EvictedWriterReads = 0;
  /// Transactions evicted because they aged past WindowAgeTicks.
  uint64_t AgeEvictedTxns = 0;
  /// Open transactions force-aborted after ForceAbortOpenTicks.
  uint64_t ForcedAborts = 0;
  /// Cumulative wall-clock time spent inside checking passes, in
  /// microseconds. Host-local timing, not part of the monitor's logical
  /// state: it is excluded from checkpoints (the bytes stay canonical for
  /// a given state) and from the end-of-run summary (which must be
  /// byte-identical across resumed runs). Consumed by the periodic stats
  /// line (`awdit monitor --stats-interval`) and the server's /metrics.
  uint64_t FlushMicros = 0;
};

/// A streaming online-checking session. Not thread-safe: one monitor per
/// ingestion thread (shard streams across monitors for parallelism).
///
/// Typical usage:
/// \code
///   JsonLinesSink Sink(std::cout);
///   MonitorOptions Options;
///   Options.Level = IsolationLevel::CausalConsistency;
///   Options.CheckIntervalTxns = 256;
///   Monitor M(Options, &Sink);
///   SessionId S = M.addSession();
///   TxnId T = M.beginTxn(S);
///   M.write(T, /*K=*/1, /*V=*/10);
///   M.commit(T);                // violations stream to Sink as detected
///   CheckReport Report = M.finalize();
/// \endcode
///
/// Transaction ids handed out by beginTxn() are *monitor ids*: assigned
/// monotonically over the stream and stable in all reported violations,
/// even after windowed eviction has renumbered the in-memory window.
///
/// Session order (so) is the order of commit() calls within a session.
/// When transactions of one session are fed strictly sequentially — the
/// case for every database session log, and for replay() — this coincides
/// with HistoryBuilder's begin-order semantics.
class Monitor {
public:
  explicit Monitor(const MonitorOptions &Options = {},
                   ViolationSink *Sink = nullptr);

  // --- Ingestion (mirrors HistoryBuilder). ---

  /// Adds a new, empty session and returns its id.
  SessionId addSession();

  /// Opens a new transaction in session \p S; returns its monitor id.
  TxnId beginTxn(SessionId S);

  /// Appends a read of (\p K, \p V) to the open transaction \p T.
  void read(TxnId T, Key K, Value V);

  /// Appends a write of (\p K, \p V) to the open transaction \p T.
  /// Returns false (and records errorText()) if (key, value) was already
  /// written — the unique-value model invariant; the first write wins.
  bool write(TxnId T, Key K, Value V);

  /// Appends an arbitrary operation; returns false as write() does.
  bool append(TxnId T, Operation Op);

  /// Commits the open transaction \p T. Triggers an incremental checking
  /// pass when CheckIntervalTxns commits have accumulated.
  void commit(TxnId T);

  /// Aborts the open transaction \p T.
  void abortTxn(TxnId T);

  /// Advances the stream clock to \p Now (monotonic; stale values are
  /// ignored). Ticks are whatever unit the stream reports — seconds,
  /// milliseconds, a logical epoch. Enables the WindowAgeTicks and
  /// ForceAbortOpenTicks policies.
  void advanceTime(uint64_t Now);

  /// Feeds a complete history through the ingestion API in transaction-id
  /// order. A fresh monitor assigns the same ids the history uses.
  void replay(const History &H);

  /// Moves the fully derived ingested history out of the monitor without
  /// running any check, ending the session. Every transaction must be
  /// closed and nothing may have been evicted. This makes the monitor
  /// double as an incremental HistoryBuilder: parseTextHistory() is a
  /// feed-then-take wrapper over the streaming parser, so the native
  /// grammar exists in exactly one place.
  History takeHistory();

  // --- Checking. ---

  /// Runs an incremental checking pass now (also triggered automatically
  /// every CheckIntervalTxns commits). Returns true iff no violation has
  /// been detected so far in the stream.
  bool check();

  /// Completes the session: still-open transactions are treated as
  /// aborted, the final checking pass runs, and every not-yet-reported
  /// violation is delivered to the sink. When nothing was evicted the
  /// returned report is the canonical one-shot checkIsolation() result
  /// over the whole ingested history. In windowed mode (after
  /// evictions) the report instead aggregates the violations streamed
  /// over the whole run, capped at MaxWindowedReportViolations entries
  /// (the sink saw every one as it happened; ReportedViolations has the
  /// true count). May be called once.
  CheckReport finalize();

  // --- Introspection. ---

  /// Current statistics (LiveTxns/InferredEdges/UnresolvedReads refreshed
  /// on access).
  const MonitorStats &stats();

  /// True once any violation has been reported.
  bool hadViolation() const { return AnyViolation; }

  /// Checking passes run so far (cheap; the sharded ingest pipeline polls
  /// this after every applied event to detect flush boundaries).
  uint64_t flushCount() const { return Stats.Flushes; }

  /// Routes flush-time CC saturation speculation to \p Pool (non-owning;
  /// nullptr disables). The sharded ingest pipeline installs its worker
  /// pool here so the checking half of each flush runs speculatively in
  /// parallel; verdicts, violation streams, and summaries stay
  /// bit-identical to the sequential path (the merge adopts a speculative
  /// delta only when its inputs provably did not change). The pool must
  /// outlive the monitor or be detached with nullptr first.
  void setSpeculation(ThreadPool *Pool, size_t MinBatch = 16) {
    Saturation.setSpeculation(Pool, MinBatch);
  }

  /// Speculation telemetry (host-local: varies with thread count, so it is
  /// excluded from checkpoints and summaries — those must stay
  /// byte-identical across `--threads`).
  uint64_t speculationAdoptedRows() const {
    return Saturation.specAdoptedRows();
  }
  uint64_t speculationRecomputedRows() const {
    return Saturation.specRecomputedRows();
  }

  /// Host-local flush latency telemetry (obs/histogram.h). Like
  /// FlushMicros it is wall-clock state: excluded from checkpoints and
  /// summaries, consumed by `STATS deep`, the periodic stats line's
  /// p50/p99, and the server's per-stream /metrics breakdown. The
  /// histogram carries one sample per checking pass.
  const obs::LatencyHistogram &flushLatency() const { return FlushHist; }
  /// Cumulative micros per flush phase, indexed by obs::FlushPhase.
  const uint64_t *flushPhaseMicros() const { return PhaseMicros; }

  /// Set when an ingestion-level error occurred (duplicate write).
  const std::string &errorText() const { return ErrText; }

  /// Number of sessions added so far.
  size_t numSessions() const { return SessionSoBase.size(); }

  /// A short label for a monitor transaction id, e.g. "t12(s3#4)" or
  /// "t12(evicted)".
  std::string txnLabel(TxnId MonitorId) const;

  /// Renders a violation (in monitor ids) as a one-line description.
  std::string describe(const Violation &V) const;

  // --- Persistent checkpoints (checker/checkpoint.h). ---

  /// Serializes the complete monitoring state — live window, wr
  /// resolution, saturation engine, exactly-once delivery state, stats —
  /// so a restored monitor continues the stream emitting exactly the
  /// violations a never-stopped monitor would have emitted from this point
  /// on. Transaction ids and so-indices are written in *global*
  /// coordinates — rebase-invariant under windowed eviction — and \p Marks
  /// receives the chunk boundaries (strictly increasing ids; see
  /// support/serialize.h). \p IdBase and \p SoBase receive the coordinate
  /// bases the bytes were written under; a restore needs them back to
  /// invert the transform, so the store keeps them in the root's meta
  /// blob. Unordered containers are written in sorted order and unchanged
  /// state re-serializes into byte-identical chunks, which is what makes a
  /// store commit O(delta). Must not be finalized.
  void saveStateChunked(std::string &Bytes, std::vector<ChunkMark> &Marks,
                        uint32_t &IdBase,
                        std::vector<uint64_t> &SoBase) const;

  /// Restores reassembled saveStateChunked() bytes (chunks concatenated in
  /// ascending id order) written under \p IdBase / \p SoBase into a
  /// freshly constructed monitor (same MonitorOptions, in particular the
  /// same Level). Returns false with a message in \p Err on corrupted or
  /// incompatible input; the monitor is unusable afterwards.
  bool loadStateChunked(std::string_view Bytes, uint32_t IdBase,
                        const std::vector<uint64_t> &SoBase,
                        std::string *Err);

private:
  /// Serialization bodies of saveStateChunked/loadStateChunked, applying
  /// the local↔global transform \p C.
  void saveStateImpl(ByteWriter &W, const StateCoords &C) const;
  bool loadStateImpl(ByteReader &R, std::string *Err, const StateCoords &C);

  struct TxnMeta {
    bool Open = true;
    /// True while some read of this (closed) transaction resolves to a
    /// still-open writer; checking is deferred until all writers close.
    bool Deferred = false;
    /// Stream time of the last lifecycle event: begin while open, close
    /// once closed. Drives the age horizon and the force-abort policy.
    uint64_t Ts = 0;
  };

  TxnId toLocal(TxnId MonitorId) const;
  TxnId toMonitorId(TxnId Local) const { return Base + Local; }

  /// Closes \p Local (commit or abort), resolves its reads, wakes waiting
  /// readers, and schedules checking.
  void closeTxn(TxnId Local, bool Committed);

  /// Recomputes \p Local's resolved reads and derived indices from its
  /// ops against the current write index. Returns false when some read
  /// resolves to a still-open writer (checking must wait).
  bool deriveTxn(TxnId Local);

  /// Rebuilds \p Local's ExtReads/ReadFroms from its (resolved) Reads:
  /// the external reads are exactly those from a distinct, closed,
  /// committed writer. Shared by deriveTxn and compact.
  void classifyExternalReads(TxnId Local);

  /// One incremental checking pass: force-abort hung transactions, derive
  /// dirty transactions, run the read-level checks over the delta, hand
  /// the delta to the saturation engine (which propagates affected facts
  /// and cycle-checks on edge insertion), report new violations, and
  /// evict if a window horizon is exceeded.
  void flush(bool Final);

  /// Applies the ForceAbortOpenTicks policy: aborts open transactions
  /// whose age in stream ticks exceeds the limit.
  void forceAbortHung();

  /// Translates local ids in \p V to monitor ids in place.
  void translateToMonitorIds(Violation &V) const;

  /// Delivers \p V (already in monitor ids) if not yet reported. Returns
  /// true when it was delivered.
  bool emitViolation(Violation V);

  /// Fingerprint for exactly-once delivery.
  static std::string fingerprint(const Violation &V);

  /// Evicts the oldest \p Count transactions (a prefix of local ids) from
  /// every structure and rebases the remainder.
  void compact(size_t Count);

  /// Applies the window horizons; called at the end of a flush.
  void maybeEvict();

  MonitorOptions Opts;
  ViolationSink *Sink;

  /// The live window, maintained directly as a History so the checkers and
  /// kernels run on it unchanged. Local ids index this; monitor id =
  /// Base + local id.
  History Live;
  TxnId Base = 0;
  std::vector<TxnMeta> Meta;
  /// Distinct keys seen in the window's operations (History::KeyCount).
  std::unordered_set<Key> Keys;

  /// The incremental saturation engine: persisted happens-before facts,
  /// per-key write index, refcounted source-tagged edges, dynamic
  /// topological order.
  SaturationState Saturation;

  /// Incremental wr resolution (local ids).
  WriteSiteIndex Writes;
  /// Reads of closed transactions with no write site yet: (key, value) ->
  /// readers. Retroactively resolved when the write arrives.
  std::unordered_map<KeyValue, std::vector<std::pair<TxnId, uint32_t>>,
                     KeyValueHash>
      PendingReads;
  /// Readers to re-derive when an open writer closes (local ids).
  std::unordered_map<TxnId, std::vector<TxnId>> WaitersOnClose;
  /// Reads whose writer was evicted, keyed by (monitor id << 32 | op):
  /// excluded from checking and never reported as thin-air. The value
  /// remembers the original (global writer id << 32 | writer op) so the
  /// checkpoint can serialize the read exactly as it looked before the
  /// eviction — keeping old transaction chunks byte-stable across window
  /// slides.
  std::unordered_map<uint64_t, uint64_t> EvictedWriterMask;

  /// Closed transactions whose checking state is stale (newly closed or
  /// retroactively re-resolved). Ordered for deterministic flushes.
  std::set<TxnId> Dirty;

  /// Currently open transactions (local ids), for the force-abort scan.
  std::set<TxnId> OpenTxns;
  /// Monitor ids closed by the force-abort policy while their session
  /// still holds the handle: later operations and the eventual
  /// commit/abort on them are dropped. Never pruned (one entry per
  /// forced abort — the hung-session pathology this bounds is rare).
  std::unordered_set<TxnId> ForceAbortedIds;

  /// Monitor-id base of each session's so index, for labels after
  /// eviction, plus the session count.
  std::vector<uint64_t> SessionSoBase;

  /// Cap on the windowed finalize report (the sink remains complete).
  static constexpr size_t MaxWindowedReportViolations = 65536;

  /// Exactly-once delivery state (monitor ids; stable across eviction).
  /// Fingerprints accumulate one small string per reported violation for
  /// the lifetime of the session; cycle-txn ids are pruned at compaction.
  std::unordered_set<std::string> ReportedFp;
  std::unordered_set<TxnId> ReportedCycleTxns;
  /// Delivered violations in monitor ids (the windowed finalize report),
  /// capped at MaxWindowedReportViolations.
  std::vector<Violation> StreamReported;

  MonitorStats Stats;
  /// Host-local flush telemetry (see flushLatency()); never serialized.
  obs::LatencyHistogram FlushHist;
  uint64_t PhaseMicros[obs::NumFlushPhases] = {};
  size_t CommitsSinceFlush = 0;
  /// Latest stream timestamp seen by advanceTime().
  uint64_t CurrentTime = 0;
  bool HasTime = false;
  bool AnyViolation = false;
  bool Finalized = false;
  std::string ErrText;
};

} // namespace awdit

#endif // AWDIT_CHECKER_MONITOR_H
