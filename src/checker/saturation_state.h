//===- checker/saturation_state.h - Incremental saturation engine -*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental, delta-driven saturation engine shared by the three
/// checking paths:
///
///  - checkIsolation() runs it as a single cold-start delta over a
///    complete history (the batch kernels of saturation_impl.h, verbatim);
///  - the parallel engine (checker/parallel.h) has its shard workers feed
///    inferred-edge batches into one merged state through striped buffers;
///  - the streaming Monitor (checker/monitor.h) drives true per-flush
///    deltas: the state persists the derived happens-before rows, the
///    per-key write index, and the refcounted source-tagged edge set
///    across flushes, so each pass only propagates the consequences of
///    newly committed or retroactively re-resolved transactions instead
///    of re-scanning the whole live window.
///
/// In streaming mode the commit relation co' is kept topologically ordered
/// with a Pearce–Kelly dynamic order (graph/incremental_topo.h): an edge
/// insertion that would close a cycle is reported as a violation with the
/// offending path extracted on the spot — no per-flush SCC pass — and the
/// edge is quarantined so the order stays valid. The canonical verdict of
/// a completed check still comes from finalizeAcyclic(), which rebuilds
/// the commit graph once and runs the exact same SCC/witness extraction as
/// the historical batch checkers, keeping verdicts, violation lists, and
/// witnesses bit-identical to them.
///
/// Every inferred or base edge is tagged with the unit of work that
/// produced it (an RC transaction, an RA session, a CC reader, a reader's
/// wr set, a session's so chain), so re-running a unit replaces exactly
/// its contribution. The tagged lists live in *global* stream coordinates
/// (ids never rebased by eviction): compaction drops whole evicted
/// sources but never rewrites a surviving per-transaction list — entries
/// whose endpoint was evicted are filtered lazily by every consumer.
/// That keeps the serialized bytes of old sources stable across window
/// slides, which is what makes store-backed checkpoints O(delta).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_SATURATION_STATE_H
#define AWDIT_CHECKER_SATURATION_STATE_H

#include "checker/check_rc.h"
#include "checker/commit_graph.h"
#include "checker/isolation_level.h"
#include "checker/saturation_impl.h"
#include "checker/violation.h"
#include "graph/incremental_topo.h"
#include "history/history.h"
#include "support/epoch_snapshot.h"
#include "support/packed_edge_map.h"

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;
struct StateCoords;
class ThreadPool;

/// The incremental saturation engine. One instance per checking session
/// (a Monitor, one one-shot check, or one parallel check). Not thread-safe
/// except for appendInferredBatch().
class SaturationState {
public:
  enum class Mode : uint8_t {
    /// One cold-start delta (or shard-fed batches): edges are only
    /// collected; no dynamic order is maintained and the verdict comes
    /// from finalizeAcyclic()'s canonical pass.
    Batch,
    /// Streaming deltas: persisted facts, dynamic topological order, and
    /// cycle extraction on edge insertion.
    Streaming,
  };

  SaturationState(IsolationLevel Level, Mode M)
      : Level(Level), EngineMode(M) {}

  // --- Structure growth (streaming). ---

  void addSession() { ++NumSessions; }

  // --- Streaming delta pass. ---

  /// One incremental pass. \p Ready lists the local ids of committed
  /// transactions that are newly closed or were retroactively re-resolved
  /// since the last pass, ascending. Reads \p H (the live window) for
  /// operations, sessions, and derived per-transaction indices; appends
  /// any cycle violation discovered during edge insertion to \p Out.
  void flushDelta(const History &H, const std::vector<TxnId> &Ready,
                  std::vector<Violation> &Out);

  // --- Speculative parallel saturation (streaming, CC only). ---

  /// Enables speculative offload of the CC happens-before/inference delta
  /// to \p Pool's workers (non-owning; nullptr disables). At each flush
  /// with at least \p MinBatch ready transactions, workers compute
  /// speculative rows and reader inferences against a read-only snapshot
  /// of the pre-merge state, and the sequential merge adopts a result only
  /// when EpochTracker proves its inputs unchanged — so the output stays
  /// bit-identical to the sequential path at every thread count, and the
  /// speculation never touches checkpoints (it is transient per-flush
  /// state). The pool must outlive the state or be reset to nullptr first.
  void setSpeculation(ThreadPool *Pool, size_t MinBatch = 16) {
    SpecPool = Pool;
    SpecMinBatch = MinBatch;
  }

  /// Rows whose speculative result was adopted verbatim at the merge /
  /// rows that fell back to sequential re-derivation. Host-local telemetry
  /// (varies with thread count): never serialized, never in summaries.
  uint64_t specAdoptedRows() const { return SpecAdoptedRows; }
  uint64_t specRecomputedRows() const { return SpecRecomputedRows; }
  /// Reader-inference edge sets adopted from speculation at the merge.
  uint64_t specAdoptedEdgeSets() const { return SpecAdoptedEdgeSets; }

  /// Host-local wall-clock spent inside the current/last flushDelta, in
  /// nanoseconds, split by phase. DeltaBuild/Speculate/Merge partition
  /// the pass; Pk overlaps them (it accumulates inside the edge-insertion
  /// / topological-order maintenance the other phases call into). Like
  /// the speculation counters this is telemetry only: never serialized,
  /// never part of a verdict or summary.
  struct FlushPhaseNanos {
    uint64_t DeltaBuild = 0;
    uint64_t Speculate = 0;
    uint64_t Merge = 0;
    uint64_t Pk = 0;
  };

  /// Returns and resets the phase accumulators — the Monitor drains them
  /// once per flush into the observability histograms (obs/histogram.h).
  FlushPhaseNanos takeFlushPhaseNanos() {
    FlushPhaseNanos R = PhaseNs;
    PhaseNs = FlushPhaseNanos();
    return R;
  }

  // --- Batch feeds. ---

  /// Runs the batch saturation kernels over the whole history — the
  /// single cold-start delta of the one-shot path. Level RC/RA/CC only;
  /// read-level axioms are the caller's job (they precede saturation in
  /// every algorithm).
  void coldStart(const History &H);

  /// Thread-safe bulk feed of packed inferred edges for the parallel
  /// engine's shard workers. Stripes are picked round-robin so concurrent
  /// workers rarely contend.
  void appendInferredBatch(const uint64_t *Edges, size_t Count);

  /// Batch CC helper: builds the base so ∪ wr commit graph of \p H —
  /// cached so finalizeAcyclic() reuses it instead of rebuilding — and
  /// returns a topological order of it, or nullopt (setting baseCyclic())
  /// when so ∪ wr is cyclic. \p H must be the same history later passed
  /// to finalizeAcyclic().
  std::optional<std::vector<uint32_t>> computeBaseOrder(const History &H);

  /// Canonical verdict over the complete history: rebuilds the commit
  /// graph from \p H, merges every inferred edge collected so far
  /// (canonicalized: sorted, deduplicated), and runs the same SCC pass and
  /// witness extraction as the batch checkers. Bit-identical to them for
  /// identical edge sets.
  bool finalizeAcyclic(const History &H, std::vector<Violation> &Out,
                       size_t MaxWitnesses, SaturationStats *Stats);

  // --- Eviction-aware compaction (streaming). ---

  /// Drops the transaction prefix [0, \p Cut) from every persisted
  /// structure and rebases the rest. Must run while \p H still holds the
  /// pre-eviction window (the caller rebases its History afterwards).
  void compact(const History &H, TxnId Cut);

  // --- Introspection. ---

  /// Distinct live inferred (non so/wr) co' edges.
  size_t numInferredEdges() const { return InferredDistinct; }
  /// Distinct live edges of the maintained commit relation (streaming).
  size_t numGraphEdges() const {
    return Order.numEdges() + Quarantined.size();
  }
  /// True once the base so ∪ wr relation itself closed a cycle (every
  /// level is violated; CC saturation stops — happens-before is
  /// undefined, exactly as in the batch checker).
  bool baseCyclic() const { return BaseCyclic; }

  // --- Checkpoint support (streaming; checker/checkpoint.h). ---

  /// Serializes every persisted streaming fact — source lists, the dynamic
  /// order (verbatim: its internal positions steer later witness
  /// extraction), happens-before rows, writer index, RA frontiers — with
  /// transaction ids and so-indices globalized by \p C, emitting chunk
  /// marks. Unordered containers are dumped in sorted-key order so the
  /// bytes are canonical; list-valued state keeps its order verbatim. The
  /// edge refcount map is not written: it is the filtered refcount image
  /// of the source lists, re-derived on load.
  void saveState(ByteWriter &W, const StateCoords &C) const;

  /// Restores a freshly constructed streaming state (same Level) from
  /// saveState() bytes written under \p C. Returns false (with \p Err
  /// set) on corrupted or level-mismatched input.
  bool loadState(ByteReader &R, std::string *Err, const StateCoords &C);

private:
  // Source tags: the unit of work that contributed an edge. Re-running a
  // unit replaces exactly its contribution.
  static uint64_t rcSource(TxnId L) { return L; }
  static uint64_t raSource(SessionId S) { return (uint64_t(1) << 32) | S; }
  static uint64_t ccSource(TxnId L) { return (uint64_t(2) << 32) | L; }
  static uint64_t wrSource(TxnId L) { return (uint64_t(3) << 32) | L; }
  static uint64_t soSource(SessionId S) { return (uint64_t(4) << 32) | S; }
  static bool isPerTxnSource(uint64_t Source) {
    uint64_t Tag = Source >> 32;
    return Tag == 0 || Tag == 2 || Tag == 3;
  }

  // BySource coordinate bridge: callers and the live structures (Edges,
  // Order, ReadersOf) speak window-local ids; the tagged lists store
  // global ones. EvictedBase is the global id of local 0.
  uint64_t globalizeSource(uint64_t Source) const {
    return isPerTxnSource(Source) ? Source + EvictedBase : Source;
  }
  static uint64_t packedShift(uint32_t Base) {
    return (static_cast<uint64_t>(Base) << 32) | Base;
  }
  uint64_t globalizePacked(uint64_t Packed) const {
    return Packed + packedShift(EvictedBase);
  }
  uint64_t localizePacked(uint64_t GPacked) const {
    return GPacked - packedShift(EvictedBase);
  }
  /// True when either endpoint of a global packed edge was evicted — the
  /// entry is a tombstone every consumer skips.
  bool deadPacked(uint64_t GPacked) const {
    return static_cast<uint32_t>(GPacked >> 32) < EvictedBase ||
           static_cast<uint32_t>(GPacked) < EvictedBase;
  }

  /// Reference counts of one packed edge, split by provenance: base
  /// (so/wr) references keep the edge structural; inferred references come
  /// from the saturation kernels.
  struct EdgeRefs {
    uint32_t Base = 0;
    uint32_t Inferred = 0;
  };

  /// Persistent per-session incremental RA saturation state.
  struct RaSessionState {
    detail::RaScratch Scratch;
    /// First unprocessed position in the session's so list.
    size_t NextSo = 0;
    /// Set when retroactive re-resolution invalidated already-processed
    /// positions; the whole (windowed) session is re-run at next flush.
    bool NeedsFullRerun = false;
  };

  /// Per-key, per-writing-session so-ordered writer lists (Algorithm 3's
  /// Writes index), persisted and appended incrementally.
  struct KeyWriters {
    std::vector<SessionId> Sessions;
    std::vector<std::vector<detail::CcWriterEntry>> Lists;
  };

  void ensureSizes(const History &H);

  // Edge bookkeeping.
  void addSourceEdges(const History &H, uint64_t Source, bool IsBase,
                      const std::vector<uint64_t> &Edges,
                      std::vector<Violation> *Out);
  void clearSource(uint64_t Source, bool IsBase);
  void insertLive(const History &H, uint64_t Packed, bool IsBase,
                  std::vector<Violation> *Out);
  void removeLive(uint64_t Packed, bool IsBase);
  void retryQuarantined(const History &H);
  /// Clears BaseCyclic (scheduling a full happens-before recompute) once
  /// no quarantined edge with a base reference remains. Shared by the
  /// flush-time retry and eviction compaction.
  void maybeClearBaseCyclic();

  /// True iff \p To reaches \p From using only edges with a base
  /// reference (a so ∪ wr path). Decides CausalityCycle vs a mixed cycle
  /// whose base edge can stay live by quarantining an inferred edge.
  bool baseReaches(uint32_t SrcNode, uint32_t DstNode) const;

  Violation makeCycleViolation(const History &H, TxnId From, TxnId To,
                               const std::vector<uint32_t> &Path) const;
  EdgeKind classifyEdge(const History &H, TxnId From, TxnId To) const;

  // CC incremental pieces.
  void appendWriterEntries(const History &H, TxnId L);
  bool recomputeHbRow(const History &H, TxnId L);
  void runCcReader(const History &H, TxnId L,
                   std::vector<uint64_t> &Edges) const;
  /// The row-parameterized core of runCcReader: the per-key inference over
  /// an explicit happens-before row. Pure; speculation workers call it
  /// against their speculative rows while the writer index is quiescent.
  void runCcReaderRow(const History &H, TxnId L, const uint32_t *Row,
                      std::vector<uint64_t> &Edges) const;
  void setReaderWrEdges(const History &H, TxnId L,
                        std::vector<Violation> *Out);

  // Speculative parallel CC saturation. One CcSpeculation per ready
  // transaction of the flush; all state below is transient per-flush.
  struct CcSpeculation {
    /// The speculative happens-before row (HbStride entries).
    std::vector<uint32_t> Row;
    /// Speculative reader inferences over Row, sorted and deduplicated —
    /// exactly what the sequential path would derive from an equal row.
    std::vector<uint64_t> Edges;
    /// Rows read from the pre-merge snapshot; the result is stale if any
    /// of them was overwritten (epoch-stamped) before this merge step.
    std::vector<TxnId> ExternalInputs;
    /// Sibling speculations (same worker batch) whose rows were chained;
    /// valid only if each merged to exactly its speculative value.
    std::vector<TxnId> BatchInputs;
    /// Set during the merge: the row merged to exactly Row, so Edges is
    /// the sequential result and downstream chains stay valid.
    bool Matched = false;
  };
  using SpecMap = std::unordered_map<TxnId, CcSpeculation>;

  /// The speculation phase: partitions \p Ready by session, computes
  /// speculative rows (chained within a session) and reader inferences on
  /// the pool, against the quiescent pre-merge state. Runs strictly
  /// between the base-edge/writer-index loop and the merge.
  void speculateCc(const History &H, const std::vector<TxnId> &Ready,
                   SpecMap &Spec);
  /// The sequential merge step for one row: adopts the validated
  /// speculative row or falls back to recomputeHbRow. Returns whether the
  /// persisted row changed; stamps RowEpochs on change.
  bool mergeHbRow(const History &H, TxnId L, SpecMap *Spec);
  void propagateHappensBefore(const History &H,
                              const std::vector<TxnId> &Ready,
                              std::vector<TxnId> &ChangedOut, SpecMap *Spec);

  const IsolationLevel Level;
  const Mode EngineMode;
  size_t NumSessions = 0;
  bool BaseCyclic = false;
  /// Set by compact() when evictions broke a base cycle: every live row is
  /// recomputed at the next flush.
  bool NeedsFullHbRecompute = false;

  // --- Persistent streaming state. ---

  /// The dynamically ordered commit relation (distinct live edges).
  IncrementalTopoOrder Order;
  /// Refcounts of the persisted edge set, keyed by the packed (src, dst)
  /// pair. A flat open-addressing table: every flush hits this once or
  /// twice per delta edge, which made node-based hashing the dominant
  /// per-flush cost (ROADMAP follow-up from PR 3).
  PackedEdgeMap<EdgeRefs> Edges;
  /// Source-tagged edge lists in *global* stream coordinates (keys of
  /// per-transaction tags and every packed endpoint are global ids, never
  /// rebased). A per-transaction list is immutable once written: eviction
  /// drops whole evicted sources and leaves tombstone entries (an evicted
  /// endpoint) in surviving lists for consumers to skip via deadPacked().
  /// Per-session lists (RA contributions, so chains) are long-lived and
  /// are pruned/rebuilt at compaction instead. The refcounted Edges map is
  /// always the filtered refcount image of these lists — which is why the
  /// chunked checkpoint derives it at load instead of persisting it.
  std::unordered_map<uint64_t, std::vector<uint64_t>> BySource;
  /// Global id of window-local transaction 0 (total evicted count); the
  /// BySource coordinate base and lazy eviction filter.
  uint32_t EvictedBase = 0;
  /// Edges with live references that are kept out of the order because
  /// inserting them closed a cycle (reported when first quarantined).
  std::unordered_set<uint64_t> Quarantined;
  size_t InferredDistinct = 0;

  /// First-processing flag per transaction (so-chain edge added, writer
  /// entries appended).
  std::vector<uint8_t> Processed;
  /// Readers currently holding a wr edge from each transaction, for
  /// happens-before dirty propagation.
  std::vector<std::vector<TxnId>> ReadersOf;

  /// Persisted exclusive happens-before clock rows, row-major with stride
  /// HbStride (grown geometrically as sessions are added).
  std::vector<uint32_t> HbRows;
  size_t HbStride = 0;
  std::vector<uint32_t> TmpRow;

  std::unordered_map<Key, KeyWriters> Writers;
  std::vector<RaSessionState> RaStates;
  detail::RcScratch RcScratchState;

  // --- Speculation (transient; never serialized). ---

  /// Non-owning executor for the speculation phase; nullptr = sequential.
  ThreadPool *SpecPool = nullptr;
  size_t SpecMinBatch = 16;
  /// Which happens-before rows the current merge has overwritten — the
  /// validation oracle for adopting speculative results.
  EpochTracker RowEpochs;
  uint64_t SpecAdoptedRows = 0;
  uint64_t SpecRecomputedRows = 0;
  uint64_t SpecAdoptedEdgeSets = 0;
  FlushPhaseNanos PhaseNs;

  // --- Batch-mode edge collection. ---

  std::vector<uint64_t> BatchEdges;
  /// Base commit graph built by computeBaseOrder(), reused by
  /// finalizeAcyclic() so the CC paths construct it only once.
  std::optional<CommitGraph> CachedBase;
  static constexpr size_t NumStripes = 64;
  struct Stripe {
    std::mutex Mutex;
    std::vector<uint64_t> Buf;
  };
  std::array<Stripe, NumStripes> Stripes;
  std::atomic<size_t> NextStripe{0};
};

} // namespace awdit

#endif // AWDIT_CHECKER_SATURATION_STATE_H
