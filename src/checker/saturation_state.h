//===- checker/saturation_state.h - Incremental saturation engine -*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental, delta-driven saturation engine of the streaming Monitor
/// (checker/monitor.h). One-shot checks do not run it: checkRc, checkRa and
/// checkCc run the same kernels (saturation_impl.h) over a complete
/// history. The Monitor drives true per-flush deltas: the state persists
/// the derived happens-before rows, the per-key write index, and the
/// refcounted source-tagged edge set across flushes, so each pass only
/// propagates the consequences of newly committed or retroactively
/// re-resolved transactions instead of re-scanning the whole live window.
///
/// The commit relation co' is kept topologically ordered with a
/// Pearce–Kelly dynamic order (graph/incremental_topo.h): an edge
/// insertion that would close a cycle is reported as a violation with the
/// offending path extracted on the spot — no per-flush SCC pass — and the
/// edge is quarantined so the order stays valid. The canonical verdict of
/// an exact-mode stream still comes from the one-shot checker the Monitor
/// runs at finalize (checkIsolation), which keeps verdicts, violation
/// lists, and witnesses bit-identical to a one-shot check.
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
/// Every per-source and per-key table is flat and indexed by dense ids
/// (checker/saturation_tables.h): the per-transaction sources are spans of
/// one append-only log, the per-session ones a list per session, and the
/// CC writer index one slot-grouped run per dense key id. The refcounted
/// edge set, the dynamic order, the reader lists and the happens-before
/// rows are what they were, and so is every serialized byte: one walk in
/// source-key order feeds both compaction's replay and saveState.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_SATURATION_STATE_H
#define AWDIT_CHECKER_SATURATION_STATE_H

#include "checker/isolation_level.h"
#include "checker/saturation_impl.h"
#include "checker/saturation_tables.h"
#include "checker/violation.h"
#include "graph/incremental_topo.h"
#include "history/history.h"
#include "support/packed_edge_map.h"

#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;
struct StateCoords;

/// The incremental saturation engine. One instance per Monitor; not
/// thread-safe.
class SaturationState {
public:
  explicit SaturationState(IsolationLevel Level) : Level(Level) {}

  // --- Structure growth. ---

  void addSession() { ++NumSessions; }

  // --- Delta pass. ---

  /// One incremental pass. \p Ready lists the local ids of committed
  /// transactions that are newly closed or were retroactively re-resolved
  /// since the last pass, ascending. Reads \p H (the live window) for
  /// operations, sessions, and derived per-transaction indices; appends
  /// any cycle violation discovered during edge insertion to \p Out.
  void flushDelta(const History &H, const std::vector<TxnId> &Ready,
                  std::vector<Violation> &Out);

  /// Host-local wall-clock spent inside the current/last flushDelta, in
  /// nanoseconds, split by phase. DeltaBuild/Merge partition the pass; Pk
  /// overlaps them (it accumulates inside the edge-insertion /
  /// topological-order maintenance the other phases call into). Telemetry
  /// only: never serialized, never part of a verdict or summary.
  struct FlushPhaseNanos {
    uint64_t DeltaBuild = 0;
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

  // --- Eviction-aware compaction. ---

  /// Drops the transaction prefix [0, \p Cut) from every persisted
  /// structure and rebases the rest. Must run while \p H still holds the
  /// pre-eviction window (the caller rebases its History afterwards).
  void compact(const History &H, TxnId Cut);

  // --- Introspection. ---

  /// Distinct live inferred (non so/wr) co' edges.
  size_t numInferredEdges() const { return InferredDistinct; }
  /// Distinct live edges of the maintained commit relation.
  size_t numGraphEdges() const {
    return Order.numEdges() + Quarantined.size();
  }

  /// Frees the largest tables, the edge refcounts, the source log and the
  /// happens-before rows, once the stream has ended: only the destructor
  /// may touch the state afterwards. The rest is mostly small
  /// per-transaction lists, which cost more time to free than their bytes
  /// are worth before exact-mode finalize's one-shot check.
  void releaseTables();

  // --- Checkpoint support (checker/checkpoint.h). ---

  /// Serializes every persisted streaming fact — source lists, the dynamic
  /// order (verbatim: its internal positions steer later witness
  /// extraction), happens-before rows, writer index, RA frontiers — with
  /// transaction ids and so-indices globalized by \p C, emitting chunk
  /// marks. Unordered containers are dumped in sorted-key order so the
  /// bytes are canonical; list-valued state keeps its order verbatim. The
  /// edge refcount map is not written: it is the filtered refcount image
  /// of the source lists, re-derived on load.
  void saveState(ByteWriter &W, const StateCoords &C) const;

  /// Restores a freshly constructed state (same Level) from
  /// saveState() bytes written under \p C. Returns false (with \p Err
  /// set) on corrupted or level-mismatched input.
  bool loadState(ByteReader &R, std::string *Err, const StateCoords &C);

private:
  using SourceTag = detail::SourceLog::Tag;

  // Source coordinate bridge: callers and the live structures (Edges,
  // Order, ReadersOf) speak window-local ids; the tagged lists store
  // global packed edges. EvictedBase is the global id of local 0.
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

  void ensureSizes(const History &H);

  // Edge bookkeeping. A source is (tag, id): the id is window-local for the
  // per-transaction tags and a session for the per-session ones.
  void addSourceEdges(const History &H, SourceTag Tag, uint32_t Id,
                      const std::vector<uint64_t> &Edges,
                      std::vector<Violation> *Out);
  void clearSource(SourceTag Tag, uint32_t Id);
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
  bool baseReaches(uint32_t SrcNode, uint32_t DstNode);

  Violation makeCycleViolation(const History &H, TxnId From, TxnId To,
                               const std::vector<uint32_t> &Path) const;
  EdgeKind classifyEdge(const History &H, TxnId From, TxnId To) const;

  // CC incremental pieces.
  void appendWriterEntries(const History &H, TxnId L);
  bool recomputeHbRow(const History &H, TxnId L);
  void runCcReader(const History &H, TxnId L,
                   std::vector<uint64_t> &Edges) const;
  void setReaderWrEdges(const History &H, TxnId L,
                        std::vector<Violation> *Out);
  void propagateHappensBefore(const History &H,
                              const std::vector<TxnId> &Ready,
                              std::vector<TxnId> &ChangedOut);

  const IsolationLevel Level;
  size_t NumSessions = 0;
  /// True once the base so ∪ wr relation itself closed a cycle: every
  /// level is violated and CC saturation stops (happens-before is
  /// undefined, exactly as in checkCc).
  bool BaseCyclic = false;
  /// Set by compact() when evictions broke a base cycle: every live row is
  /// recomputed at the next flush.
  bool NeedsFullHbRecompute = false;

  // --- Persistent state. ---

  /// The dynamically ordered commit relation (distinct live edges).
  IncrementalTopoOrder Order;
  /// Refcounts of the persisted edge set, keyed by the packed (src, dst)
  /// pair. A flat open-addressing table: every flush hits this once or
  /// twice per delta edge, which made node-based hashing the dominant
  /// per-flush cost (ROADMAP follow-up from PR 3).
  PackedEdgeMap<EdgeRefs> Edges;
  /// Source-tagged edge lists in *global* stream coordinates (every packed
  /// endpoint is a global id, never rebased). A per-transaction list is
  /// immutable once written: eviction drops whole evicted sources and
  /// leaves tombstone entries (an evicted endpoint) in surviving lists for
  /// consumers to skip via deadPacked(). Per-session lists (RA
  /// contributions, so chains) are long-lived and are pruned/rebuilt at
  /// compaction instead. The refcounted Edges map is always the filtered
  /// refcount image of these lists — which is why the chunked checkpoint
  /// derives it at load instead of persisting it.
  detail::SourceLog Sources;
  /// Global id of window-local transaction 0 (total evicted count); the
  /// Sources coordinate base and lazy eviction filter.
  uint32_t EvictedBase = 0;
  /// Edges with live references that are kept out of the order because
  /// inserting them closed a cycle (reported when first quarantined). A
  /// flat set: the value is unused.
  PackedEdgeMap<uint8_t> Quarantined;
  size_t InferredDistinct = 0;

  /// First-processing flag per transaction (so-chain edge added, writer
  /// entries appended).
  std::vector<uint8_t> Processed;
  /// propagateHappensBefore's worklist: a min-heap of (order position,
  /// transaction) with a per-transaction queued flag.
  std::vector<std::pair<uint32_t, TxnId>> HbHeap;
  std::vector<uint8_t> HbQueued;
  /// baseReaches' visited marks: a node is visited iff its mark equals the
  /// current epoch.
  std::vector<uint32_t> SeenMark;
  uint32_t SeenEpoch = 0;
  /// Readers currently holding a wr edge from each transaction, for
  /// happens-before dirty propagation.
  std::vector<std::vector<TxnId>> ReadersOf;

  /// Persisted exclusive happens-before clock rows, row-major with stride
  /// HbStride (grown geometrically as sessions are added).
  std::vector<uint32_t> HbRows;
  size_t HbStride = 0;
  std::vector<uint32_t> TmpRow;

  /// Per-key, per-writing-session so-ordered writer lists (Algorithm 3's
  /// Writes index), persisted and appended incrementally.
  detail::CcWriterIndex Writers;
  std::vector<RaSessionState> RaStates;
  detail::RcScratch RcScratchState;

  /// Per-flush phase telemetry (transient; never serialized).
  FlushPhaseNanos PhaseNs;
};

} // namespace awdit

#endif // AWDIT_CHECKER_SATURATION_STATE_H
