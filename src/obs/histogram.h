//===- obs/histogram.h - Lock-free log-scale latency histograms --*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The histogram half of the observability core (docs/OBSERVABILITY.md):
/// fixed-size, log-linear latency histograms with a lock-free record path
/// — one relaxed fetch_add per sample — safe to hit from every thread
/// concurrently. Values are microseconds (or unitless sample values
/// for depth histograms).
///
/// Bucketing is HDR-style log-linear: values below 2^SubBucketBits map
/// exactly, above that each power-of-two octave splits into
/// 2^SubBucketBits sub-buckets, so quantiles resolve to ~25% relative
/// error across nine decades (1us .. ~134s) in 104 fixed buckets plus an
/// overflow bucket. Two histograms with the same layout merge by bucket
/// addition, and snapshots subtract, which is what turns the cumulative
/// per-monitor flush histogram into per-interval p50/p99 on the
/// `--stats-interval` line.
///
/// Prometheus rendering emits the classic `_bucket{le=...}/_sum/_count`
/// triple. To keep scrapes small, `le` boundaries are the octave edges
/// only (1us, 2us, 4us, ... in seconds) — the fine sub-buckets stay
/// internal, serving percentile() and the `STATS deep` JSON.
///
/// All recorded state is host-local wall-clock telemetry: it is never
/// checkpointed and never feeds a verdict, so resume byte-identity is
/// untouched.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_OBS_HISTOGRAM_H
#define AWDIT_OBS_HISTOGRAM_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace awdit {
namespace obs {

/// Sub-buckets per octave = 2^SubBucketBits (4: ~25% quantile error).
inline constexpr unsigned SubBucketBits = 2;
/// Highest octave tracked exactly; values above 2^(MaxOctave+1)-ish land
/// in the overflow bucket. 26 → ~134 seconds in microseconds.
inline constexpr unsigned MaxOctave = 26;
/// Finite buckets (excluding overflow): exact values 0..3, then
/// (MaxOctave - SubBucketBits + 1) octaves x 4 sub-buckets.
inline constexpr size_t NumHistogramBuckets =
    ((MaxOctave - SubBucketBits + 1) << SubBucketBits) + (1u << SubBucketBits);

/// The finite-bucket index of \p Value (overflow excluded: values past
/// the last bucket return NumHistogramBuckets).
size_t histogramBucketFor(uint64_t Value);

/// Inclusive upper bound of finite bucket \p Index.
uint64_t histogramBucketUpper(size_t Index);

/// A point-in-time copy of one histogram: plain integers, mergeable and
/// subtractable. This is what percentiles, Prometheus rendering, and the
/// STATS deep JSON are computed from.
struct HistogramSnapshot {
  std::vector<uint64_t> Buckets; ///< NumHistogramBuckets + 1 (overflow)
  uint64_t Count = 0;
  uint64_t Sum = 0;

  HistogramSnapshot() : Buckets(NumHistogramBuckets + 1, 0) {}

  void add(const HistogramSnapshot &Other);
  /// this - Other, element-wise (Other must be an earlier snapshot of the
  /// same histogram; negative deltas clamp to zero).
  void minus(const HistogramSnapshot &Other);

  /// The value at quantile \p Q in [0, 1]: the inclusive upper bound of
  /// the bucket where the cumulative count crosses Q * Count. Returns 0
  /// on an empty snapshot; overflow-bucket quantiles return the last
  /// finite bound (a floor — the true value is larger).
  uint64_t percentile(double Q) const;

  /// Appends `NAME_bucket{...le="..."}` / `NAME_sum` / `NAME_count` lines
  /// (HELP/TYPE are the caller's, once per family). \p Labels is either
  /// empty or `key="value"[,...]` without braces; `le` is appended to it.
  /// Bucket bounds are rendered in seconds (micros / 1e6) at octave
  /// granularity; \p Unitless suppresses the seconds conversion for
  /// sample-value histograms (queue depths).
  void renderProm(std::string &Out, const std::string &Name,
                  const std::string &Labels, bool Unitless = false) const;

  /// `{"count":N,"sum_micros":S,"p50":...,"p90":...,"p99":...,"max":...}`
  /// — the STATS deep building block. Quantile values are micros.
  std::string percentilesJson() const;
};

/// The live histogram: fixed atomics, wait-free record. One per metered
/// site; layout is identical across instances so snapshots merge.
class LatencyHistogram {
public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram &) = delete;
  LatencyHistogram &operator=(const LatencyHistogram &) = delete;

  void record(uint64_t Value) {
    size_t I = histogramBucketFor(Value);
    Counts[I].fetch_add(1, std::memory_order_relaxed);
    TotalCount.fetch_add(1, std::memory_order_relaxed);
    TotalSum.fetch_add(Value, std::memory_order_relaxed);
  }

  /// Approximate consistency: buckets are read with relaxed loads while
  /// recording may continue. Count/Sum are clamped to the bucket total so
  /// a snapshot is always internally coherent.
  HistogramSnapshot snapshot() const;

  bool empty() const {
    return TotalCount.load(std::memory_order_relaxed) == 0;
  }

private:
  std::atomic<uint64_t> Counts[NumHistogramBuckets + 1] = {};
  std::atomic<uint64_t> TotalCount{0};
  std::atomic<uint64_t> TotalSum{0};
};

/// The flush phases metered by checker/monitor.cpp. Pk overlaps the
/// others (it accumulates inside the topological-order maintenance that
/// the delta/merge phases call into); the rest partition a flush.
enum class FlushPhase : unsigned { DeltaBuild = 0, Merge, Pk, Finalize };
inline constexpr unsigned NumFlushPhases = 4;
const char *flushPhaseName(FlushPhase P); ///< "delta_build", "merge", ...

/// Process-wide histogram registry: every layer records into these, the
/// server's /metrics renders them, `awdit monitor` dumps nothing (they
/// cost nothing unread). Aggregated across sessions/monitors by design —
/// per-stream breakdowns ride the per-session counters instead.
struct PipelineMetrics {
  LatencyHistogram FlushTotal;               ///< whole checking pass
  LatencyHistogram FlushPhases[NumFlushPhases];
  LatencyHistogram IngestApply;              ///< decode + apply of a span
  LatencyHistogram CheckpointStoreCommit;    ///< chunk + append + fsync
  LatencyHistogram ServerPump;               ///< one session actor item
  LatencyHistogram ServerHello;              ///< HELLO parse -> OK queued
  LatencyHistogram ServerOutputQueue;        ///< reply enqueue -> wire
  LatencyHistogram ServerOutqDepth;          ///< bytes, sampled at enqueue
};

PipelineMetrics &metrics();

/// Scoped micros timer: records wall-clock into a histogram and, when
/// \p Accumulator is non-null, adds the same micros there (the host-local
/// per-phase totals). Cheap, but not free — meter stages, not lines.
class ScopedLatency {
public:
  explicit ScopedLatency(LatencyHistogram &H,
                         uint64_t *Accumulator = nullptr)
      : H(H), Accumulator(Accumulator), StartNs(traceClockNanos()) {}
  ~ScopedLatency() {
    uint64_t Micros = (traceClockNanos() - StartNs) / 1000;
    H.record(Micros);
    if (Accumulator)
      *Accumulator += Micros;
  }
  ScopedLatency(const ScopedLatency &) = delete;
  ScopedLatency &operator=(const ScopedLatency &) = delete;

private:
  static uint64_t traceClockNanos();
  LatencyHistogram &H;
  uint64_t *Accumulator;
  uint64_t StartNs;
};

} // namespace obs
} // namespace awdit

#endif // AWDIT_OBS_HISTOGRAM_H
