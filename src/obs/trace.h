//===- obs/trace.h - Per-thread lock-free span tracing -----------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability core (docs/OBSERVABILITY.md): a
/// per-thread, lock-free ring buffer of timed spans that dumps
/// Chrome-trace-event JSON (Perfetto-loadable) on demand. Tracing is
/// always compiled in and almost free when off: `AWDIT_SPAN("name")`
/// costs one relaxed atomic load and a predictable branch while disabled
/// (proven by bench/trace_overhead.cpp's CI gate), and only touches the
/// clock and the ring when an operator has turned it on (`awdit monitor
/// --trace FILE`, `awdit serve --trace-dir DIR` + the `TRACE` verb).
///
/// Span names are string literals with a dotted `layer.phase` scheme
/// ("ingest.apply", "flush.merge", "checkpoint.store", "server.pump");
/// the recorder stores the pointer, never the bytes, so a span is a
/// handful of word-sized writes into thread-local storage. Each thread's
/// ring holds the most recent TraceRingSlots events — a dump is a window
/// onto the recent past, not an unbounded log. Ring storage is allocated
/// lazily on the first recorded event (naming a thread while tracing is
/// off costs bytes, not a ring), and rings with events outlive their
/// threads so short-lived pool workers still appear in an end-of-run
/// dump; traceClear() retires dead threads' rings and new threads reuse
/// cleared ones, so a long-running server (where every `TRACE on`
/// clears) does not accumulate a ring per thread ever started.
///
/// Readers (dump) race writers by design: every slot is a tiny seqlock of
/// relaxed atomics, and a slot caught mid-overwrite is skipped, never
/// torn. The record path takes no lock and never blocks, so it is safe
/// from any pipeline stage, TSan-clean by construction.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_OBS_TRACE_H
#define AWDIT_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace awdit {
namespace obs {

/// Events each thread's ring retains (the most recent ones win).
inline constexpr size_t TraceRingSlots = 8192;

namespace detail {
extern std::atomic<bool> TraceOn;
/// Records a completed span; called only when tracing was on at span
/// entry. \p StartNs is traceNowNanos() at construction.
void recordSpan(const char *Name, uint64_t StartNs);
} // namespace detail

/// True while spans are being recorded. Relaxed: the flag gates a
/// diagnostic, not an invariant — a span racing the flip is kept or
/// dropped whole, either is fine.
inline bool traceEnabled() {
  return detail::TraceOn.load(std::memory_order_relaxed);
}

/// Flips recording on or off. Turning tracing off does not discard what
/// was recorded — a dump after `TRACE off` still returns the window.
void setTraceEnabled(bool On);

/// Monotonic nanoseconds since the first trace call of the process.
uint64_t traceNowNanos();

/// Names the calling thread in dumps (e.g. "monitor"); emitted as Chrome
/// thread_name metadata so Perfetto labels the track.
void setTraceThreadName(std::string_view Name);

/// Serializes every live ring into one Chrome-trace-event JSON object
/// (`{"traceEvents":[...]}`), oldest-first per thread. Safe to call while
/// recording continues; slots overwritten mid-read are skipped.
std::string traceDumpJson();

/// traceDumpJson() to \p Path (atomically, via rename). Returns false
/// with a message in \p Err on I/O failure.
bool writeTraceFile(const std::string &Path, std::string *Err);

/// Forgets everything recorded so far (rings stay allocated). Dumps only
/// contain events recorded after the last clear — how tests isolate
/// phases, and what `TRACE on` does so a session starts a fresh window.
void traceClear();

/// RAII span recorder. The constructor reads the enable flag once; a span
/// that started while tracing was on is recorded even if tracing is
/// turned off before it ends (the flag is a sampling gate, not a fence).
class TraceSpan {
public:
  explicit TraceSpan(const char *SpanName) {
    if (traceEnabled()) {
      Name = SpanName;
      StartNs = traceNowNanos();
    }
  }
  ~TraceSpan() {
    if (Name)
      detail::recordSpan(Name, StartNs);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  const char *Name = nullptr;
  uint64_t StartNs = 0;
};

} // namespace obs
} // namespace awdit

#define AWDIT_SPAN_CONCAT2(A, B) A##B
#define AWDIT_SPAN_CONCAT(A, B) AWDIT_SPAN_CONCAT2(A, B)
/// Opens a span covering the enclosing scope. NAME must be a string
/// literal (the recorder keeps the pointer).
#define AWDIT_SPAN(NAME)                                                       \
  ::awdit::obs::TraceSpan AWDIT_SPAN_CONCAT(AwditTraceSpan_, __LINE__)(NAME)

#endif // AWDIT_OBS_TRACE_H
