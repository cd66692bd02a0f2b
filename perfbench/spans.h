//===- perfbench/spans.h - In-memory spans for the traced run -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: spans recorded around the calls the driver
/// makes into each layer, kept in memory and written as JSON at exit. A
/// span has a name ("<layer>.<what>", e.g. "io.read"), a start and end on
/// the steady clock, the span that caused it (the innermost span open on
/// the same thread) and, for served tenants, the stream id every span of
/// that tenant shares.
///
/// A span's self time is its duration minus the part of its interval that
/// its children cover (children may overlap, so the union is subtracted,
/// not the sum). Self time summed per layer is the traced run's table.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_PERFBENCH_SPANS_H
#define AWDIT_PERFBENCH_SPANS_H

#include "checker/violation_sink.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace awdit::perfbench {

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  /// Index of the causing span, -1 for a root.
  int Parent = -1;
  /// Shared by every span of one served tenant; empty otherwise.
  std::string Stream;
};

/// The layer of a span: its name up to the first '.'.
inline std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

/// Self time of every span in nanoseconds: its duration minus the union of
/// its children's intervals clipped to its own.
inline std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[S.Parent].push_back({S.StartNs, S.EndNs});
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Lo = Spans[I].StartNs, Hi = std::max(Lo, Spans[I].EndNs);
    std::vector<std::pair<uint64_t, uint64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    uint64_t Covered = 0, Cursor = Lo;
    for (auto [A, B] : C) {
      A = std::max(A, Cursor);
      B = std::min(B, Hi);
      if (B > A) {
        Covered += B - A;
        Cursor = B;
      }
    }
    Self[I] = Hi - Lo - Covered;
  }
  return Self;
}

/// Per-layer self seconds, keyed by layer name.
inline std::map<std::string, double>
selfSecondsByLayer(const std::vector<Span> &Spans) {
  std::vector<uint64_t> Self = selfTimes(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[layerOf(Spans[I].Name)] += static_cast<double>(Self[I]) / 1e9;
  return Out;
}

/// Total (inclusive) seconds and count per span name.
inline std::map<std::string, std::pair<double, uint64_t>>
totalsByName(const std::vector<Span> &Spans) {
  std::map<std::string, std::pair<double, uint64_t>> Out;
  for (const Span &S : Spans) {
    auto &[Sec, Count] = Out[S.Name];
    Sec += static_cast<double>(S.EndNs - S.StartNs) / 1e9;
    ++Count;
  }
  return Out;
}

/// Collects spans from any thread. A disabled recorder ignores every call,
/// so untraced runs execute the same code with no spans kept.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Opens a span under the innermost open span of this thread; returns
  /// its index (-1 when disabled).
  int open(std::string Name, std::string Stream = {}) {
    if (!enabled())
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    int Id = push(std::move(Name), nowNanos(), 0, innermost(),
                  std::move(Stream));
    Stack().push_back(Id);
    return Id;
  }

  void close(int Id) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[Id].EndNs = nowNanos();
    if (!Stack().empty() && Stack().back() == Id)
      Stack().pop_back();
  }

  /// Records an already-timed span (one the layer timed itself) under the
  /// innermost open span of this thread; returns its index.
  int add(std::string Name, uint64_t StartNs, uint64_t EndNs,
          std::string Stream = {}) {
    if (!enabled())
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    return push(std::move(Name), StartNs, EndNs, innermost(),
                std::move(Stream));
  }

  /// Records an already-timed span under span \p Parent (-1: a root), for
  /// spans whose start and end were seen on different threads.
  int addUnder(int Parent, std::string Name, uint64_t StartNs,
               uint64_t EndNs, std::string Stream = {}) {
    if (!enabled())
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    return push(std::move(Name), StartNs, EndNs, Parent, std::move(Stream));
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Spans;
  }

  /// The spans as a JSON array of {name, start_ns, end_ns, parent, stream}.
  std::string json() const {
    std::string Out = "[";
    for (const Span &S : spans()) {
      if (Out.size() > 1)
        Out += ",\n";
      Out += "{\"name\":\"";
      appendJsonEscaped(Out, S.Name);
      Out += "\",\"start_ns\":" + std::to_string(S.StartNs) +
             ",\"end_ns\":" + std::to_string(S.EndNs) +
             ",\"parent\":" + std::to_string(S.Parent) + ",\"stream\":\"";
      appendJsonEscaped(Out, S.Stream);
      Out += "\"}";
    }
    return Out + "]\n";
  }

private:
  /// Open spans of the calling thread, innermost last.
  static std::vector<int> &Stack() {
    thread_local std::vector<int> OpenSpans;
    return OpenSpans;
  }
  static int innermost() { return Stack().empty() ? -1 : Stack().back(); }

  int push(std::string Name, uint64_t StartNs, uint64_t EndNs, int Parent,
           std::string Stream) {
    Spans.push_back(
        {std::move(Name), StartNs, EndNs, Parent, std::move(Stream)});
    return static_cast<int>(Spans.size() - 1);
  }

  std::atomic<bool> Enabled;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, std::string Name, std::string Stream = {})
      : R(R), Id(R.open(std::move(Name), std::move(Stream))) {}
  ~ScopedSpan() { R.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  int Id;
};

} // namespace awdit::perfbench

#endif // AWDIT_PERFBENCH_SPANS_H
