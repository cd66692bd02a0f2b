//===- obs/histogram.cpp - Lock-free log-scale latency histograms ----------===//

#include "obs/histogram.h"

#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>

using namespace awdit;
using namespace awdit::obs;

size_t awdit::obs::histogramBucketFor(uint64_t Value) {
  constexpr uint64_t SubCount = uint64_t(1) << SubBucketBits;
  if (Value < SubCount)
    return static_cast<size_t>(Value);
  unsigned Octave = 63 - static_cast<unsigned>(std::countl_zero(Value));
  if (Octave > MaxOctave)
    return NumHistogramBuckets; // overflow
  uint64_t Sub = (Value >> (Octave - SubBucketBits)) & (SubCount - 1);
  return (static_cast<size_t>(Octave - SubBucketBits) << SubBucketBits) +
         SubCount + static_cast<size_t>(Sub);
}

uint64_t awdit::obs::histogramBucketUpper(size_t Index) {
  constexpr uint64_t SubCount = uint64_t(1) << SubBucketBits;
  if (Index < SubCount)
    return Index;
  size_t Block = (Index - SubCount) >> SubBucketBits;
  unsigned Octave = static_cast<unsigned>(Block) + SubBucketBits;
  uint64_t Sub = (Index - SubCount) & (SubCount - 1);
  return (uint64_t(1) << Octave) + ((Sub + 1) << (Octave - SubBucketBits)) -
         1;
}

void HistogramSnapshot::add(const HistogramSnapshot &Other) {
  for (size_t I = 0; I < Buckets.size(); ++I)
    Buckets[I] += Other.Buckets[I];
  Count += Other.Count;
  Sum += Other.Sum;
}

void HistogramSnapshot::minus(const HistogramSnapshot &Other) {
  for (size_t I = 0; I < Buckets.size(); ++I)
    Buckets[I] -= std::min(Buckets[I], Other.Buckets[I]);
  Count -= std::min(Count, Other.Count);
  Sum -= std::min(Sum, Other.Sum);
}

uint64_t HistogramSnapshot::percentile(double Q) const {
  if (Count == 0)
    return 0;
  Q = std::min(std::max(Q, 0.0), 1.0);
  uint64_t Target = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (Target == 0)
    Target = 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen >= Target)
      return I < NumHistogramBuckets
                 ? histogramBucketUpper(I)
                 : histogramBucketUpper(NumHistogramBuckets - 1);
  }
  return histogramBucketUpper(NumHistogramBuckets - 1);
}

namespace {

/// Octave-edge rendering: one cumulative line per full octave (the last
/// sub-bucket of each), so a scrape carries ~27 `le` bounds instead of
/// the 105 internal buckets.
bool isOctaveEdge(size_t Index) {
  constexpr size_t SubCount = size_t(1) << SubBucketBits;
  if (Index < SubCount)
    return Index == SubCount - 1;
  return ((Index - SubCount) & (SubCount - 1)) == SubCount - 1;
}

void appendLeBound(std::string &Out, uint64_t UpperMicros, bool Unitless) {
  char Buf[40];
  if (Unitless)
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(UpperMicros));
  else
    std::snprintf(Buf, sizeof(Buf), "%.9g",
                  static_cast<double>(UpperMicros) / 1e6);
  Out += Buf;
}

} // namespace

void HistogramSnapshot::renderProm(std::string &Out, const std::string &Name,
                                   const std::string &Labels,
                                   bool Unitless) const {
  std::string Prefix = Labels.empty() ? "" : Labels + ",";
  uint64_t Cum = 0;
  for (size_t I = 0; I < NumHistogramBuckets; ++I) {
    Cum += Buckets[I];
    if (!isOctaveEdge(I))
      continue;
    Out += Name;
    Out += "_bucket{";
    Out += Prefix;
    Out += "le=\"";
    appendLeBound(Out, histogramBucketUpper(I), Unitless);
    Out += "\"} ";
    Out += std::to_string(Cum);
    Out += '\n';
  }
  Out += Name;
  Out += "_bucket{";
  Out += Prefix;
  Out += "le=\"+Inf\"} ";
  Out += std::to_string(Count);
  Out += '\n';
  std::string LabelBlock = Labels.empty() ? "" : "{" + Labels + "}";
  Out += Name;
  Out += "_sum";
  Out += LabelBlock;
  Out += ' ';
  if (Unitless) {
    Out += std::to_string(Sum);
  } else {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g",
                  static_cast<double>(Sum) / 1e6);
    Out += Buf;
  }
  Out += '\n';
  Out += Name;
  Out += "_count";
  Out += LabelBlock;
  Out += ' ';
  Out += std::to_string(Count);
  Out += '\n';
}

std::string HistogramSnapshot::percentilesJson() const {
  std::string Out = "{\"count\":" + std::to_string(Count) +
                    ",\"sum_micros\":" + std::to_string(Sum);
  const std::pair<const char *, double> Quantiles[] = {
      {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  for (auto [Label, Q] : Quantiles) {
    Out += ",\"";
    Out += Label;
    Out += "_micros\":";
    Out += std::to_string(percentile(Q));
  }
  Out += ",\"max_micros\":";
  Out += std::to_string(percentile(1.0));
  Out += "}";
  return Out;
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot S;
  uint64_t BucketTotal = 0;
  for (size_t I = 0; I <= NumHistogramBuckets; ++I) {
    S.Buckets[I] = Counts[I].load(std::memory_order_relaxed);
    BucketTotal += S.Buckets[I];
  }
  // Count is derived from the buckets themselves (not TotalCount, which
  // races individual records) so cumulative rendering stays monotone
  // through the +Inf line even mid-record.
  S.Count = BucketTotal;
  S.Sum = TotalSum.load(std::memory_order_relaxed);
  return S;
}

const char *awdit::obs::flushPhaseName(FlushPhase P) {
  switch (P) {
  case FlushPhase::DeltaBuild:
    return "delta_build";
  case FlushPhase::Merge:
    return "merge";
  case FlushPhase::Pk:
    return "pk";
  case FlushPhase::Finalize:
    return "finalize";
  }
  return "unknown";
}

PipelineMetrics &awdit::obs::metrics() {
  static PipelineMetrics *M = new PipelineMetrics; // never destroyed:
  return *M; // pool threads may record during static teardown
}

uint64_t ScopedLatency::traceClockNanos() { return traceNowNanos(); }
