//===- tests/test_obs.cpp - Observability core: histograms + tracing --------===//
//
// The acceptance battery of src/obs/: log-linear histogram bucket math,
// merge/subtract algebra, overflow handling, Prometheus rendering
// invariants (ascending `le` bounds, monotone cumulative counts, the
// +Inf/_sum/_count triple), STATS-deep percentile JSON; and the span
// tracer — disabled recording is empty, enabled dumps are well-formed
// Chrome-trace JSON with nested spans and thread names, and a real
// sharded pipeline run leaves reader/decode/apply/flush/checkpoint spans
// in the dump.
//
//===----------------------------------------------------------------------===//

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/violation_sink.h"
#include "io/text_format.h"
#include "io/sharded_ingest.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "support/serialize.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace awdit;
using namespace awdit::test;

namespace {

//===----------------------------------------------------------------------===//
// Histogram bucket math
//===----------------------------------------------------------------------===//

TEST(HistogramBuckets, SmallValuesMapExactly) {
  for (uint64_t V = 0; V < 4; ++V) {
    EXPECT_EQ(obs::histogramBucketFor(V), V);
    EXPECT_EQ(obs::histogramBucketUpper(V), V);
  }
}

TEST(HistogramBuckets, UpperBoundsAreMonotone) {
  for (size_t I = 1; I < obs::NumHistogramBuckets; ++I)
    EXPECT_GT(obs::histogramBucketUpper(I), obs::histogramBucketUpper(I - 1))
        << "bucket " << I;
}

TEST(HistogramBuckets, ValueLandsAtOrBelowItsUpperBound) {
  // Every bucket's inclusive upper bound must map back to that bucket,
  // and the next integer must map strictly later.
  for (size_t I = 0; I < obs::NumHistogramBuckets; ++I) {
    uint64_t Upper = obs::histogramBucketUpper(I);
    EXPECT_EQ(obs::histogramBucketFor(Upper), I) << "upper " << Upper;
    size_t Next = obs::histogramBucketFor(Upper + 1);
    EXPECT_GT(Next, I) << "upper+1 " << Upper + 1;
  }
}

TEST(HistogramBuckets, RelativeErrorBounded) {
  // Log-linear with 4 sub-buckets: the bucket width is at most ~25% of
  // the value, so quantiles resolve to ~25% relative error.
  for (uint64_t V = 4; V < (uint64_t(1) << 26); V = V * 5 / 4 + 1) {
    size_t I = obs::histogramBucketFor(V);
    uint64_t Upper = obs::histogramBucketUpper(I);
    ASSERT_GE(Upper, V);
    EXPECT_LE(static_cast<double>(Upper - V), 0.26 * static_cast<double>(V))
        << "value " << V << " bucket upper " << Upper;
  }
}

TEST(HistogramBuckets, HugeValuesOverflow) {
  EXPECT_EQ(obs::histogramBucketFor(uint64_t(1) << 40),
            obs::NumHistogramBuckets);
  EXPECT_EQ(obs::histogramBucketFor(UINT64_MAX), obs::NumHistogramBuckets);
}

//===----------------------------------------------------------------------===//
// Record / snapshot / percentile / merge
//===----------------------------------------------------------------------===//

TEST(Histogram, RecordAndPercentiles) {
  obs::LatencyHistogram H;
  EXPECT_TRUE(H.empty());
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V * 10); // 10..1000 micros
  EXPECT_FALSE(H.empty());
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 100u);
  EXPECT_EQ(S.Sum, 50500u);
  // Bucketed quantiles floor to the bucket's upper bound: within the
  // ~25% bucket width of the exact answer, never below it.
  uint64_t P50 = S.percentile(0.50);
  EXPECT_GE(P50, 500u);
  EXPECT_LE(P50, 640u);
  uint64_t P99 = S.percentile(0.99);
  EXPECT_GE(P99, 990u);
  EXPECT_LE(P99, 1280u);
  EXPECT_EQ(S.percentile(0.0), S.percentile(1.0 / 100));
}

TEST(Histogram, EmptySnapshotIsZero) {
  obs::LatencyHistogram H;
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.percentile(0.5), 0u);
}

TEST(Histogram, MergeAndSubtract) {
  obs::LatencyHistogram A, B;
  for (int I = 0; I < 10; ++I)
    A.record(100);
  for (int I = 0; I < 30; ++I)
    B.record(10000);
  obs::HistogramSnapshot SA = A.snapshot(), SB = B.snapshot();
  obs::HistogramSnapshot Merged = SA;
  Merged.add(SB);
  EXPECT_EQ(Merged.Count, 40u);
  EXPECT_EQ(Merged.Sum, 10 * 100u + 30 * 10000u);
  // p50 of the merged set sits in B's bucket (30 of 40 samples).
  EXPECT_GE(Merged.percentile(0.5), 10000u);

  // Subtracting the earlier snapshot recovers the delta.
  obs::HistogramSnapshot Delta = Merged;
  Delta.minus(SA);
  EXPECT_EQ(Delta.Count, SB.Count);
  EXPECT_EQ(Delta.Sum, SB.Sum);
  EXPECT_EQ(Delta.percentile(0.5), SB.percentile(0.5));
}

TEST(Histogram, OverflowBucketQuantileFloors) {
  obs::LatencyHistogram H;
  H.record(uint64_t(1) << 40); // way past the last finite bucket
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Buckets[obs::NumHistogramBuckets], 1u);
  // The quantile floors to the last finite bound instead of inventing a
  // number: the true value is larger and the caller knows it.
  EXPECT_EQ(S.percentile(1.0),
            obs::histogramBucketUpper(obs::NumHistogramBuckets - 1));
}

//===----------------------------------------------------------------------===//
// Prometheus rendering
//===----------------------------------------------------------------------===//

/// Parses `NAME_bucket{...le="BOUND"} COUNT` lines out of \p Prom.
struct BucketLine {
  double Le = 0;
  bool Inf = false;
  uint64_t Cum = 0;
};

std::vector<BucketLine> parseBucketLines(const std::string &Prom,
                                         const std::string &Name) {
  std::vector<BucketLine> Out;
  std::istringstream In(Prom);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind(Name + "_bucket{", 0) != 0)
      continue;
    size_t Le = Line.find("le=\"");
    size_t EndQ = Line.find('"', Le + 4);
    size_t Sp = Line.rfind(' ');
    EXPECT_NE(Le, std::string::npos) << Line;
    EXPECT_NE(Sp, std::string::npos) << Line;
    BucketLine B;
    std::string Bound = Line.substr(Le + 4, EndQ - Le - 4);
    if (Bound == "+Inf")
      B.Inf = true;
    else
      B.Le = std::stod(Bound);
    B.Cum = std::stoull(Line.substr(Sp + 1));
    Out.push_back(B);
  }
  return Out;
}

TEST(Histogram, PrometheusRendering) {
  obs::LatencyHistogram H;
  H.record(1);       // 1us
  H.record(1000);    // 1ms
  H.record(1000000); // 1s
  std::string Prom;
  H.snapshot().renderProm(Prom, "awdit_test_seconds", "");

  std::vector<BucketLine> B = parseBucketLines(Prom, "awdit_test_seconds");
  ASSERT_GE(B.size(), 3u);
  EXPECT_TRUE(B.back().Inf);
  EXPECT_EQ(B.back().Cum, 3u);
  for (size_t I = 1; I < B.size(); ++I) {
    if (!B[I].Inf) {
      EXPECT_GT(B[I].Le, B[I - 1].Le) << "le bounds must ascend";
    }
    EXPECT_GE(B[I].Cum, B[I - 1].Cum) << "cumulative must be monotone";
  }
  // Bounds are rendered in seconds: 1us lands under a <=1e-6-ish bound,
  // so the first nonzero cumulative appears at a tiny `le`.
  EXPECT_LT(B.front().Le, 1e-5);

  // The classic triple closes the family.
  EXPECT_NE(Prom.find("awdit_test_seconds_sum "), std::string::npos);
  EXPECT_NE(Prom.find("awdit_test_seconds_count 3\n"), std::string::npos);
  // _sum is in seconds too: 1.001001 total.
  size_t SumPos = Prom.find("awdit_test_seconds_sum ");
  double Sum = std::stod(Prom.substr(SumPos + strlen("awdit_test_seconds_sum ")));
  EXPECT_NEAR(Sum, 1.001001, 1e-6);
}

TEST(Histogram, PrometheusLabelsAndUnitless) {
  obs::LatencyHistogram H;
  H.record(7);
  std::string Prom;
  H.snapshot().renderProm(Prom, "awdit_depth", "stage=\"reader\"",
                          /*Unitless=*/true);
  // Labels precede le, and unitless bounds are plain integers.
  EXPECT_NE(Prom.find("awdit_depth_bucket{stage=\"reader\",le=\"7\"} 1"),
            std::string::npos)
      << Prom;
  EXPECT_NE(Prom.find("awdit_depth_sum{stage=\"reader\"} 7"),
            std::string::npos);
  EXPECT_NE(Prom.find("awdit_depth_count{stage=\"reader\"} 1"),
            std::string::npos);
  EXPECT_EQ(Prom.find(".\""), std::string::npos)
      << "unitless bounds must not be seconds-scaled";
}

TEST(Histogram, PercentilesJsonShape) {
  obs::LatencyHistogram H;
  for (int I = 0; I < 8; ++I)
    H.record(100);
  std::string Json = H.snapshot().percentilesJson();
  EXPECT_NE(Json.find("\"count\":8"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"sum_micros\":800"), std::string::npos);
  EXPECT_NE(Json.find("\"p50_micros\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p90_micros\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p99_micros\":"), std::string::npos);
  EXPECT_NE(Json.find("\"max_micros\":"), std::string::npos);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
}

TEST(Histogram, PhaseAndStageNames) {
  EXPECT_STREQ(obs::flushPhaseName(obs::FlushPhase::DeltaBuild),
               "delta_build");
  EXPECT_STREQ(obs::flushPhaseName(obs::FlushPhase::Merge), "merge");
  EXPECT_STREQ(obs::flushPhaseName(obs::FlushPhase::Pk), "pk");
  EXPECT_STREQ(obs::flushPhaseName(obs::FlushPhase::Finalize), "finalize");
}

//===----------------------------------------------------------------------===//
// A minimal strict JSON parser: enough to prove a trace dump is
// well-formed (Perfetto rejects malformed JSON outright).
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(std::string_view Text) : Text(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  void skipWs() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }
  bool literal(std::string_view L) {
    if (Text.substr(Pos, L.size()) != L)
      return false;
    Pos += L.size();
    return true;
  }
  bool string() {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }
  bool value() {
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == 't')
      return literal("true");
    if (C == 'f')
      return literal("false");
    if (C == 'n')
      return literal("null");
    return number();
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= Text.size() || Text[Pos] != '}')
      return false;
    ++Pos;
    return true;
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= Text.size() || Text[Pos] != ']')
      return false;
    ++Pos;
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
};

/// Scoped tracing: on at construction, off + cleared at destruction so no
/// test leaks recording state into its neighbors.
struct TraceSession {
  TraceSession() {
    obs::traceClear();
    obs::setTraceEnabled(true);
  }
  ~TraceSession() {
    obs::setTraceEnabled(false);
    obs::traceClear();
  }
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledRecordsNothing) {
  obs::setTraceEnabled(false);
  obs::traceClear();
  {
    AWDIT_SPAN("obs_test.should_not_appear");
  }
  std::string Json = obs::traceDumpJson();
  EXPECT_EQ(Json.find("should_not_appear"), std::string::npos);
  EXPECT_TRUE(JsonChecker(Json).valid());
}

TEST(Trace, EnabledSpansAppearAndDumpIsValidJson) {
  TraceSession T;
  obs::setTraceThreadName("obs-test-main");
  {
    AWDIT_SPAN("obs_test.outer");
    {
      AWDIT_SPAN("obs_test.inner");
    }
  }
  std::string Json = obs::traceDumpJson();
  ASSERT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(Json.find("\"obs_test.outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"obs_test.inner\""), std::string::npos);
  // Complete events with category + timestamps.
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"awdit\""), std::string::npos);
  // Thread-name metadata labels the track.
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"obs-test-main\""), std::string::npos);
}

TEST(Trace, NestedSpanDurationsAreOrdered) {
  TraceSession T;
  {
    AWDIT_SPAN("obs_test.nest_outer");
    AWDIT_SPAN("obs_test.nest_inner");
    // Both close here; the inner (declared later) closes first.
  }
  std::string Json = obs::traceDumpJson();
  // The ring records completion order: inner lands before outer.
  size_t Inner = Json.find("\"obs_test.nest_inner\"");
  size_t Outer = Json.find("\"obs_test.nest_outer\"");
  ASSERT_NE(Inner, std::string::npos);
  ASSERT_NE(Outer, std::string::npos);
  EXPECT_LT(Inner, Outer);
  // And the outer's duration covers the inner's.
  auto durAfter = [&](size_t Pos) {
    size_t D = Json.find("\"dur\":", Pos);
    EXPECT_NE(D, std::string::npos);
    return std::stod(Json.substr(D + 6));
  };
  EXPECT_GE(durAfter(Outer), durAfter(Inner));
}

TEST(Trace, ClearDropsHistory) {
  TraceSession T;
  {
    AWDIT_SPAN("obs_test.before_clear");
  }
  obs::traceClear();
  {
    AWDIT_SPAN("obs_test.after_clear");
  }
  std::string Json = obs::traceDumpJson();
  EXPECT_EQ(Json.find("obs_test.before_clear"), std::string::npos);
  EXPECT_NE(Json.find("obs_test.after_clear"), std::string::npos);
}

TEST(Trace, RingOverwriteKeepsMostRecent) {
  TraceSession T;
  {
    AWDIT_SPAN("obs_test.evicted_span");
  }
  for (size_t I = 0; I < obs::TraceRingSlots + 64; ++I) {
    AWDIT_SPAN("obs_test.filler");
  }
  std::string Json = obs::traceDumpJson();
  ASSERT_TRUE(JsonChecker(Json).valid());
  // The first span was pushed out of the window; fillers remain.
  EXPECT_EQ(Json.find("obs_test.evicted_span"), std::string::npos);
  EXPECT_NE(Json.find("obs_test.filler"), std::string::npos);
}

TEST(Trace, WriteTraceFileRoundTrip) {
  TraceSession T;
  {
    AWDIT_SPAN("obs_test.file_span");
  }
  std::string Dir = ::testing::TempDir();
  std::string Path = Dir + "/awdit-obs-test-trace.json";
  std::string Err;
  ASSERT_TRUE(obs::writeTraceFile(Path, &Err)) << Err;
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  EXPECT_TRUE(JsonChecker(Json).valid());
  EXPECT_NE(Json.find("obs_test.file_span"), std::string::npos);
  std::filesystem::remove(Path);
}

TEST(Trace, WriteTraceFileReportsBadPath) {
  std::string Err;
  EXPECT_FALSE(obs::writeTraceFile("/nonexistent-dir-xyz/t.json", &Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// The whole pipeline under trace: a monitored run must leave spans from
// ingest, the flush phases, a checkpoint write and the end-of-stream
// verdict — and a dump taken mid-stream must already be valid JSON.
//===----------------------------------------------------------------------===//

TEST(Trace, ShardedPipelineLeavesAllStageSpans) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 8;
  P.Txns = 2000;
  P.Seed = 99;
  std::string Text = writeTextHistory(generateHistory(P));

  TraceSession T;
  obs::setTraceThreadName("monitor");

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 128;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  // A store checkpoint write under trace, at the first flush.
  std::string Dir = ::testing::TempDir() + "/awdit-obs-ckpt";
  std::filesystem::remove_all(Dir);
  StoreCheckpointer Ckpt;
  std::string Err;
  ASSERT_TRUE(Ckpt.open(Dir, &Err)) << Err;
  ShardedMonitorIngest Ingest(
      M, "native", /*Threads=*/1, [&](const IngestFlushPoint &FP) {
        if (Ckpt.commits() > 0)
          return;
        CheckpointMeta Meta;
        Meta.Format = "native";
        Meta.Options = Options;
        Meta.StreamOffset = FP.StreamOffset;
        Meta.LineNo = FP.LineNo;
        Meta.CommittedTxns = FP.CommittedTxns;
        Meta.Flushes = FP.Flushes;
        std::string MachineBlob;
        ByteWriter W(MachineBlob);
        FP.Machine.saveState(W);
        std::string WErr;
        EXPECT_TRUE(Ckpt.write(FP.M, MachineBlob, Meta, &WErr)) << WErr;
      });
  ASSERT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += 7777)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, 7777)))
      break;

  // Dump mid-stream, before the end-of-stream work.
  std::string MidFlight = obs::traceDumpJson();
  EXPECT_TRUE(JsonChecker(MidFlight).valid());

  EXPECT_NE(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
      << Ingest.errorText();
  M.finalize();
  ASSERT_GT(Ckpt.commits(), 0u) << "no flush happened";

  std::string Json = obs::traceDumpJson();
  ASSERT_TRUE(JsonChecker(Json).valid());
  for (const char *Span :
       {"\"ingest.apply\"", "\"flush\"", "\"flush.delta\"",
        "\"flush.merge\"", "\"flush.finalize\"", "\"checkpoint.store\"",
        "\"checker.finalize\""})
    EXPECT_NE(Json.find(Span), std::string::npos) << "missing " << Span;
  // The thread named its track.
  EXPECT_NE(Json.find("\"monitor\""), std::string::npos);

  std::filesystem::remove_all(Dir);
}

TEST(Metrics, PipelineRunFillsHistograms) {
  // The run above (any monitored run, really) must have recorded flush
  // and ingest-stage samples into the process-wide registry. Run a small
  // one here so this test stands alone.
  GenerateParams P;
  P.Bench = Benchmark::Random;
  P.Sessions = 4;
  P.Txns = 600;
  P.Seed = 5;
  std::string Text = writeTextHistory(generateHistory(P));
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 64;
  Monitor M(Options);
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  ASSERT_TRUE(Ingest.valid());
  Ingest.feed(Text);
  Ingest.finishStream();
  M.finalize();

  obs::PipelineMetrics &Met = obs::metrics();
  EXPECT_FALSE(Met.FlushTotal.empty());
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I)
    EXPECT_FALSE(Met.FlushPhases[I].empty())
        << obs::flushPhaseName(static_cast<obs::FlushPhase>(I));
  EXPECT_FALSE(Met.IngestApply.empty());

  // The per-monitor cumulative histogram carries the same flushes.
  EXPECT_FALSE(M.flushLatency().empty());
  EXPECT_GT(M.flushLatency().snapshot().Count, 0u);
}

TEST(Metrics, ScopedLatencyAccumulates) {
  obs::LatencyHistogram H;
  uint64_t Acc = 0;
  {
    obs::ScopedLatency L(H, &Acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    obs::ScopedLatency L(H); // null accumulator is fine
  }
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 2u);
  // The accumulator got the same micros the histogram recorded: at least
  // the 2ms sleep, and equal to the snapshot sum minus the second
  // (accumulator-less) sample's contribution — bounded loosely here.
  EXPECT_GE(Acc, 2000u);
  EXPECT_LE(Acc, S.Sum);
}

} // namespace
