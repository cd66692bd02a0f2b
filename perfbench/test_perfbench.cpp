//===- perfbench/test_perfbench.cpp - Tests of the benchmark's helpers ------===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic and framing the benchmark's numbers rest on: span self
/// time, the /metrics scrape parser, the serve client's mux framing and the
/// expected-verdict logic (run.py's statistics are tested in test_run.py).
/// Build and run with
/// `cmake --build .bench_build/perfbench --target perfbench-tests` and
/// `.bench_build/perfbench/perfbench-tests`.
///
//===----------------------------------------------------------------------===//

#include "mux.h"
#include "prom.h"
#include "spans.h"
#include "verdict.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace awdit;
using namespace awdit::perfbench;

// --- Span self time ---------------------------------------------------------

namespace {
Span span(const char *Name, uint64_t Start, uint64_t End, int Parent) {
  return Span{Name, Start, End, Parent, ""};
}
} // namespace

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<Span> S = {span("checker.ingest", 0, 100, -1),
                         span("checker.flush", 10, 30, 0),
                         span("store.commit", 50, 60, 0)};
  std::vector<uint64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 70u);
  EXPECT_EQ(Self[1], 20u);
  EXPECT_EQ(Self[2], 10u);
}

TEST(Spans, OverlappingChildrenCountOnce) {
  // Two concurrent tenants under one round: their union, not their sum,
  // leaves the round's self time.
  std::vector<Span> S = {span("server.round", 0, 100, -1),
                         span("server.replay", 10, 60, 0),
                         span("server.replay", 40, 90, 0)};
  EXPECT_EQ(selfTimes(S)[0], 20u);
}

TEST(Spans, ChildrenAreClippedToTheParent) {
  std::vector<Span> S = {span("io.parse", 10, 20, -1),
                         span("io.decode", 0, 15, 0),
                         span("io.decode", 18, 40, 0)};
  EXPECT_EQ(selfTimes(S)[0], 3u);
}

TEST(Spans, SelfSecondsGroupByLayer) {
  std::vector<Span> S = {span("checker.ingest", 0, 3'000'000'000, -1),
                         span("checker.flush", 0, 1'000'000'000, 0),
                         span("store.commit", 1'000'000'000, 2'000'000'000, 0),
                         span("io.read", 5'000'000'000, 5'500'000'000, -1)};
  std::map<std::string, double> L = selfSecondsByLayer(S);
  EXPECT_DOUBLE_EQ(L["checker"], 2.0);
  EXPECT_DOUBLE_EQ(L["store"], 1.0);
  EXPECT_DOUBLE_EQ(L["io"], 0.5);
}

TEST(Spans, RecorderNestsPerThreadAndIgnoresWhenDisabled) {
  SpanRecorder Off(false);
  { ScopedSpan A(Off, "io.read"); }
  EXPECT_TRUE(Off.spans().empty());

  SpanRecorder R(true);
  {
    ScopedSpan Outer(R, "checker.ingest");
    { ScopedSpan Inner(R, "store.commit"); }
    R.add("checker.flush", 1, 2);
    std::thread([&R] { ScopedSpan Other(R, "io.read", "t1"); }).join();
  }
  std::vector<Span> S = R.spans();
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 0);
  EXPECT_EQ(S[3].Parent, -1); // another thread: no causing span
  EXPECT_EQ(S[3].Stream, "t1");
  EXPECT_EQ(R.addUnder(1, "x.y", 3, 4), 4);
  EXPECT_EQ(R.spans()[4].Parent, 1);
}

// --- /metrics scrape --------------------------------------------------------

TEST(Prom, ParsesSeriesWithAndWithoutLabels) {
  PromSeries S = parsePromText(
      "# HELP awdit_server_pump_seconds One item.\n"
      "# TYPE awdit_server_pump_seconds histogram\n"
      "awdit_server_pump_seconds_sum 1.5\n"
      "awdit_server_pump_seconds_count 3\r\n"
      "awdit_flush_phase_duration_seconds_sum{phase=\"finalize\"} 2.25e-3\n"
      "awdit_session_violations{stream=\"a b\"} 4\n"
      "\n"
      "garbage line\n"
      "awdit_server_flush_seconds_total 0.500000\n");
  EXPECT_DOUBLE_EQ(promValue(S, "awdit_server_pump_seconds_sum"), 1.5);
  EXPECT_DOUBLE_EQ(promValue(S, "awdit_server_pump_seconds_count"), 3);
  EXPECT_DOUBLE_EQ(
      promValue(S, "awdit_flush_phase_duration_seconds_sum{phase=\"finalize\"}"),
      2.25e-3);
  EXPECT_DOUBLE_EQ(promValue(S, "awdit_session_violations{stream=\"a b\"}"), 4);
  EXPECT_DOUBLE_EQ(promValue(S, "awdit_server_flush_seconds_total"), 0.5);
  EXPECT_DOUBLE_EQ(promValue(S, "missing", -1), -1);
  EXPECT_EQ(S.size(), 5u);
}

TEST(Prom, HistogramQuantileIsTheBucketUpperBound) {
  PromSeries S = parsePromText(
      "awdit_flush_duration_seconds_bucket{le=\"0.001\"} 50\n"
      "awdit_flush_duration_seconds_bucket{le=\"0.004\"} 90\n"
      "awdit_flush_duration_seconds_bucket{le=\"0.016\"} 100\n"
      "awdit_flush_duration_seconds_bucket{le=\"+Inf\"} 100\n");
  EXPECT_DOUBLE_EQ(
      promHistogramQuantile(S, "awdit_flush_duration_seconds", 0.50), 0.001);
  EXPECT_DOUBLE_EQ(
      promHistogramQuantile(S, "awdit_flush_duration_seconds", 0.51), 0.004);
  EXPECT_DOUBLE_EQ(
      promHistogramQuantile(S, "awdit_flush_duration_seconds", 0.99), 0.016);
  EXPECT_EQ(promHistogramQuantile(S, "awdit_missing", 0.5), 0);
}

// --- Mux framing ------------------------------------------------------------

namespace {
/// The server's inbound demultiplexing rules (docs/PROTOCOL.md): a frame
/// routes its payload and switches the current stream, a bare line goes
/// to the current stream with "@@" unescaped.
std::map<std::string, std::string> demux(std::string_view Wire) {
  std::map<std::string, std::string> Out;
  std::string Current;
  while (!Wire.empty()) {
    size_t Eol = Wire.find('\n');
    std::string_view Line = Wire.substr(0, Eol);
    Wire = Eol == std::string_view::npos ? std::string_view()
                                         : Wire.substr(Eol + 1);
    if (server::isMuxFrame(Line)) {
      std::string_view Stream, Payload;
      bool HasPayload = false;
      EXPECT_TRUE(server::splitMuxFrame(Line, Stream, Payload, HasPayload));
      Current = std::string(Stream);
      if (HasPayload)
        Out[Current] += std::string(Payload) + "\n";
      continue;
    }
    Out[Current] += std::string(server::unescapeMuxPayload(Line)) + "\n";
  }
  return Out;
}
} // namespace

TEST(Mux, ChunksDemuxBackToTheirStreams) {
  std::string Wire;
  appendMuxChunk(Wire, "r0t1", "b 0\nw 1 10\nc\n");
  appendMuxChunk(Wire, "r0t2", "b 1\nr 1 10\n");
  appendMuxChunk(Wire, "r0t1", "b 0\nc\n");
  Wire += server::muxFrame("r0t2", "c") + "\n";
  std::map<std::string, std::string> Streams = demux(Wire);
  EXPECT_EQ(Streams["r0t1"], "b 0\nw 1 10\nc\nb 0\nc\n");
  EXPECT_EQ(Streams["r0t2"], "b 1\nr 1 10\nc\n");
  EXPECT_EQ(Streams.size(), 2u);
}

TEST(Mux, LinesStartingWithAtAreEscaped) {
  std::string Wire;
  appendMuxChunk(Wire, "s", "@odd\nplain\n@@twice\n");
  EXPECT_EQ(Wire, "@s\n@@odd\nplain\n@@@twice\n");
  EXPECT_EQ(demux(Wire)["s"], "@odd\nplain\n@@twice\n");
}

TEST(Mux, RepliesSplitIntoStreamVerbAndRest) {
  Reply R = parseReply("@r3t7 FINAL {\"consistent\":false,\"violations\":2}");
  EXPECT_EQ(R.Stream, "r3t7");
  EXPECT_EQ(R.Verb, "FINAL");
  EXPECT_FALSE(jsonTrue(R.Rest, "consistent"));
  EXPECT_EQ(jsonUint(R.Rest, "violations"), 2u);
  EXPECT_EQ(jsonUint(R.Rest, "committed", 9), 9u);

  R = parseReply("@r0t0 BYE");
  EXPECT_EQ(R.Stream, "r0t0");
  EXPECT_EQ(R.Verb, "BYE");
  EXPECT_EQ(R.Rest, "");

  R = parseReply("ERR mux: unknown stream 'x'");
  EXPECT_EQ(R.Stream, "");
  EXPECT_EQ(R.Verb, "ERR");
  EXPECT_EQ(R.Rest, "mux: unknown stream 'x'");

  R = parseReply("STATS {\"sessions\":1}");
  EXPECT_EQ(R.Verb, "STATS");
}

// --- Expected verdicts ------------------------------------------------------

TEST(Verdict, CleanHistoriesMustBeConsistent) {
  EXPECT_EQ(verdictMismatch(false, true, 0), "");
  EXPECT_NE(verdictMismatch(false, false, 1), "");
  EXPECT_NE(verdictMismatch(false, false, 0), "");
  EXPECT_NE(verdictMismatch(false, true, 2), "");
}

TEST(Verdict, InjectedHistoriesMustReportAViolation) {
  EXPECT_EQ(verdictMismatch(true, false, 1), "");
  EXPECT_EQ(verdictMismatch(true, false, 5), "");
  EXPECT_NE(verdictMismatch(true, true, 0), "");
  EXPECT_NE(verdictMismatch(true, false, 0), "");
}

TEST(Verdict, TallyNamesEachFailure) {
  VerdictTally T;
  T.check("CC", false, true, 0);
  T.check("r0t3(cc)", true, true, 0);
  T.record("r0t4(ra)", "disconnected");
  EXPECT_EQ(T.Attempted, 3u);
  ASSERT_EQ(T.Failures.size(), 2u);
  EXPECT_EQ(T.Failures[0], "r0t3(cc): injected anomaly reported consistent");
  EXPECT_EQ(T.Failures[1], "r0t4(ra): disconnected");
}
