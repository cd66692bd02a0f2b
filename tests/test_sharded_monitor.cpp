//===- tests/test_sharded_monitor.cpp - Ingest pipeline invariants ---------===//
//
// The battery of the one bytes-to-Monitor pipeline (io/sharded_ingest.h):
// how a stream is cut into feed calls must not change a single observable
// — the finalize report, the violation stream with its rendered
// descriptions, the stats, the error text and the stream cursor — and a
// run resumed from a mid-stream checkpoint must continue the
// uninterrupted run byte for byte.
//
//===----------------------------------------------------------------------===//

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/stats_snapshot.h"
#include "checker/violation_sink.h"
#include "io/sharded_ingest.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "support/serialize.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace awdit;
using namespace awdit::test;

namespace {

/// Everything one pipeline run produces that a user can observe.
struct RunResult {
  CheckReport Report;
  std::vector<Violation> Streamed;
  std::vector<std::string> Descriptions;
  MonitorStats Stats;
  std::string Error;
  ShardedMonitorIngest::EndState End =
      ShardedMonitorIngest::EndState::Clean;
  uint64_t LineNo = 0;
  uint64_t Offset = 0;
};

/// Feeds \p Text through the pipeline in chunks of \p ChunkSize bytes.
RunResult runPipeline(const std::string &Text, const MonitorOptions &Options,
                      size_t ChunkSize) {
  RunResult R;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  EXPECT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += ChunkSize)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, ChunkSize)))
      break;
  R.End = Ingest.finishStream();
  R.Error = Ingest.errorText();
  R.LineNo = Ingest.lineNumber();
  R.Offset = Ingest.streamOffset();
  R.Report = M.finalize();
  R.Stats = M.stats();
  R.Streamed = std::move(Sink.Violations);
  R.Descriptions = std::move(Sink.Descriptions);
  return R;
}

void expectSameViolation(const Violation &X, const Violation &Y,
                         const std::string &Context) {
  EXPECT_EQ(X.Kind, Y.Kind) << Context;
  EXPECT_EQ(X.T, Y.T) << Context;
  EXPECT_EQ(X.OpIndex, Y.OpIndex) << Context;
  EXPECT_EQ(X.Other, Y.Other) << Context;
  ASSERT_EQ(X.Cycle.size(), Y.Cycle.size()) << Context;
  for (size_t E = 0; E < X.Cycle.size(); ++E) {
    EXPECT_EQ(X.Cycle[E].From, Y.Cycle[E].From) << Context;
    EXPECT_EQ(X.Cycle[E].To, Y.Cycle[E].To) << Context;
    EXPECT_EQ(X.Cycle[E].Kind, Y.Cycle[E].Kind) << Context;
  }
}

/// The bit-identity oracle: every observable of \p Got must equal the
/// reference \p Want.
void expectSameRun(const RunResult &Want, const RunResult &Got,
                   const std::string &Context) {
  EXPECT_EQ(Want.End, Got.End) << Context;
  EXPECT_EQ(Want.Error, Got.Error) << Context;
  EXPECT_EQ(Want.Report.Consistent, Got.Report.Consistent) << Context;
  ASSERT_EQ(Want.Report.Violations.size(), Got.Report.Violations.size())
      << Context;
  for (size_t I = 0; I < Want.Report.Violations.size(); ++I)
    expectSameViolation(Want.Report.Violations[I], Got.Report.Violations[I],
                        Context + " report violation " + std::to_string(I));
  ASSERT_EQ(Want.Streamed.size(), Got.Streamed.size()) << Context;
  for (size_t I = 0; I < Want.Streamed.size(); ++I)
    expectSameViolation(Want.Streamed[I], Got.Streamed[I],
                        Context + " streamed violation " + std::to_string(I));
  EXPECT_EQ(Want.Descriptions, Got.Descriptions) << Context;
  EXPECT_EQ(Want.Report.Stats.InferredEdges, Got.Report.Stats.InferredEdges)
      << Context;
  EXPECT_EQ(Want.Report.Stats.GraphEdges, Got.Report.Stats.GraphEdges)
      << Context;
  EXPECT_EQ(Want.Stats.IngestedTxns, Got.Stats.IngestedTxns) << Context;
  EXPECT_EQ(Want.Stats.IngestedOps, Got.Stats.IngestedOps) << Context;
  EXPECT_EQ(Want.Stats.CommittedTxns, Got.Stats.CommittedTxns) << Context;
  EXPECT_EQ(Want.Stats.Flushes, Got.Stats.Flushes) << Context;
  EXPECT_EQ(Want.Stats.ReportedViolations, Got.Stats.ReportedViolations)
      << Context;
  EXPECT_EQ(Want.Stats.EvictedTxns, Got.Stats.EvictedTxns) << Context;
  EXPECT_EQ(Want.Stats.Compactions, Got.Stats.Compactions) << Context;
}

History generated(int BenchIdx, int Seed, size_t Txns = 800) {
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 6;
  P.Txns = Txns;
  P.Seed = static_cast<uint64_t>(Seed);
  P.AbortProbability = 0.05;
  return generateHistory(P);
}

} // namespace

/// Chunk boundaries must not matter: the pipeline assembles whole lines
/// itself.
TEST(ShardedIngest, ChunkingInvariant) {
  History H = generated(2, 123, 400);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadAtomic;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 16;
  RunResult Reference = runPipeline(Text, Options, Text.size());
  for (size_t Chunk : {1ul, 13ul, 4096ul}) {
    RunResult Got = runPipeline(Text, Options, Chunk);
    expectSameRun(Reference, Got, "chunk " + std::to_string(Chunk));
  }
}

/// One feed() of a multi-megabyte text costs what 64 KiB feeds cost: the
/// pipeline applies each piece's whole lines before copying the next,
/// instead of carrying every pending byte into each new page (quadratic in
/// the chunk — minutes for this text). A line longer than a page grows
/// its page geometrically instead of a byte at a time.
TEST(ShardedIngest, WholeTextFeedMatchesPagedFeeds) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 16;
  P.Txns = 24000;
  P.Seed = 5;
  std::string Text = "# " + std::string(1 << 20, 'x') + "\n" +
                     writeTextHistory(generateHistory(P));
  ASSERT_GE(Text.size(), 4u << 20);
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.Check.Threads = 1;
  RunResult Paged = runPipeline(Text, Options, 64 << 10);
  RunResult Whole = runPipeline(Text, Options, Text.size());
  expectSameRun(Paged, Whole, "whole text");
  EXPECT_EQ(Paged.LineNo, Whole.LineNo);
  EXPECT_EQ(Whole.Offset, Text.size());
  EXPECT_EQ(Whole.LineNo,
            static_cast<uint64_t>(std::count(Text.begin(), Text.end(), '\n')));
}

/// Parse errors surface with their line number at any chunking, and the
/// failure is synchronous: the cursor stops exactly at the start of the
/// failing line, whatever was fed after it.
TEST(ShardedIngest, ErrorsCarryLineNumbersAcrossThreadCounts) {
  std::string Text = "b 0\nw 1 10\nc\nb 0\nw 1 10\nc\n"; // duplicate write
  const uint64_t Line5 = std::string("b 0\nw 1 10\nc\nb 0\n").size();
  for (size_t Chunk : {size_t(1), size_t(7), Text.size()}) {
    std::string Context = "chunk " + std::to_string(Chunk);
    MonitorOptions Options;
    Options.Level = IsolationLevel::ReadCommitted;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
      if (!Ingest.feed(std::string_view(Text).substr(Pos, Chunk)))
        break;
    EXPECT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
        << Context;
    EXPECT_NE(Ingest.errorText().find("line 5"), std::string::npos)
        << Context << ": " << Ingest.errorText();
    EXPECT_NE(Ingest.errorText().find("duplicate write"), std::string::npos)
        << Context << ": " << Ingest.errorText();
    EXPECT_EQ(Ingest.lineNumber(), 5u) << Context;
    EXPECT_EQ(Ingest.streamOffset(), Line5) << Context;
  }
}

/// A truncated stream reports the open transaction instead of failing;
/// the unterminated trailing line is still applied.
TEST(ShardedIngest, OpenTxnAtEofReported) {
  std::string Text = "b 0\nw 1 10\nc\nb 0\nr 1 10"; // no newline, no close
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Monitor M(Options);
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  Ingest.feed(Text);
  EXPECT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::OpenTxn);
  EXPECT_EQ(Ingest.committedTxns(), 1u);
  EXPECT_EQ(Ingest.lineNumber(), 5u);
  EXPECT_EQ(Ingest.streamOffset(), Text.size());
  CheckReport Report = M.finalize();
  EXPECT_TRUE(Report.Consistent);
}

namespace {

/// One byte-exact observable bundle: the JSONL violation stream and the
/// end-of-run summary, exactly as `awdit monitor --json` would print them.
struct FuzzRun {
  std::string Jsonl;
  std::string Summary;
  ShardedMonitorIngest::EndState End = ShardedMonitorIngest::EndState::Clean;
};

/// A resumable cut: the chunked monitor state with its coordinate bases,
/// the parser machine state, plus how many JSONL bytes had been emitted
/// when it was taken.
struct FuzzSnapshot {
  std::string Bytes;
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  std::string Machine;
  CheckpointMeta Meta;
  size_t JsonlBytesAtCheckpoint = 0;
};

/// Runs \p Text uninterrupted, capturing a checkpoint at every flush
/// boundary.
FuzzRun runFuzz(const std::string &Text, const MonitorOptions &Options,
                std::vector<FuzzSnapshot> &Snapshots) {
  FuzzRun R;
  std::ostringstream Out;
  JsonLinesSink Sink(Out);
  Monitor M(Options, &Sink);
  auto Hook = [&](const IngestFlushPoint &P) {
    FuzzSnapshot S;
    S.Meta.Format = "native";
    S.Meta.Options = Options;
    S.Meta.StreamOffset = P.StreamOffset;
    S.Meta.LineNo = P.LineNo;
    S.Meta.CommittedTxns = P.CommittedTxns;
    S.Meta.Flushes = P.Flushes;
    ByteWriter W(S.Machine);
    P.Machine.saveState(W);
    std::vector<ChunkMark> Marks;
    P.M.saveStateChunked(S.Bytes, Marks, S.IdBase, S.SoBase);
    S.JsonlBytesAtCheckpoint = Out.str().size();
    Snapshots.push_back(std::move(S));
  };
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1, std::move(Hook));
  EXPECT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += 4096)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, 4096)))
      break;
  R.End = Ingest.finishStream();
  EXPECT_NE(R.End, ShardedMonitorIngest::EndState::Error)
      << Ingest.errorText();
  CheckReport Report = M.finalize();
  R.Summary = monitorSummaryJson(Report, M.stats(), Options.Level);
  R.Jsonl = Out.str();
  return R;
}

/// Restores \p S and replays the rest of \p Text; returns the resumed
/// suffix of the JSONL stream plus the final summary.
FuzzRun resumeFuzz(const FuzzSnapshot &S, const std::string &Text,
                   const MonitorOptions &Options) {
  FuzzRun R;
  std::ostringstream Out;
  JsonLinesSink Sink(Out);
  Monitor M(Options, &Sink);
  std::string Err;
  EXPECT_TRUE(M.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err)) << Err;
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  ByteReader MR(S.Machine);
  EXPECT_TRUE(Ingest.machine().loadState(MR));
  Ingest.primeResume(S.Meta.StreamOffset, S.Meta.LineNo);
  std::string_view Rest = std::string_view(Text).substr(S.Meta.StreamOffset);
  for (size_t Pos = 0; Pos < Rest.size(); Pos += 4096)
    if (!Ingest.feed(Rest.substr(Pos, 4096)))
      break;
  R.End = Ingest.finishStream();
  EXPECT_NE(R.End, ShardedMonitorIngest::EndState::Error)
      << Ingest.errorText();
  CheckReport Report = M.finalize();
  R.Summary = monitorSummaryJson(Report, M.stats(), Options.Level);
  R.Jsonl = Out.str();
  return R;
}

} // namespace

/// Seeded randomized determinism fuzz: for randomly drawn histories,
/// cadences, and windows, a kill-and-resume in the middle must reproduce
/// the uninterrupted run's JSONL violation stream from the checkpoint on
/// and its end-of-run summary, byte for byte.
TEST(ShardedDeterminismFuzz, ByteIdenticalAcrossThreadsAndResume) {
  std::mt19937_64 Rng(0xA5D17u); // fixed seed: failures must reproduce
  const int Cadences[] = {1, 17, 64};
  const int Windows[] = {0, 64};
  for (int Iter = 0; Iter < 4; ++Iter) {
    int Bench = static_cast<int>(Rng() % 4);
    int Seed = static_cast<int>(Rng() % 10000);
    size_t Txns = 400 + static_cast<size_t>(Rng() % 400);
    History H = generated(Bench, Seed, Txns);
    if (Iter % 2 == 1) {
      std::string Err;
      std::optional<History> Injected =
          injectAnomaly(H, static_cast<AnomalyKind>(Rng() % 7),
                        static_cast<uint64_t>(Rng() % 1000), &Err);
      ASSERT_TRUE(Injected) << Err;
      H = std::move(*Injected);
    }
    std::string Text = writeTextHistory(H);

    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Options.Check.Threads = 1;
    Options.CheckIntervalTxns =
        static_cast<size_t>(Cadences[Rng() % 3]);
    Options.WindowTxns = static_cast<size_t>(Windows[Rng() % 2]);
    std::string Context = "iter " + std::to_string(Iter) + " cadence " +
                          std::to_string(Options.CheckIntervalTxns) +
                          " window " + std::to_string(Options.WindowTxns);

    std::vector<FuzzSnapshot> Snapshots;
    FuzzRun Reference = runFuzz(Text, Options, Snapshots);

    // Kill-and-resume at a mid-stream flush: the resumed run's stream is
    // exactly the reference's suffix, and the summary is unchanged.
    ASSERT_FALSE(Snapshots.empty()) << Context;
    const FuzzSnapshot &S = Snapshots[Snapshots.size() / 2];
    FuzzRun Resumed = resumeFuzz(S, Text, Options);
    EXPECT_EQ(Reference.End, Resumed.End) << Context;
    EXPECT_EQ(Reference.Jsonl.substr(S.JsonlBytesAtCheckpoint), Resumed.Jsonl)
        << Context;
    EXPECT_EQ(Reference.Summary, Resumed.Summary) << Context;
  }
}

/// abortStream (the SIGINT path) applies everything already fed and leaves
/// the monitor finalizable.
TEST(ShardedIngest, AbortStreamKeepsAppliedPrefix) {
  History H = generated(0, 42, 300);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 8;
  Monitor M(Options);
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  Ingest.feed(Text);
  Ingest.abortStream();
  EXPECT_TRUE(Ingest.errorText().empty());
  EXPECT_GT(Ingest.committedTxns(), 0u);
  CheckReport Report = M.finalize();
  (void)Report;
  EXPECT_GT(M.stats().IngestedTxns, 0u);
}
