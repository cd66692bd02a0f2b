//===- tests/test_sharded_monitor.cpp - Sharded ingest equivalence ----------===//
//
// The acceptance battery of the multi-core sharded monitor pipeline
// (io/sharded_ingest.h): driving the same byte stream through the pipeline
// with any thread count must produce output bit-identical to the legacy
// single-threaded path — the same finalize report, the same violation
// stream in the same order with the same rendered descriptions, at every
// flush cadence and window size, on clean and anomaly-injected histories
// and in all three input formats. These tests are also the core workload
// of the CI ThreadSanitizer job.
//
//===----------------------------------------------------------------------===//

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/stats_snapshot.h"
#include "checker/violation_sink.h"
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "support/serialize.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
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
};

/// Feeds \p Text through the sharded pipeline with \p Threads extra
/// threads, in uneven chunks so batch and chunk boundaries never align.
RunResult runPipeline(const std::string &Text, const std::string &Format,
                      unsigned Threads, const MonitorOptions &Options,
                      size_t ChunkSize = 7777) {
  RunResult R;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  ShardedMonitorIngest Ingest(M, Format, Threads);
  EXPECT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += ChunkSize)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, ChunkSize)))
      break;
  R.End = Ingest.finishStream();
  R.Error = Ingest.errorText();
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
/// single-threaded reference \p Want.
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

/// Clean histories: level x cadence x window, threads 2 and 4 vs 1.
class ShardedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ShardedEquivalence, MatchesSingleThreadedMonitor) {
  auto [LevelIdx, Interval, Window] = GetParam();
  History H = generated(LevelIdx % 4, LevelIdx * 17 + Interval + Window);
  std::string Text = writeTextHistory(H);

  MonitorOptions Options;
  Options.Level = static_cast<IsolationLevel>(LevelIdx);
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = static_cast<size_t>(Interval);
  Options.WindowTxns = static_cast<size_t>(Window);

  RunResult Reference = runPipeline(Text, "native", 1, Options);
  for (unsigned Threads : {2u, 4u}) {
    RunResult Sharded = runPipeline(Text, "native", Threads, Options);
    expectSameRun(Reference, Sharded,
                  "level " + std::to_string(LevelIdx) + " interval " +
                      std::to_string(Interval) + " window " +
                      std::to_string(Window) + " threads " +
                      std::to_string(Threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedEquivalence,
    ::testing::Combine(::testing::Range(0, 3),          // isolation level
                       ::testing::Values(1, 17, 128),   // flush cadence
                       ::testing::Values(0, 64)));      // window size

/// Injected histories: every anomaly kind must stream the identical
/// violation sequence through the sharded pipeline.
class ShardedEquivalenceInjected
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardedEquivalenceInjected, MatchesSingleThreadedMonitor) {
  auto [KindIdx, Interval] = GetParam();
  History Base = generated(0, KindIdx * 29 + Interval, 600);
  std::string Err;
  std::optional<History> H = injectAnomaly(
      Base, static_cast<AnomalyKind>(KindIdx),
      static_cast<uint64_t>(KindIdx * 5 + 3), &Err);
  ASSERT_TRUE(H) << Err;
  std::string Text = writeTextHistory(*H);

  for (IsolationLevel Level : AllIsolationLevels) {
    MonitorOptions Options;
    Options.Level = Level;
    Options.Check.Threads = 1;
    Options.CheckIntervalTxns = static_cast<size_t>(Interval);
    RunResult Reference = runPipeline(Text, "native", 1, Options);
    RunResult Sharded = runPipeline(Text, "native", 4, Options);
    expectSameRun(Reference, Sharded,
                  std::string(anomalyKindName(
                      static_cast<AnomalyKind>(KindIdx))) +
                      " level " + isolationLevelName(Level) + " interval " +
                      std::to_string(Interval));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedEquivalenceInjected,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(1, 64)));

/// Foreign formats flow through the same pipeline: the plume pair-close
/// and dbcop block state machines run on the applier thread.
TEST(ShardedIngest, ForeignFormatsMatchSingleThreaded) {
  History H = generated(1, 77, 500);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 32;

  for (auto [Format, Text] :
       {std::pair<std::string, std::string>{"plume", writePlumeHistory(H)},
        std::pair<std::string, std::string>{"dbcop",
                                            writeDbcopHistory(H)}}) {
    RunResult Reference = runPipeline(Text, Format, 1, Options);
    RunResult Sharded = runPipeline(Text, Format, 3, Options);
    expectSameRun(Reference, Sharded, "format " + Format);
  }
}

/// Chunk boundaries must not matter, threaded or not (the pipeline cuts
/// its own batches at line granularity).
TEST(ShardedIngest, ChunkingInvariant) {
  History H = generated(2, 123, 400);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadAtomic;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 16;
  RunResult Reference = runPipeline(Text, "native", 1, Options, Text.size());
  for (size_t Chunk : {1ul, 13ul, 4096ul})
    for (unsigned Threads : {1u, 3u}) {
      RunResult Got = runPipeline(Text, "native", Threads, Options, Chunk);
      expectSameRun(Reference, Got,
                    "chunk " + std::to_string(Chunk) + " threads " +
                        std::to_string(Threads));
    }
}

/// Parse errors surface with the same line number from any thread count,
/// and everything before the error is still checked.
TEST(ShardedIngest, ErrorsCarryLineNumbersAcrossThreadCounts) {
  std::string Text = "b 0\nw 1 10\nc\nb 0\nw 1 10\nc\n"; // duplicate write
  for (unsigned Threads : {1u, 4u}) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::ReadCommitted;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, "native", Threads);
    Ingest.feed(Text);
    EXPECT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error);
    EXPECT_NE(Ingest.errorText().find("line 5"), std::string::npos)
        << Ingest.errorText();
    EXPECT_NE(Ingest.errorText().find("duplicate write"), std::string::npos)
        << Ingest.errorText();
  }
}

/// A truncated stream reports the open transaction instead of failing, at
/// any thread count; the unterminated trailing line is still applied.
TEST(ShardedIngest, OpenTxnAtEofReported) {
  std::string Text = "b 0\nw 1 10\nc\nb 0\nr 1 10"; // no newline, no close
  for (unsigned Threads : {1u, 3u}) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::ReadCommitted;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, "native", Threads);
    Ingest.feed(Text);
    EXPECT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::OpenTxn);
    EXPECT_EQ(Ingest.committedTxns(), 1u);
    EXPECT_EQ(Ingest.lineNumber(), 5u);
    EXPECT_EQ(Ingest.streamOffset(), Text.size());
    CheckReport Report = M.finalize();
    EXPECT_TRUE(Report.Consistent);
  }
}

/// The speculative checking offload (PR 6) must actually fire on a plain
/// multi-threaded run — and adopting speculative rows must not perturb a
/// single observable.
TEST(ShardedIngest, SpeculationAdoptsRowsAndStaysBitIdentical) {
  History H = generated(0, 9, 1200);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 64; // batches well above the speculation floor
  RunResult Reference = runPipeline(Text, "native", 1, Options);

  RunResult Sharded;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  ShardedMonitorIngest Ingest(M, "native", 4);
  ASSERT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += 7777)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, 7777)))
      break;
  Sharded.End = Ingest.finishStream();
  Sharded.Error = Ingest.errorText();
  Sharded.Report = M.finalize();
  Sharded.Stats = M.stats();
  Sharded.Streamed = std::move(Sink.Violations);
  Sharded.Descriptions = std::move(Sink.Descriptions);

  // The pipeline installed a pool, the flushes were big enough: speculative
  // rows were computed and (the common case on a clean history) adopted.
  EXPECT_GT(M.speculationAdoptedRows(), 0u);
  expectSameRun(Reference, Sharded, "speculation adoption");
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

/// Runs \p Text uninterrupted with \p Threads, optionally capturing a
/// checkpoint at every flush boundary.
FuzzRun runFuzz(const std::string &Text, const std::string &Format,
                const MonitorOptions &Options, unsigned Threads,
                std::vector<FuzzSnapshot> *Snapshots = nullptr) {
  FuzzRun R;
  std::ostringstream Out;
  JsonLinesSink Sink(Out);
  Monitor M(Options, &Sink);
  ShardedMonitorIngest::FlushHook Hook;
  if (Snapshots)
    Hook = [&](const IngestFlushPoint &P) {
      FuzzSnapshot S;
      S.Meta.Format = Format;
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
      Snapshots->push_back(std::move(S));
    };
  ShardedMonitorIngest Ingest(M, Format, Threads, std::move(Hook));
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

/// Restores \p S and replays the rest of \p Text with \p Threads; returns
/// the resumed suffix of the JSONL stream plus the final summary.
FuzzRun resumeFuzz(const FuzzSnapshot &S, const std::string &Text,
                   const std::string &Format, const MonitorOptions &Options,
                   unsigned Threads) {
  FuzzRun R;
  std::ostringstream Out;
  JsonLinesSink Sink(Out);
  Monitor M(Options, &Sink);
  std::string Err;
  EXPECT_TRUE(M.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err)) << Err;
  ShardedMonitorIngest Ingest(M, Format, Threads);
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

/// Seeded randomized determinism fuzz — the CI scaling matrix's semantic
/// twin: for randomly drawn histories, cadences, and windows, every thread
/// count in {1, 2, 4, 8}, with and without a kill-and-resume in the middle,
/// must produce the byte-identical JSONL violation stream and the
/// byte-identical end-of-run summary.
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
    FuzzRun Reference = runFuzz(Text, "native", Options, 1, &Snapshots);

    // Straight runs: every thread count, byte-for-byte.
    for (unsigned Threads : {2u, 4u, 8u}) {
      FuzzRun Run = runFuzz(Text, "native", Options, Threads);
      EXPECT_EQ(Reference.End, Run.End)
          << Context << " threads " << Threads;
      EXPECT_EQ(Reference.Jsonl, Run.Jsonl)
          << Context << " threads " << Threads;
      EXPECT_EQ(Reference.Summary, Run.Summary)
          << Context << " threads " << Threads;
    }

    // Kill-and-resume at a mid-stream flush: the resumed run's stream is
    // exactly the reference's suffix, and the summary is unchanged.
    if (!Snapshots.empty()) {
      const FuzzSnapshot &S = Snapshots[Snapshots.size() / 2];
      for (unsigned Threads : {1u, 4u, 8u}) {
        FuzzRun Resumed = resumeFuzz(S, Text, "native", Options, Threads);
        EXPECT_EQ(Reference.Jsonl.substr(S.JsonlBytesAtCheckpoint),
                  Resumed.Jsonl)
            << Context << " resume threads " << Threads;
        EXPECT_EQ(Reference.Summary, Resumed.Summary)
            << Context << " resume threads " << Threads;
      }
    }
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
  ShardedMonitorIngest Ingest(M, "native", 3);
  Ingest.feed(Text);
  Ingest.abortStream();
  EXPECT_TRUE(Ingest.errorText().empty());
  EXPECT_GT(Ingest.committedTxns(), 0u);
  CheckReport Report = M.finalize();
  (void)Report;
  EXPECT_GT(M.stats().IngestedTxns, 0u);
}
