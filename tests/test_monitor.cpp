//===- tests/test_monitor.cpp - Streaming Monitor tests ---------------------===//
//
// The streaming-API battery: a Monitor replaying a history must finalize
// bit-identically to the one-shot checkIsolation() engine on generated
// CTwitter/TPC-C/RUBiS histories, clean and anomaly-injected; incremental
// checking must surface violations before finalize and deliver each exactly
// once; windowed mode must keep the live window bounded while still
// catching in-window anomalies; and the streaming text parser must be
// chunking-invariant with line-numbered errors.
//
//===----------------------------------------------------------------------===//

#include "checker/checker.h"
#include "checker/monitor.h"
#include "checker/violation_sink.h"
#include "io/stream_parser.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

using namespace awdit;
using namespace awdit::test;

namespace {

void expectSameReport(const CheckReport &A, const CheckReport &B,
                      const std::string &Context) {
  EXPECT_EQ(A.Consistent, B.Consistent) << Context;
  ASSERT_EQ(A.Violations.size(), B.Violations.size()) << Context;
  for (size_t I = 0; I < A.Violations.size(); ++I) {
    const Violation &X = A.Violations[I], &Y = B.Violations[I];
    EXPECT_EQ(X.Kind, Y.Kind) << Context << " violation " << I;
    EXPECT_EQ(X.T, Y.T) << Context << " violation " << I;
    EXPECT_EQ(X.OpIndex, Y.OpIndex) << Context << " violation " << I;
    EXPECT_EQ(X.Other, Y.Other) << Context << " violation " << I;
    ASSERT_EQ(X.Cycle.size(), Y.Cycle.size()) << Context << " violation "
                                              << I;
    for (size_t E = 0; E < X.Cycle.size(); ++E) {
      EXPECT_EQ(X.Cycle[E].From, Y.Cycle[E].From) << Context;
      EXPECT_EQ(X.Cycle[E].To, Y.Cycle[E].To) << Context;
      EXPECT_EQ(X.Cycle[E].Kind, Y.Cycle[E].Kind) << Context;
    }
  }
  EXPECT_EQ(A.Stats.InferredEdges, B.Stats.InferredEdges) << Context;
  EXPECT_EQ(A.Stats.GraphEdges, B.Stats.GraphEdges) << Context;
  EXPECT_EQ(A.Stats.UsedFastPath, B.Stats.UsedFastPath) << Context;
}

/// The acceptance criterion of the streaming path: the incremental
/// operation-by-operation replay() must reproduce the one-shot engine
/// exactly.
void expectWrapperBitIdentical(const History &H, const std::string &Context) {
  for (IsolationLevel Level : AllIsolationLevels) {
    CheckOptions Options;
    Options.Threads = 1; // deterministic sequential reference
    CheckReport OneShot = checkIsolation(H, Level, Options);

    MonitorOptions MonitorOpts;
    MonitorOpts.Level = Level;
    MonitorOpts.Check = Options;
    Monitor M(MonitorOpts);
    M.replay(H);
    expectSameReport(OneShot, M.finalize(),
                     Context + " (replay) level " +
                         isolationLevelName(Level));
  }
}

} // namespace

/// Sweep over benchmark x consistency mode x seed on clean generated
/// histories.
class MonitorWrapperClean
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MonitorWrapperClean, BitIdenticalToOneShot) {
  auto [BenchIdx, ModeIdx, Seed] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = static_cast<ConsistencyMode>(ModeIdx);
  P.Sessions = 8;
  P.Txns = 1000;
  P.Seed = static_cast<uint64_t>(Seed * 77 + ModeIdx);
  P.AbortProbability = Seed % 2 == 0 ? 0.05 : 0.0;
  History H = generateHistory(P);
  expectWrapperBitIdentical(H, benchmarkName(P.Bench));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MonitorWrapperClean,
    ::testing::Combine(::testing::Range(0, 4),   // benchmarks
                       ::testing::Range(0, 4),   // consistency modes
                       ::testing::Range(1, 3))); // seeds

/// Sweep over injected anomaly kinds: the violating paths, including
/// witness extraction, must also match exactly.
class MonitorWrapperInjected
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MonitorWrapperInjected, BitIdenticalToOneShot) {
  auto [KindIdx, BenchIdx] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 8;
  P.Txns = 600;
  P.Seed = static_cast<uint64_t>(KindIdx * 17 + BenchIdx + 1);
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H = injectAnomaly(
      Base, static_cast<AnomalyKind>(KindIdx), P.Seed * 7 + 3, &Err);
  ASSERT_TRUE(H) << Err;
  expectWrapperBitIdentical(
      *H, anomalyKindName(static_cast<AnomalyKind>(KindIdx)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonitorWrapperInjected,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Range(1, 4)));

/// With incremental checking enabled, an anomalous stream must surface its
/// violation through the sink *before* finalize, exactly once, and the
/// final report must still match the one-shot engine.
TEST(MonitorStreaming, DetectsViolationsBeforeFinalize) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 6;
  P.Txns = 400;
  P.Seed = 11;
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H =
      injectAnomaly(Base, AnomalyKind::AbortedRead, 5, &Err);
  ASSERT_TRUE(H) << Err;

  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 32;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  M.replay(*H);
  // The anomaly sits somewhere inside the stream; after ingest (plus one
  // explicit pass for anything after the last interval boundary) it must
  // already have been reported.
  M.check();
  EXPECT_TRUE(M.hadViolation());
  EXPECT_FALSE(Sink.Violations.empty());
  size_t StreamedCount = Sink.Violations.size();

  CheckReport Report = M.finalize();
  EXPECT_FALSE(Report.Consistent);
  // Exactly-once delivery: every streamed read-level violation is part of
  // the canonical report, never re-delivered.
  EXPECT_EQ(M.stats().ReportedViolations, Sink.Violations.size());
  for (size_t I = 0; I < StreamedCount; ++I) {
    const Violation &V = Sink.Violations[I];
    if (!V.Cycle.empty())
      continue;
    bool InReport = false;
    for (const Violation &R : Report.Violations)
      InReport |= R.Kind == V.Kind && R.T == V.T &&
                  R.OpIndex == V.OpIndex && R.Other == V.Other;
    EXPECT_TRUE(InReport) << "streamed violation " << I
                          << " missing from final report";
  }

  CheckOptions Ref;
  Ref.Threads = 1;
  expectSameReport(checkIsolation(*H, Options.Level, Options.Check), Report,
                   "streamed finalize");
}

/// Duplicate sink delivery must not happen across repeated explicit
/// checks: flushing twice with no new input reports nothing new.
TEST(MonitorStreaming, RepeatedChecksReportOnce) {
  GenerateParams P;
  P.Bench = Benchmark::Rubis;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 4;
  P.Txns = 200;
  P.Seed = 23;
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H =
      injectAnomaly(Base, AnomalyKind::CausalityCycle, 9, &Err);
  ASSERT_TRUE(H) << Err;

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  M.replay(*H);
  M.check();
  size_t AfterFirst = Sink.Violations.size();
  EXPECT_GT(AfterFirst, 0u);
  M.check();
  M.check();
  EXPECT_EQ(Sink.Violations.size(), AfterFirst);
}

/// Windowed mode: on a long clean stream the live window stays bounded,
/// transactions are evicted with stats, and no false violation appears.
TEST(MonitorWindowed, BoundedMemoryOnCleanStream) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 8;
  P.Txns = 4000;
  P.Seed = 31;
  History H = generateHistory(P);

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 100;
  Options.WindowTxns = 400;
  CollectingSink Sink;
  Monitor M(Options, &Sink);

  size_t MaxLive = 0;
  while (M.numSessions() < H.numSessions())
    M.addSession();
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    TxnId Mid = M.beginTxn(T.Session);
    for (const Operation &Op : T.Ops)
      M.append(Mid, Op);
    if (T.Committed)
      M.commit(Mid);
    else
      M.abortTxn(Mid);
    MaxLive = std::max(MaxLive, static_cast<size_t>(M.stats().LiveTxns));
  }
  CheckReport Report = M.finalize();

  EXPECT_TRUE(Report.Consistent);
  EXPECT_TRUE(Sink.Violations.empty());
  const MonitorStats &S = M.stats();
  EXPECT_GT(S.EvictedTxns, 0u);
  EXPECT_GT(S.Compactions, 0u);
  EXPECT_EQ(S.IngestedTxns, H.numTxns());
  // The window can only overshoot by what accumulates between two checking
  // passes (plus open transactions).
  EXPECT_LE(MaxLive,
            Options.WindowTxns + Options.CheckIntervalTxns + 16);
  EXPECT_LE(S.LiveTxns, Options.WindowTxns + Options.CheckIntervalTxns + 16);
}

/// Windowed mode still catches anomalies whose transactions are inside the
/// window, and reports them with stream-stable monitor ids.
TEST(MonitorWindowed, DetectsInWindowAnomalyWithStableIds) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 50;
  Options.WindowTxns = 100;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S0 = M.addSession();
  SessionId S1 = M.addSession();

  // A long clean prefix of independent transactions, far larger than the
  // window, so plenty of eviction happens first.
  Value V = 1;
  for (int I = 0; I < 1000; ++I) {
    TxnId T = M.beginTxn(S0);
    M.write(T, /*K=*/static_cast<Key>(I % 7), V);
    M.read(T, static_cast<Key>(I % 7), V);
    ++V;
    M.commit(T);
  }
  ASSERT_GT(M.stats().EvictedTxns, 0u);

  // The anomaly: an aborted transaction whose write is observed by its
  // immediate successor — entirely inside the window.
  TxnId Bad = M.beginTxn(S1);
  M.write(Bad, /*K=*/999, /*V=*/777777);
  M.abortTxn(Bad);
  TxnId Reader = M.beginTxn(S1);
  M.read(Reader, /*K=*/999, /*V=*/777777);
  M.commit(Reader);
  M.check();

  ASSERT_FALSE(Sink.Violations.empty());
  const Violation &V0 = Sink.Violations.front();
  EXPECT_EQ(V0.Kind, ViolationKind::AbortedRead);
  // Monitor ids are stream positions, unaffected by eviction: the two
  // gadget transactions are #1000 and #1001.
  EXPECT_EQ(V0.T, Reader);
  EXPECT_EQ(V0.Other, Bad);
  EXPECT_EQ(Bad, 1000u);
  EXPECT_EQ(Reader, 1001u);

  CheckReport Report = M.finalize();
  EXPECT_FALSE(Report.Consistent);
  EXPECT_TRUE(hasViolation(Report, ViolationKind::AbortedRead));
}

/// The unique-value model invariant is enforced at ingestion time.
TEST(MonitorIngestion, DuplicateWriteIsRejected) {
  Monitor M;
  SessionId S = M.addSession();
  TxnId T1 = M.beginTxn(S);
  EXPECT_TRUE(M.write(T1, 1, 10));
  M.commit(T1);
  TxnId T2 = M.beginTxn(S);
  EXPECT_FALSE(M.write(T2, 1, 10));
  EXPECT_NE(M.errorText().find("duplicate write"), std::string::npos);
}

/// Reads that arrive before their writer (in stream order) resolve
/// retroactively; the wrapper equality above covers this wholesale, this
/// is the minimal explicit case.
TEST(MonitorIngestion, RetroactiveWrResolution) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 1; // check after every commit
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S0 = M.addSession();
  SessionId S1 = M.addSession();

  TxnId Reader = M.beginTxn(S0);
  M.read(Reader, /*K=*/5, /*V=*/50);
  M.commit(Reader); // writer not seen yet: parked, not thin-air
  EXPECT_EQ(M.stats().UnresolvedReads, 1u);

  TxnId Writer = M.beginTxn(S1);
  M.write(Writer, /*K=*/5, /*V=*/50);
  M.commit(Writer);
  EXPECT_EQ(M.stats().UnresolvedReads, 0u);

  CheckReport Report = M.finalize();
  EXPECT_TRUE(Report.Consistent) << "retro-resolved read is not thin-air";
  EXPECT_TRUE(Sink.Violations.empty());
}

/// Still-open transactions at finalize are treated as never-committed.
TEST(MonitorIngestion, OpenTxnAtFinalizeIsAborted) {
  Monitor M;
  SessionId S = M.addSession();
  TxnId Open = M.beginTxn(S);
  M.write(Open, 1, 10);
  TxnId Reader = M.beginTxn(S);
  M.read(Reader, 1, 10);
  M.commit(Reader);
  CheckReport Report = M.finalize();
  EXPECT_FALSE(Report.Consistent);
  EXPECT_TRUE(hasViolation(Report, ViolationKind::AbortedRead));
}

/// The streaming parser must be invariant to chunk boundaries and agree
/// with the one-shot parser end to end.
TEST(StreamingParser, ChunkingInvariant) {
  GenerateParams P;
  P.Bench = Benchmark::Tpcc;
  P.Sessions = 4;
  P.Txns = 150;
  P.Seed = 3;
  History H = generateHistory(P);
  std::string Text = writeTextHistory(H);

  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Monitor M(Options);
    StreamingTextParser Parser(M);
    std::string Err;
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
      ASSERT_TRUE(Parser.feed(
          std::string_view(Text).substr(Pos, Chunk), &Err))
          << Err;
    ASSERT_TRUE(Parser.finish(&Err)) << Err;
    CheckReport Streamed = M.finalize();

    CheckOptions Ref;
    Ref.Threads = 1;
    expectSameReport(
        checkIsolation(H, IsolationLevel::CausalConsistency, Ref),
        Streamed, "chunk size " + std::to_string(Chunk));
  }
}

/// Streaming parser errors carry the offending line number — including the
/// duplicate-write model invariant the monitor detects during ingestion.
TEST(StreamingParser, ErrorsCarryLineNumbers) {
  {
    Monitor M;
    StreamingTextParser Parser(M);
    std::string Err;
    EXPECT_FALSE(Parser.feed("b 0\nw 1 10\nxyz\n", &Err));
    EXPECT_NE(Err.find("line 3"), std::string::npos) << Err;
  }
  {
    Monitor M;
    StreamingTextParser Parser(M);
    std::string Err;
    EXPECT_FALSE(
        Parser.feed("b 0\nw 1 10\nc\nb 1\nw 1 10\n", &Err));
    EXPECT_NE(Err.find("line 5"), std::string::npos) << Err;
    EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;
  }
}
