//===- tests/test_incremental.cpp - Incremental engine equivalence ----------===//
//
// The acceptance battery of the incremental delta-driven saturation engine:
// the Monitor driven at any flush cadence must produce reports bit-identical
// to the replay engine (the batch checkRc/checkRa/checkCc checkers) on clean
// and anomaly-injected generated histories; windowed mode must stay bounded
// and false-positive-free across cadence/window sweeps; the age-based
// eviction and force-abort policies must unpin hung sessions; and the
// streaming plume/dbcop parsers must be chunking-invariant.
//
//===----------------------------------------------------------------------===//

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_ra_single_session.h"
#include "checker/check_rc.h"
#include "checker/checker.h"
#include "checker/monitor.h"
#include "checker/violation_sink.h"
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
#include "sim/anomaly_injector.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>

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
    ASSERT_EQ(X.Cycle.size(), Y.Cycle.size())
        << Context << " violation " << I;
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

/// The replay engine: the historical batch checkers, called directly. This
/// is the reference the incremental engine must reproduce bit-identically.
CheckReport replayReference(const History &H, IsolationLevel Level) {
  CheckReport Report;
  SaturationStats Sat;
  switch (Level) {
  case IsolationLevel::ReadCommitted:
    Report.Consistent = checkRc(H, Report.Violations, 16, &Sat);
    break;
  case IsolationLevel::ReadAtomic:
    Report.Consistent = checkRa(H, Report.Violations, 16, &Sat);
    break;
  case IsolationLevel::CausalConsistency:
    Report.Consistent = checkCc(H, Report.Violations, 16, &Sat);
    break;
  }
  Report.Stats.InferredEdges = Sat.InferredEdges;
  Report.Stats.GraphEdges = Sat.GraphEdges;
  return Report;
}

/// Drives a Monitor over \p H at flush cadence \p Interval and requires the
/// finalize report to match both the replay engine and the one-shot facade
/// exactly, at every isolation level.
void expectIncrementalMatchesReplay(const History &H, size_t Interval,
                                    const std::string &Context) {
  for (IsolationLevel Level : AllIsolationLevels) {
    if (Level == IsolationLevel::ReadAtomic && isSingleSession(H))
      continue; // the facade takes the Theorem 1.6 fast path there
    CheckReport Replay = replayReference(H, Level);

    CheckOptions Options;
    Options.Threads = 1;
    CheckReport OneShot = checkIsolation(H, Level, Options);
    expectSameReport(Replay, OneShot,
                     Context + " one-shot level " + isolationLevelName(Level));

    MonitorOptions MonitorOpts;
    MonitorOpts.Level = Level;
    MonitorOpts.Check = Options;
    MonitorOpts.CheckIntervalTxns = Interval;
    Monitor M(MonitorOpts);
    M.replay(H);
    expectSameReport(Replay, M.finalize(),
                     Context + " interval " + std::to_string(Interval) +
                         " level " + isolationLevelName(Level));
  }
}

} // namespace

/// Clean generated histories: benchmark x consistency mode x cadence.
class IncrementalEquivalenceClean
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IncrementalEquivalenceClean, MatchesReplayEngine) {
  auto [BenchIdx, ModeIdx, Interval] = GetParam();
  GenerateParams P;
  P.Bench = static_cast<Benchmark>(BenchIdx);
  P.Mode = static_cast<ConsistencyMode>(ModeIdx);
  P.Sessions = 6;
  P.Txns = 500;
  P.Seed = static_cast<uint64_t>(BenchIdx * 31 + ModeIdx * 7 + Interval);
  P.AbortProbability = ModeIdx % 2 == 0 ? 0.05 : 0.0;
  History H = generateHistory(P);
  expectIncrementalMatchesReplay(H, static_cast<size_t>(Interval),
                                 benchmarkName(P.Bench));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceClean,
    ::testing::Combine(::testing::Range(0, 4),          // benchmarks
                       ::testing::Range(0, 4),          // consistency modes
                       ::testing::Values(1, 17, 128))); // flush cadence

/// Anomaly-injected histories: every injected kind, tight and loose
/// cadences — the violating paths, including incremental cycle detection
/// and witness extraction at finalize, must match the replay engine too.
class IncrementalEquivalenceInjected
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalEquivalenceInjected, MatchesReplayEngine) {
  auto [KindIdx, Interval] = GetParam();
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Serializable;
  P.Sessions = 6;
  P.Txns = 400;
  P.Seed = static_cast<uint64_t>(KindIdx * 13 + Interval + 2);
  History Base = generateHistory(P);
  std::string Err;
  std::optional<History> H = injectAnomaly(
      Base, static_cast<AnomalyKind>(KindIdx), P.Seed * 5 + 1, &Err);
  ASSERT_TRUE(H) << Err;
  expectIncrementalMatchesReplay(
      *H, static_cast<size_t>(Interval),
      anomalyKindName(static_cast<AnomalyKind>(KindIdx)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalEquivalenceInjected,
                         ::testing::Combine(::testing::Range(0, 7),
                                            ::testing::Values(1, 64)));

/// Retroactive wr resolution with per-commit cadence: a read that precedes
/// its writer in stream order exercises the dirty re-propagation of the
/// happens-before rows and the replacement of per-reader inferences.
TEST(IncrementalEngine, RetroactiveResolutionPropagatesCc) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 1;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S0 = M.addSession();
  SessionId S1 = M.addSession();
  SessionId S2 = M.addSession();

  // s0 reads (5, 50) before anyone wrote it.
  TxnId Reader = M.beginTxn(S0);
  M.read(Reader, 5, 50);
  M.commit(Reader);
  // A chain of commits after it in other sessions.
  TxnId Mid = M.beginTxn(S1);
  M.write(Mid, 6, 60);
  M.commit(Mid);
  TxnId Tail = M.beginTxn(S0);
  M.read(Tail, 6, 60);
  M.commit(Tail);
  // The missing writer arrives late, in a third session.
  TxnId Writer = M.beginTxn(S2);
  M.write(Writer, 5, 50);
  M.commit(Writer);

  CheckReport Report = M.finalize();
  EXPECT_TRUE(Report.Consistent) << "retro-resolved stream is clean";
  EXPECT_TRUE(Sink.Violations.empty());
}

/// Windowed sweeps: cadence x window size on a long clean causal stream.
/// The window must stay bounded, evictions must happen, and no false
/// violation may appear — the engine's compaction keeps every persisted
/// fact consistent with the rebased window.
class IncrementalWindowedClean
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalWindowedClean, BoundedAndFalsePositiveFree) {
  auto [Interval, Window] = GetParam();
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 8;
  P.Txns = 3000;
  P.Seed = static_cast<uint64_t>(Interval + Window);
  History H = generateHistory(P);

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = static_cast<size_t>(Interval);
  Options.WindowTxns = static_cast<size_t>(Window);
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
  EXPECT_LE(MaxLive, static_cast<size_t>(Window + Interval) + 16);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalWindowedClean,
                         ::testing::Combine(::testing::Values(32, 128),
                                            ::testing::Values(200, 800)));

/// Windowed mode still catches an in-window anomaly after heavy eviction,
/// at every cadence.
class IncrementalWindowedInjected : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalWindowedInjected, DetectsInWindowAnomaly) {
  int Interval = GetParam();
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = static_cast<size_t>(Interval);
  Options.WindowTxns = 120;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S0 = M.addSession();
  SessionId S1 = M.addSession();

  Value V = 1;
  for (int I = 0; I < 1200; ++I) {
    TxnId T = M.beginTxn(S0);
    M.write(T, static_cast<Key>(I % 5), V);
    M.read(T, static_cast<Key>(I % 5), V);
    ++V;
    M.commit(T);
  }
  ASSERT_GT(M.stats().EvictedTxns, 0u);

  // A causal violation gadget entirely inside the window: t_a writes two
  // keys; t_b reads one and writes a third; t_c reads the third but an
  // older value of the first — inferring a cycle under CC.
  TxnId A = M.beginTxn(S1);
  M.write(A, 900, 9001);
  M.write(A, 901, 9011);
  M.commit(A);
  TxnId B = M.beginTxn(S1);
  M.read(B, 900, 9001);
  M.write(B, 900, 9002);
  M.commit(B);
  TxnId C = M.beginTxn(S0);
  M.read(C, 900, 9002);
  M.commit(C);
  TxnId D = M.beginTxn(S0);
  M.read(D, 900, 9001); // stale: B's overwrite happens-before D
  M.commit(D);
  M.check();

  EXPECT_TRUE(M.hadViolation());
  EXPECT_FALSE(Sink.Violations.empty());
  CheckReport Report = M.finalize();
  EXPECT_FALSE(Report.Consistent);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalWindowedInjected,
                         ::testing::Values(1, 25, 100));

/// A hung session pins the evictable prefix; ForceAbortOpenTicks unpins it
/// and reports the forced abort, and reads of the force-aborted write are
/// reported as aborted reads.
TEST(IncrementalEviction, ForceAbortUnpinsHungSession) {
  auto Drive = [](uint64_t ForceTicks, MonitorStats &StatsOut,
                  std::vector<Violation> &SinkOut) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::ReadCommitted;
    Options.CheckIntervalTxns = 20;
    Options.WindowTxns = 50;
    Options.ForceAbortOpenTicks = ForceTicks;
    CollectingSink Sink;
    Monitor M(Options, &Sink);
    SessionId Hung = M.addSession();
    SessionId Busy = M.addSession();

    M.advanceTime(0);
    TxnId Stuck = M.beginTxn(Hung);
    M.write(Stuck, 7777, 1);
    // The stream keeps flowing; one transaction observes the hung write.
    TxnId Observer = M.beginTxn(Busy);
    M.read(Observer, 7777, 1);
    M.commit(Observer);
    for (int I = 0; I < 500; ++I) {
      M.advanceTime(static_cast<uint64_t>(I));
      TxnId T = M.beginTxn(Busy);
      M.write(T, static_cast<Key>(I), static_cast<Value>(I) + 10);
      M.commit(T);
    }
    M.check();
    StatsOut = M.stats();
    M.finalize();
    SinkOut = Sink.Violations;
  };

  MonitorStats Pinned;
  std::vector<Violation> PinnedSink;
  Drive(/*ForceTicks=*/0, Pinned, PinnedSink);
  // Without the policy the open transaction pins everything behind it.
  EXPECT_EQ(Pinned.EvictedTxns, 0u);
  EXPECT_GT(Pinned.LiveTxns, 400u);
  EXPECT_EQ(Pinned.ForcedAborts, 0u);

  MonitorStats Unpinned;
  std::vector<Violation> UnpinnedSink;
  Drive(/*ForceTicks=*/100, Unpinned, UnpinnedSink);
  EXPECT_EQ(Unpinned.ForcedAborts, 1u);
  EXPECT_GT(Unpinned.EvictedTxns, 0u);
  EXPECT_LT(Unpinned.LiveTxns, 200u);
  // The observer of the force-aborted write is reported.
  bool SawAbortedRead = false;
  for (const Violation &V : UnpinnedSink)
    SawAbortedRead |= V.Kind == ViolationKind::AbortedRead;
  EXPECT_TRUE(SawAbortedRead);
}

/// A force-aborted transaction's handle stays safe: late operations and
/// the eventual commit/abort on it are dropped, even after the window
/// evicted the transaction itself (regression: this used to walk off the
/// evicted prefix).
TEST(IncrementalEviction, ForceAbortedHandleStaysSafe) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 10;
  Options.WindowTxns = 4;
  Options.ForceAbortOpenTicks = 10;
  Monitor M(Options);
  SessionId Hung = M.addSession();
  SessionId Busy = M.addSession();
  M.advanceTime(0);
  TxnId Stuck = M.beginTxn(Hung);
  EXPECT_TRUE(M.write(Stuck, 7777, 1));
  for (int I = 0; I < 200; ++I) {
    M.advanceTime(static_cast<uint64_t>(I));
    TxnId T = M.beginTxn(Busy);
    M.write(T, static_cast<Key>(I), static_cast<Value>(I) + 10);
    M.commit(T);
  }
  ASSERT_EQ(M.stats().ForcedAborts, 1u);
  ASSERT_GT(M.stats().EvictedTxns, 0u);
  // The hung session resumes and keeps using the dead handle.
  EXPECT_TRUE(M.write(Stuck, 8888, 2));
  M.read(Stuck, 8888, 2);
  M.commit(Stuck);   // dropped: already aborted by policy
  M.abortTxn(Stuck); // dropped too
  M.finalize();
  EXPECT_EQ(M.stats().ForcedAborts, 1u);
}

/// Transactions ingested before the first timestamp are anchored at it:
/// a stream whose clock starts at a large absolute value (epoch millis)
/// must not instantly force-abort or age-evict them (regression).
TEST(IncrementalEviction, FirstTimestampAnchorsExistingTxns) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 1;
  Options.ForceAbortOpenTicks = 60000;
  Options.WindowAgeTicks = 60000;
  Monitor M(Options);
  SessionId A = M.addSession();
  SessionId B = M.addSession();
  TxnId Open = M.beginTxn(A);
  M.write(Open, 1, 10);
  TxnId Closed = M.beginTxn(B);
  M.write(Closed, 2, 20);
  M.commit(Closed);
  M.advanceTime(1753660000000ull); // first timestamp: epoch milliseconds
  TxnId T = M.beginTxn(B);
  M.write(T, 3, 30);
  M.commit(T); // triggers a flush under the new clock
  EXPECT_EQ(M.stats().ForcedAborts, 0u);
  EXPECT_EQ(M.stats().EvictedTxns, 0u);
  M.commit(Open);
  EXPECT_TRUE(M.finalize().Consistent);
}

/// Age-based eviction: closed transactions older than WindowAgeTicks leave
/// the window even without a count horizon.
TEST(IncrementalEviction, AgeHorizonEvicts) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 10;
  Options.WindowAgeTicks = 100;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  SessionId S = M.addSession();
  for (int I = 0; I < 400; ++I) {
    M.advanceTime(static_cast<uint64_t>(I * 5));
    TxnId T = M.beginTxn(S);
    M.write(T, static_cast<Key>(I), static_cast<Value>(I) + 1);
    M.commit(T);
  }
  const MonitorStats &S1 = M.stats();
  EXPECT_GT(S1.AgeEvictedTxns, 0u);
  EXPECT_GT(S1.EvictedTxns, 0u);
  // Roughly WindowAgeTicks / 5 ticks-per-txn transactions stay live
  // (modulo the flush cadence and the horizon boundary).
  EXPECT_LE(S1.LiveTxns, 100u / 5 + 10 + 5);
  CheckReport Report = M.finalize();
  EXPECT_TRUE(Report.Consistent);
  EXPECT_TRUE(Sink.Violations.empty());
}

/// Foreign formats streamed through a checking Monitor: chunking-invariant
/// and equal to parseHistory() + the one-shot checker end to end.
class StreamingForeignFormats : public ::testing::TestWithParam<int> {};

TEST_P(StreamingForeignFormats, ChunkingInvariantAndBatchEquivalent) {
  bool Plume = GetParam() == 0;
  GenerateParams P;
  P.Bench = Benchmark::Tpcc;
  P.Sessions = 4;
  P.Txns = 150;
  P.Seed = 9;
  P.AbortProbability = 0.1;
  History H = generateHistory(P);
  std::string Text = Plume ? writePlumeHistory(H) : writeDbcopHistory(H);

  std::string Err;
  std::string Format = Plume ? "plume" : "dbcop";
  std::optional<History> Batch = parseHistory(Format, Text, &Err);
  ASSERT_TRUE(Batch) << Err;
  CheckOptions Ref;
  Ref.Threads = 1;
  CheckReport Expected =
      checkIsolation(*Batch, IsolationLevel::CausalConsistency, Ref);

  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Options.Check = Ref;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, Format, /*Threads=*/1);
    ASSERT_TRUE(Ingest.valid());
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
      ASSERT_TRUE(Ingest.feed(std::string_view(Text).substr(Pos, Chunk)))
          << Ingest.errorText();
    ASSERT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::Clean)
        << Ingest.errorText();
    EXPECT_EQ(Ingest.committedTxns(),
              static_cast<uint64_t>(Batch->numCommitted()));
    expectSameReport(Expected, M.finalize(),
                     Format + " chunk " + std::to_string(Chunk));
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, StreamingForeignFormats,
                         ::testing::Values(0, 1));

/// Foreign-format streaming errors carry line numbers, including the
/// duplicate-write model invariant.
TEST(StreamingForeignFormats, ErrorsCarryLineNumbers) {
  auto ErrorOf = [](const std::string &Format, std::string_view Text) {
    Monitor M;
    ShardedMonitorIngest Ingest(M, Format, /*Threads=*/1);
    EXPECT_FALSE(Ingest.feed(Text));
    return Ingest.errorText();
  };
  std::string Err = ErrorOf("plume", "0,0,w,1,10\n0,0,r\n");
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;

  Err = ErrorOf("plume", "0,0,w,1,10\n1,1,w,1,10\n");
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;

  Err = ErrorOf("dbcop", "sessions 1\ntxn 0 1 2\nW 1 10\nW 1 10\n");
  EXPECT_NE(Err.find("line 4"), std::string::npos) << Err;
  EXPECT_NE(Err.find("duplicate write"), std::string::npos) << Err;

  Err = ErrorOf("dbcop", "txn 0 1 1\n");
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
  EXPECT_NE(Err.find("header"), std::string::npos) << Err;
}

/// The native streaming clock directive drives the monitor clock.
TEST(StreamingForeignFormats, NativeClockDirective) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.CheckIntervalTxns = 1;
  Options.WindowAgeTicks = 10;
  Monitor M(Options);
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  std::string Stream;
  for (int I = 0; I < 50; ++I) {
    Stream += "t " + std::to_string(I * 5) + "\n";
    Stream += "b 0\nw " + std::to_string(I) + " " + std::to_string(I + 1) +
              "\nc\n";
  }
  ASSERT_TRUE(Ingest.feed(Stream)) << Ingest.errorText();
  ASSERT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::Clean)
      << Ingest.errorText();
  EXPECT_GT(M.stats().AgeEvictedTxns, 0u);
}
