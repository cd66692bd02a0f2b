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
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
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

/// After an exact-mode finalize the monitor's edge counts are the final
/// report's, at every level: the streaming engine's live counts differ
/// from what the one-shot check derives, so stats() must not refresh them
/// from the engine once finalized.
TEST(MonitorIngestion, StatsAfterFinalizeMatchReport) {
  GenerateParams P;
  P.Bench = Benchmark::Random;
  P.Sessions = 8;
  P.Txns = 1500;
  P.Seed = 5;
  History H = generateHistory(P);
  for (IsolationLevel Level : AllIsolationLevels) {
    MonitorOptions Options;
    Options.Level = Level;
    Options.Check.Threads = 1;
    Options.CheckIntervalTxns = 64;
    Monitor M(Options);
    M.replay(H);
    uint64_t Streamed = M.stats().InferredEdges;
    CheckReport Report = M.finalize();
    const MonitorStats &Stats = M.stats();
    EXPECT_NE(Streamed, Report.Stats.InferredEdges)
        << isolationLevelName(Level) << ": the counts must differ for the "
        << "check to mean anything";
    EXPECT_EQ(Stats.InferredEdges, Report.Stats.InferredEdges)
        << isolationLevelName(Level);
    EXPECT_EQ(Stats.GraphEdges, Report.Stats.GraphEdges)
        << isolationLevelName(Level);
  }
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

/// The ingest pipeline must be invariant to chunk boundaries in every
/// format: chunks of 1, 7 and 4096 bytes and one whole-text feed() build
/// the History parseHistory() builds from the whole text, field by field,
/// with the same stream cursor; and streaming the native text through a
/// checking Monitor agrees with the one-shot checker.
TEST(StreamingParser, ChunkingInvariant) {
  GenerateParams P;
  P.Bench = Benchmark::Tpcc;
  P.Sessions = 4;
  P.Txns = 150;
  P.Seed = 3;
  P.AbortProbability = 0.1;
  History H = generateHistory(P);

  for (auto [Format, Text] :
       {std::pair<std::string, std::string>{"native", writeTextHistory(H)},
        std::pair<std::string, std::string>{"plume", writePlumeHistory(H)},
        std::pair<std::string, std::string>{"dbcop",
                                            writeDbcopHistory(H)}}) {
    std::string Err;
    std::optional<History> Whole = parseHistory(Format, Text, &Err);
    ASSERT_TRUE(Whole) << Format << ": " << Err;
    for (size_t Chunk : {size_t(1), size_t(7), size_t(4096), Text.size()}) {
      std::string Context = Format + " chunk " + std::to_string(Chunk);
      Monitor M;
      ShardedMonitorIngest Ingest(M, Format, /*Threads=*/1);
      for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
        ASSERT_TRUE(Ingest.feed(std::string_view(Text).substr(Pos, Chunk)))
            << Context << ": " << Ingest.errorText();
      ASSERT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::Clean)
          << Context << ": " << Ingest.errorText();
      EXPECT_EQ(Ingest.streamOffset(), Text.size()) << Context;
      EXPECT_EQ(Ingest.lineNumber(),
                static_cast<uint64_t>(
                    std::count(Text.begin(), Text.end(), '\n')))
          << Context;
      EXPECT_EQ(Ingest.committedTxns(), Whole->numCommitted()) << Context;
      expectSameHistory(*Whole, M.takeHistory(), Context);
    }
  }

  std::string Text = writeTextHistory(H);
  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
      ASSERT_TRUE(Ingest.feed(std::string_view(Text).substr(Pos, Chunk)))
          << Ingest.errorText();
    ASSERT_EQ(Ingest.finishStream(), ShardedMonitorIngest::EndState::Clean)
        << Ingest.errorText();
    CheckReport Streamed = M.finalize();

    CheckOptions Ref;
    Ref.Threads = 1;
    expectSameReport(
        checkIsolation(H, IsolationLevel::CausalConsistency, Ref),
        Streamed, "chunk size " + std::to_string(Chunk));
  }
}

/// Pipeline errors carry the offending line number — including the
/// duplicate-write model invariant the monitor detects during ingestion —
/// and the feed that hits them fails on the spot.
TEST(StreamingParser, ErrorsCarryLineNumbers) {
  {
    Monitor M;
    ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
    EXPECT_FALSE(Ingest.feed("b 0\nw 1 10\nxyz\n"));
    EXPECT_EQ(Ingest.errorText().rfind("line 3: ", 0), 0u)
        << Ingest.errorText();
    // The cursor stops at the failing line.
    EXPECT_EQ(Ingest.lineNumber(), 3u);
    EXPECT_EQ(Ingest.streamOffset(), 11u);
  }
  {
    Monitor M;
    ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
    EXPECT_FALSE(Ingest.feed("b 0\nw 1 10\nc\nb 1\nw 1 10\n"));
    EXPECT_NE(Ingest.errorText().find("line 5"), std::string::npos)
        << Ingest.errorText();
    EXPECT_NE(Ingest.errorText().find("duplicate write"), std::string::npos)
        << Ingest.errorText();
  }
}

//===----------------------------------------------------------------------===//
// Derive-once: a transaction is derived when it closes, and flush,
// finalize and takeHistory re-derive only a transaction that waited on a
// still-open writer (Deferred) or has a read with no writer. Scripted
// interleavings put every such case through a monitor at check intervals
// 1, 7 and 256 and compare it with HistoryBuilder and the one-shot engine.
//===----------------------------------------------------------------------===//

namespace {

/// An interleaved stream, recorded once and fed to monitors and to a
/// HistoryBuilder. Handles count transactions in begin order, which is
/// also their monitor and builder id. A session has at most one open
/// transaction at a time, so commit order is begin order per session.
class Script {
public:
  explicit Script(size_t Sessions) : Sessions(Sessions) {}

  uint32_t begin(SessionId S) {
    Events.push_back({Ev::Begin, S, 0});
    Txns.push_back({S, {}, Close::Open});
    return static_cast<uint32_t>(Txns.size() - 1);
  }
  void read(uint32_t H, Key K, Value V) { op(H, Operation::read(K, V)); }
  void write(uint32_t H, Key K, Value V) { op(H, Operation::write(K, V)); }
  void commit(uint32_t H) { close(H, Ev::Commit, Close::Committed); }
  void abort(uint32_t H) { close(H, Ev::Abort, Close::Aborted); }
  void time(uint64_t Now) { Events.push_back({Ev::Time, 0, 0, Now}); }
  void check() { Events.push_back({Ev::Check, 0, 0}); }
  /// \p H is expected to be force-aborted by then: the builder aborts it
  /// and the monitor must drop everything fed on it from here on.
  void forceAborted(uint32_t H) { Txns[H].End = Close::Aborted; }

  void feed(Monitor &M) const {
    for (size_t S = 0; S < Sessions; ++S)
      M.addSession();
    for (const Ev &E : Events) {
      switch (E.Kind) {
      case Ev::Begin:
        M.beginTxn(E.A);
        break;
      case Ev::Op:
        ASSERT_TRUE(M.append(E.A, Txns[E.A].Ops[E.B])) << M.errorText();
        break;
      case Ev::LateOp:
        ASSERT_TRUE(M.append(E.A, Operation::write(0, -1)));
        break;
      case Ev::Commit:
        M.commit(E.A);
        break;
      case Ev::Abort:
        M.abortTxn(E.A);
        break;
      case Ev::Time:
        M.advanceTime(E.Now);
        break;
      case Ev::Check:
        M.check();
        break;
      }
    }
  }

  History build() const {
    HistoryBuilder B;
    for (size_t S = 0; S < Sessions; ++S)
      B.addSession();
    for (const Txn &T : Txns) {
      TxnId Id = B.beginTxn(T.Session);
      for (const Operation &Op : T.Ops)
        B.append(Id, Op);
      if (T.End != Close::Committed)
        B.abortTxn(Id);
    }
    std::string Err;
    std::optional<History> H = B.build(&Err);
    EXPECT_TRUE(H) << Err;
    return H ? std::move(*H) : History();
  }

private:
  enum class Close { Open, Committed, Aborted };
  struct Ev {
    enum Type { Begin, Op, LateOp, Commit, Abort, Time, Check } Kind;
    uint32_t A; // session (Begin) or handle
    uint32_t B; // op index (Op)
    uint64_t Now = 0;
  };
  struct Txn {
    SessionId Session;
    std::vector<Operation> Ops;
    Close End;
  };

  void op(uint32_t H, Operation Op) {
    if (Txns[H].End == Close::Aborted) {
      // Fed after a force-abort: a write the monitor must drop (its
      // unique value collides with nothing else in the scripts).
      Events.push_back({Ev::LateOp, H, 0});
      return;
    }
    Events.push_back({Ev::Op, H, static_cast<uint32_t>(Txns[H].Ops.size())});
    Txns[H].Ops.push_back(Op);
  }
  void close(uint32_t H, Ev::Type Kind, Close End) {
    Events.push_back({Kind, H, 0});
    if (Txns[H].End == Close::Open)
      Txns[H].End = End;
  }

  size_t Sessions;
  std::vector<Ev> Events;
  std::vector<Txn> Txns;
};

/// A violation as a comparable string (kind, ids, op, witness edges). A
/// cycle found by an incremental pass may start elsewhere than the
/// one-shot engine's, so the witness is rotated to its smallest id.
std::string violationKey(const Violation &V) {
  std::string Key = std::to_string(static_cast<int>(V.Kind)) + ":" +
                    std::to_string(V.T) + ":" + std::to_string(V.OpIndex) +
                    ":" + std::to_string(V.Other);
  auto First = std::min_element(V.Cycle.begin(), V.Cycle.end(),
                                [](const WitnessEdge &A, const WitnessEdge &B) {
                                  return A.From < B.From;
                                });
  for (size_t I = 0; I < V.Cycle.size(); ++I) {
    const WitnessEdge &E =
        V.Cycle[(I + (First - V.Cycle.begin())) % V.Cycle.size()];
    Key += " " + std::to_string(E.From) + ">" + std::to_string(E.To);
  }
  return Key;
}

std::vector<std::string> violationKeys(const std::vector<Violation> &Vs) {
  std::vector<std::string> Keys;
  for (const Violation &V : Vs)
    Keys.push_back(violationKey(V));
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

/// The script's monitors, at check intervals 1, 7 and 256: takeHistory()
/// equals the builder's history field by field, and at every level the
/// streamed violations and the finalize report equal the one-shot
/// result. Returns the violations the one-shot engine found (all levels).
size_t expectDeriveOnce(const Script &S, MonitorOptions Options,
                        const std::string &Name) {
  History Expected = S.build();
  size_t Found = 0;
  for (size_t Interval : {size_t(1), size_t(7), size_t(256)}) {
    std::string Context = Name + " interval " + std::to_string(Interval);
    Options.CheckIntervalTxns = Interval;
    {
      Monitor M(Options);
      S.feed(M);
      expectSameHistory(Expected, M.takeHistory(), Context);
    }
    for (IsolationLevel Level : AllIsolationLevels) {
      std::string At = Context + " " + isolationLevelName(Level);
      Options.Level = Level;
      Options.Check.Threads = 1;
      CollectingSink Sink;
      Monitor M(Options, &Sink);
      S.feed(M);
      CheckReport Report = M.finalize();
      CheckReport OneShot = checkIsolation(Expected, Level, Options.Check);
      expectSameReport(OneShot, Report, At);
      EXPECT_EQ(violationKeys(Sink.Violations),
                violationKeys(OneShot.Violations))
          << At;
      Found += OneShot.Violations.size();
    }
  }
  return Found;
}

} // namespace

/// Readers that commit while their writer is still open are Deferred;
/// the writer's commit or abort wakes them (an abort makes aborted reads).
TEST(MonitorDeriveOnce, ReadersCloseBeforeTheirWriters) {
  Script S(3);
  for (Value I = 0; I < 24; ++I) {
    Key K = static_cast<Key>(I % 5) * 3;
    uint32_t W = S.begin(0);
    S.write(W, K, 100 + I);
    S.write(W, K + 1, 100 + I);
    uint32_t R = S.begin(1);
    S.read(R, K, 100 + I);
    S.commit(R); // deferred: W is open
    uint32_t W2 = S.begin(2);
    S.write(W2, K + 2, 100 + I);
    uint32_t R2 = S.begin(1);
    S.read(R2, K + 2, 100 + I);
    S.read(R2, K + 1, 100 + I);
    S.commit(R2); // deferred on both writers
    S.commit(W);
    if (I % 3 == 0)
      S.abort(W2); // R2 read an aborted write
    else
      S.commit(W2);
  }
  EXPECT_GT(expectDeriveOnce(S, {}, "deferred readers"), 0u);
}

/// A read whose write arrives only later is parked when its reader
/// closes, and the write wakes it; some of the writes abort.
TEST(MonitorDeriveOnce, ReadsWhoseWriteArrivesLater) {
  Script S(4);
  for (Value I = 0; I < 30; ++I) {
    uint32_t R = S.begin(static_cast<SessionId>(I % 3));
    S.read(R, static_cast<Key>(I % 7), 1000 + I);
    S.read(R, static_cast<Key>(I % 7), 1000 + I); // two parked reads
    S.commit(R);
  }
  for (Value I = 0; I < 30; ++I) {
    uint32_t W = S.begin(3);
    S.write(W, static_cast<Key>(I % 7), 1000 + I);
    if (I % 5 == 0)
      S.abort(W);
    else
      S.commit(W);
  }
  EXPECT_GT(expectDeriveOnce(S, {}, "late writes"), 0u);
}

/// The initial-state transaction arrives last: every read of an initial
/// value stays unresolved until then, and the history is still exact.
TEST(MonitorDeriveOnce, InitialStateTransactionLast) {
  Script S(5);
  for (Value I = 0; I < 40; ++I) {
    Key K = static_cast<Key>(I % 8);
    uint32_t T = S.begin(static_cast<SessionId>(I % 4));
    S.read(T, K, 0);
    if (I >= 7) // the write of transaction I - 7
      S.read(T, static_cast<Key>((I + 1) % 8), I - 6);
    S.write(T, K, I + 1);
    S.commit(T);
  }
  uint32_t Init = S.begin(4);
  for (Key K = 0; K < 8; ++K)
    S.write(Init, K, 0);
  S.commit(Init);
  expectDeriveOnce(S, {}, "initial state last");
}

/// A hung transaction is force-aborted at a checking pass: the reader
/// that waited on it wakes to an aborted read, and what the hung session
/// sends afterwards is dropped.
TEST(MonitorDeriveOnce, ForceAbortWakesWaitingReaders) {
  Script S(3);
  S.time(0);
  uint32_t Hung = S.begin(0);
  S.write(Hung, 7, 70);
  uint32_t R = S.begin(1);
  S.read(R, 7, 70);
  S.commit(R); // deferred on the hung writer
  for (Value I = 0; I < 10; ++I) {
    uint32_t T = S.begin(2);
    S.write(T, 9, 90 + I);
    S.read(T, 7, 70);
    S.commit(T);
  }
  S.time(50);
  S.check(); // force-aborts Hung
  S.forceAborted(Hung);
  S.write(Hung, 8, 80);
  S.commit(Hung);
  uint32_t After = S.begin(1);
  S.read(After, 9, 95);
  S.commit(After);
  MonitorOptions Options;
  Options.ForceAbortOpenTicks = 10;
  EXPECT_GT(expectDeriveOnce(S, Options, "force-abort"), 0u);
}

/// Windowed eviction: the window slides over a long clean prefix while
/// readers wait on open writers and late writes, and the anomalies at the
/// end, all inside the window, stream exactly as the one-shot engine
/// reports them.
TEST(MonitorDeriveOnce, WindowEvictionKeepsInWindowVerdicts) {
  Script S(4);
  for (Value I = 0; I < 300; ++I) {
    uint32_t W = S.begin(0);
    S.write(W, static_cast<Key>(I % 5), I + 1);
    uint32_t R = S.begin(1);
    S.read(R, static_cast<Key>(I % 5), I + 1);
    S.commit(R); // deferred on W
    S.commit(W);
    uint32_t Late = S.begin(2);
    S.read(Late, 50, 5000 + I); // parked until the next write
    S.commit(Late);
    uint32_t Fill = S.begin(3);
    S.write(Fill, 50, 5000 + I);
    S.commit(Fill);
  }
  uint32_t Bad = S.begin(0);
  S.write(Bad, 60, 6000);
  uint32_t Reader = S.begin(1);
  S.read(Reader, 60, 6000);
  S.commit(Reader);
  S.abort(Bad);
  History Expected = S.build();
  for (size_t Interval : {size_t(1), size_t(7), size_t(256)}) {
    for (IsolationLevel Level : AllIsolationLevels) {
      std::string At = "interval " + std::to_string(Interval) + " " +
                       isolationLevelName(Level);
      MonitorOptions Options;
      Options.Level = Level;
      Options.Check.Threads = 1;
      Options.CheckIntervalTxns = Interval;
      Options.WindowTxns = 64;
      CollectingSink Sink;
      Monitor M(Options, &Sink);
      S.feed(M);
      CheckReport Report = M.finalize();
      EXPECT_GT(M.stats().EvictedTxns, 0u) << At;
      CheckReport OneShot = checkIsolation(Expected, Level, Options.Check);
      ASSERT_FALSE(OneShot.Violations.empty()) << At;
      EXPECT_EQ(violationKeys(Sink.Violations),
                violationKeys(OneShot.Violations))
          << At;
      EXPECT_EQ(violationKeys(Report.Violations),
                violationKeys(OneShot.Violations))
          << At;
    }
  }
}
