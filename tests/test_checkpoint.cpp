//===- tests/test_checkpoint.cpp - Persistent checkpoint round-trips --------===//
//
// The acceptance battery of persistent monitor checkpoints
// (checker/checkpoint.h): serialize -> restore -> continue must be
// bit-identical to an uninterrupted run — the resumed monitor emits exactly
// the violations the uninterrupted run emitted after the checkpoint, and
// its finalize report and cumulative statistics equal the uninterrupted
// run's — across flush cadences, window sizes, isolation levels, clean and
// anomaly-injected histories, and all three stream formats — first on
// in-memory chunked snapshots taken at every flush, then through real
// on-disk segment stores. Corrupted or truncated checkpoints must fail
// with a clear diagnostic, never UB.
//
//===----------------------------------------------------------------------===//

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/violation_sink.h"
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "store/segment_store.h"
#include "support/serialize.h"
#include "tests/test_util.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

using namespace awdit;
using namespace awdit::test;

namespace {

namespace fs = std::filesystem;

struct StoreTempDir {
  fs::path Path;
  explicit StoreTempDir(const std::string &Tag) {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("awdit_ckptstore_" + Tag + "_" + std::to_string(::getpid()) +
            "_" + std::to_string(Counter++));
  }
  ~StoreTempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

/// One captured snapshot: the chunked monitor state with the coordinate
/// bases it was written under, the parser machine state, the meta, and how
/// many violations had been reported when it was taken (the expected
/// re-emission cut).
struct Snapshot {
  std::string Bytes;
  uint32_t IdBase = 0;
  std::vector<uint64_t> SoBase;
  std::string Machine;
  CheckpointMeta Meta;
  uint64_t ViolationsAtCheckpoint = 0;
};

/// Chunked snapshot of \p M, as a store commit would serialize it.
void saveChunked(const Monitor &M, Snapshot &S) {
  std::vector<ChunkMark> Marks;
  M.saveStateChunked(S.Bytes, Marks, S.IdBase, S.SoBase);
}

struct ReferenceRun {
  CheckReport Report;
  std::vector<std::string> Descriptions;
  MonitorStats Stats;
  std::vector<Snapshot> Snapshots; // one per flush
};

/// Runs the stream uninterrupted, capturing a checkpoint at every flush
/// boundary — every possible crash point.
ReferenceRun runWithSnapshots(const std::string &Text,
                              const std::string &Format,
                              const MonitorOptions &Options) {
  ReferenceRun Run;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  ShardedMonitorIngest Ingest(
      M, Format, /*Threads=*/1, [&](const IngestFlushPoint &P) {
        Snapshot S;
        S.Meta.Format = Format;
        S.Meta.Options = Options;
        S.Meta.StreamOffset = P.StreamOffset;
        S.Meta.LineNo = P.LineNo;
        S.Meta.CommittedTxns = P.CommittedTxns;
        S.Meta.Flushes = P.Flushes;
        ByteWriter W(S.Machine);
        P.Machine.saveState(W);
        saveChunked(P.M, S);
        S.ViolationsAtCheckpoint = P.M.stats().ReportedViolations;
        Run.Snapshots.push_back(std::move(S));
      });
  EXPECT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += 5000)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, 5000)))
      break;
  EXPECT_NE(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
      << Ingest.errorText();
  Run.Report = M.finalize();
  Run.Stats = M.stats();
  Run.Descriptions = std::move(Sink.Descriptions);
  return Run;
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

/// Restores \p S, replays the rest of \p Text, and checks every
/// observable against the uninterrupted reference.
void resumeAndCompare(const ReferenceRun &Ref, const Snapshot &S,
                      const std::string &Text, const std::string &Format,
                      const MonitorOptions &Options, unsigned Threads,
                      const std::string &Context) {
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  std::string Err;
  ASSERT_TRUE(M.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err))
      << Context << ": " << Err;

  ShardedMonitorIngest Ingest(M, Format, Threads);
  ByteReader MR(S.Machine);
  ASSERT_TRUE(Ingest.machine().loadState(MR)) << Context;
  Ingest.primeResume(S.Meta.StreamOffset, S.Meta.LineNo);

  std::string_view Rest =
      std::string_view(Text).substr(S.Meta.StreamOffset);
  for (size_t Pos = 0; Pos < Rest.size(); Pos += 4096)
    if (!Ingest.feed(Rest.substr(Pos, 4096)))
      break;
  EXPECT_NE(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
      << Context << ": " << Ingest.errorText();

  CheckReport Report = M.finalize();
  const MonitorStats &Stats = M.stats();

  // The resumed violation stream is exactly the uninterrupted run's
  // suffix from the checkpoint onward.
  ASSERT_LE(S.ViolationsAtCheckpoint, Ref.Descriptions.size()) << Context;
  std::vector<std::string> ExpectedSuffix(
      Ref.Descriptions.begin() +
          static_cast<ptrdiff_t>(S.ViolationsAtCheckpoint),
      Ref.Descriptions.end());
  EXPECT_EQ(ExpectedSuffix, Sink.Descriptions) << Context;

  // The finalize report and cumulative stats equal the uninterrupted
  // run's — the restart is invisible.
  EXPECT_EQ(Ref.Report.Consistent, Report.Consistent) << Context;
  ASSERT_EQ(Ref.Report.Violations.size(), Report.Violations.size())
      << Context;
  for (size_t I = 0; I < Report.Violations.size(); ++I)
    expectSameViolation(Ref.Report.Violations[I], Report.Violations[I],
                        Context + " violation " + std::to_string(I));
  EXPECT_EQ(Ref.Report.Stats.InferredEdges, Report.Stats.InferredEdges)
      << Context;
  EXPECT_EQ(Ref.Report.Stats.GraphEdges, Report.Stats.GraphEdges) << Context;
  EXPECT_EQ(Ref.Stats.IngestedTxns, Stats.IngestedTxns) << Context;
  EXPECT_EQ(Ref.Stats.IngestedOps, Stats.IngestedOps) << Context;
  EXPECT_EQ(Ref.Stats.CommittedTxns, Stats.CommittedTxns) << Context;
  EXPECT_EQ(Ref.Stats.Flushes, Stats.Flushes) << Context;
  EXPECT_EQ(Ref.Stats.ReportedViolations, Stats.ReportedViolations)
      << Context;
  EXPECT_EQ(Ref.Stats.EvictedTxns, Stats.EvictedTxns) << Context;
  EXPECT_EQ(Ref.Stats.UnresolvedReads, Stats.UnresolvedReads) << Context;
}

History generated(int Seed, size_t Txns, bool Inject) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 6;
  P.Txns = Txns;
  P.Seed = static_cast<uint64_t>(Seed);
  P.AbortProbability = 0.05;
  History H = generateHistory(P);
  if (!Inject)
    return H;
  std::string Err;
  std::optional<History> Mutated =
      injectAnomaly(H, AnomalyKind::CausalViolation,
                    static_cast<uint64_t>(Seed * 3 + 1), &Err);
  EXPECT_TRUE(Mutated) << Err;
  return Mutated ? std::move(*Mutated) : std::move(H);
}

} // namespace

/// The headline sweep: restore at an early, middle, and late flush and
/// continue — level x cadence x window x clean/injected.
class CheckpointRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(CheckpointRoundTrip, ResumeIsBitIdentical) {
  auto [LevelIdx, Interval, Window, Inject] = GetParam();
  History H = generated(LevelIdx * 13 + Interval + Window, 600, Inject);
  std::string Text = writeTextHistory(H);

  MonitorOptions Options;
  Options.Level = static_cast<IsolationLevel>(LevelIdx);
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = static_cast<size_t>(Interval);
  Options.WindowTxns = static_cast<size_t>(Window);

  ReferenceRun Ref = runWithSnapshots(Text, "native", Options);
  ASSERT_FALSE(Ref.Snapshots.empty());
  // Early, middle, and late crash points; resumed single- and
  // multi-threaded.
  size_t Last = Ref.Snapshots.size() - 1;
  for (size_t Idx : {size_t(0), Last / 2, Last}) {
    std::string Context = "level " + std::to_string(LevelIdx) +
                          " interval " + std::to_string(Interval) +
                          " window " + std::to_string(Window) +
                          (Inject ? " injected" : " clean") + " snapshot " +
                          std::to_string(Idx);
    resumeAndCompare(Ref, Ref.Snapshots[Idx], Text, "native", Options,
                     /*Threads=*/1, Context + " threads 1");
    resumeAndCompare(Ref, Ref.Snapshots[Idx], Text, "native", Options,
                     /*Threads=*/3, Context + " threads 3");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CheckpointRoundTrip,
    ::testing::Combine(::testing::Range(0, 3),        // isolation level
                       ::testing::Values(1, 33),      // flush cadence
                       ::testing::Values(0, 96),      // window size
                       ::testing::Bool()));           // inject an anomaly

/// Foreign formats checkpoint their parser-machine state too: a plume
/// snapshot can land mid-pair, a dbcop snapshot mid-block.
TEST(Checkpoint, ForeignFormatMachineStateRoundTrips) {
  History H = generated(7, 500, /*Inject=*/true);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 16;

  for (auto [Format, Text] :
       {std::pair<std::string, std::string>{"plume", writePlumeHistory(H)},
        std::pair<std::string, std::string>{"dbcop",
                                            writeDbcopHistory(H)}}) {
    ReferenceRun Ref = runWithSnapshots(Text, Format, Options);
    ASSERT_FALSE(Ref.Snapshots.empty()) << Format;
    size_t Last = Ref.Snapshots.size() - 1;
    for (size_t Idx : {Last / 3, Last / 2, Last})
      resumeAndCompare(Ref, Ref.Snapshots[Idx], Text, Format, Options,
                       /*Threads=*/2,
                       Format + " snapshot " + std::to_string(Idx));
  }
}

/// Streams with clock directives: stream time and per-transaction
/// timestamps must survive the round trip so the age horizon keeps
/// evicting exactly as it would have.
TEST(Checkpoint, StreamTimeAndAgeEvictionSurvive) {
  std::string Text;
  for (int I = 0; I < 60; ++I) {
    Text += "t " + std::to_string(100 + I * 10) + "\n";
    Text += "b " + std::to_string(I % 3) + "\nw 1 " +
            std::to_string(I + 1) + "\nr 1 " + std::to_string(I) + "\nc\n";
  }
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 4;
  Options.WindowAgeTicks = 60;

  ReferenceRun Ref = runWithSnapshots(Text, "native", Options);
  ASSERT_FALSE(Ref.Snapshots.empty());
  EXPECT_GT(Ref.Stats.AgeEvictedTxns, 0u);
  size_t Last = Ref.Snapshots.size() - 1;
  for (size_t Idx : {size_t(0), Last / 2, Last})
    resumeAndCompare(Ref, Ref.Snapshots[Idx], Text, "native", Options,
                     /*Threads=*/1, "time snapshot " + std::to_string(Idx));
}

/// Force-abort bookkeeping (hung-transaction ids, open-transaction set,
/// the anchored stream clock) round-trips through the chunked state —
/// exercised through the API because the native text format cannot hold a
/// transaction open across other sessions' commits.
TEST(Checkpoint, ForceAbortStateSurvivesDirectSaveLoad) {
  MonitorOptions Options;
  Options.Level = IsolationLevel::ReadCommitted;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 2;
  Options.ForceAbortOpenTicks = 50;

  auto FeedPrefix = [&](Monitor &M) {
    SessionId S0 = M.addSession();
    SessionId S1 = M.addSession();
    TxnId Hung = M.beginTxn(S1);
    M.write(Hung, 99, 12345);
    M.advanceTime(100);
    for (int I = 0; I < 6; ++I) {
      TxnId T = M.beginTxn(S0);
      M.write(T, 1, I + 1);
      M.commit(T);
      M.advanceTime(110 + static_cast<uint64_t>(I) * 10);
    }
    return Hung;
  };
  auto FeedSuffix = [&](Monitor &M, TxnId Hung) {
    // The hung session comes back after its transaction was force-aborted:
    // its late operations and commit must be dropped quietly.
    M.write(Hung, 98, 777);
    M.commit(Hung);
    for (int I = 0; I < 4; ++I) {
      TxnId T = M.beginTxn(0);
      M.read(T, 1, I + 3);
      M.commit(T);
    }
  };

  CollectingSink SinkA;
  Monitor A(Options, &SinkA);
  TxnId Hung = FeedPrefix(A);
  EXPECT_GT(A.stats().ForcedAborts, 0u);

  Snapshot S;
  saveChunked(A, S);

  CollectingSink SinkB;
  Monitor B(Options, &SinkB);
  std::string Err;
  ASSERT_TRUE(B.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err)) << Err;

  FeedSuffix(A, Hung);
  FeedSuffix(B, Hung);
  CheckReport RA = A.finalize();
  CheckReport RB = B.finalize();
  EXPECT_EQ(RA.Consistent, RB.Consistent);
  ASSERT_EQ(RA.Violations.size(), RB.Violations.size());
  for (size_t I = 0; I < RA.Violations.size(); ++I)
    expectSameViolation(RA.Violations[I], RB.Violations[I],
                        "violation " + std::to_string(I));
  EXPECT_EQ(A.stats().ForcedAborts, B.stats().ForcedAborts);
  EXPECT_EQ(A.stats().CommittedTxns, B.stats().CommittedTxns);
  EXPECT_EQ(A.stats().ReportedViolations, B.stats().ReportedViolations);
  EXPECT_EQ(SinkA.Descriptions.size(),
            SinkB.Descriptions.size() + 0); // A saw none before the cut
  EXPECT_EQ(SinkA.Descriptions, SinkB.Descriptions);
}

//===----------------------------------------------------------------------===//
// Failure modes: corrupted and truncated checkpoints, wrong configuration.
//===----------------------------------------------------------------------===//

namespace {

/// A small valid snapshot to mutate.
Snapshot makeValidSnapshot(MonitorOptions &OptionsOut) {
  History H = generated(3, 200, false);
  std::string Text = writeTextHistory(H);
  OptionsOut.Level = IsolationLevel::CausalConsistency;
  OptionsOut.Check.Threads = 1;
  OptionsOut.CheckIntervalTxns = 16;
  ReferenceRun Ref = runWithSnapshots(Text, "native", OptionsOut);
  EXPECT_FALSE(Ref.Snapshots.empty());
  return Ref.Snapshots.empty() ? Snapshot() : Ref.Snapshots.back();
}

std::string restoreError(const Snapshot &S, std::string_view Bytes,
                         const MonitorOptions &Options) {
  Monitor M(Options);
  std::string Err;
  EXPECT_FALSE(M.loadStateChunked(Bytes, S.IdBase, S.SoBase, &Err));
  return Err;
}

/// Copies the store \p From to \p To and republishes its root there with
/// byte \p Offset of the root's meta blob set to \p Value, keeping every
/// chunk.
bool republishRoot(const StoreTempDir &From, const StoreTempDir &To,
                   size_t Offset, char Value, std::string *Err) {
  fs::copy(From.Path, To.Path, fs::copy_options::recursive);
  store::SegmentStore Store;
  if (!Store.open(To.str(), Err))
    return false;
  std::string MetaBlob = Store.rootMeta();
  MetaBlob[Offset] = Value;
  std::vector<uint64_t> Ids = Store.chunkIds();
  std::vector<std::string> Payloads(Ids.size());
  std::vector<std::pair<uint64_t, std::string_view>> Chunks;
  for (size_t I = 0; I < Ids.size(); ++I) {
    if (!Store.readChunk(Ids[I], Payloads[I], Err))
      return false;
    Chunks.emplace_back(Ids[I], Payloads[I]);
  }
  return Store.commit(MetaBlob, Chunks, Err);
}

} // namespace

TEST(Checkpoint, CorruptedAndTruncatedFailCleanly) {
  MonitorOptions Options;
  Snapshot S = makeValidSnapshot(Options);
  ASSERT_FALSE(S.Bytes.empty());

  // Sanity: the pristine bytes restore.
  {
    Monitor M(Options);
    std::string Err;
    EXPECT_TRUE(M.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err))
        << Err;
  }
  // Truncation at many points — the window, the saturation engine, and
  // deep in the delivery state — is a typed error, never UB.
  std::vector<size_t> Cuts = {S.Bytes.size() / 2, S.Bytes.size() - 1};
  for (size_t Keep = 0; Keep < S.Bytes.size(); Keep = Keep * 2 + 1)
    Cuts.push_back(Keep);
  for (size_t Keep : Cuts) {
    std::string Err =
        restoreError(S, std::string_view(S.Bytes).substr(0, Keep), Options);
    EXPECT_TRUE(Err.find("truncated") != std::string::npos ||
                Err.find("corrupted") != std::string::npos)
        << "kept " << Keep << ": " << Err;
  }
  // Restoring into a monitor at a different isolation level is refused.
  {
    MonitorOptions Wrong = Options;
    Wrong.Level = IsolationLevel::ReadCommitted;
    EXPECT_NE(restoreError(S, S.Bytes, Wrong).find("isolation level"),
              std::string::npos);
  }

  // The store root: the snapshot written through a real store reads back
  // its meta; a root whose meta blob is not ours, or that carries the
  // previous layout's version, is refused before any state is touched.
  StoreTempDir Dir("root");
  std::string Err;
  {
    Monitor M(Options);
    ASSERT_TRUE(M.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err)) << Err;
    StoreCheckpointer Ckpt;
    ASSERT_TRUE(Ckpt.open(Dir.str(), &Err)) << Err;
    ASSERT_TRUE(Ckpt.write(M, S.Machine, S.Meta, &Err)) << Err;
    CheckpointMeta Meta;
    ASSERT_TRUE(Ckpt.readMeta(Meta, &Err)) << Err;
    EXPECT_EQ(Meta.Format, "native");
    EXPECT_EQ(Meta.Options.Level, IsolationLevel::CausalConsistency);
    EXPECT_GT(Meta.StreamOffset, 0u);
  }
  // The magic is the u32 at offset 0, the version the u32 at offset 4
  // (little-endian; the current version fits its low byte).
  struct RootCase {
    size_t Offset;
    char Value;
    const char *Want;
  };
  for (RootCase Case :
       {RootCase{0, 'X', "bad magic"},
        RootCase{4, 2, "unsupported checkpoint store version 2"}}) {
    StoreTempDir Image("root_img");
    ASSERT_TRUE(republishRoot(Dir, Image, Case.Offset, Case.Value, &Err))
        << Err;
    StoreCheckpointer Ckpt;
    ASSERT_TRUE(Ckpt.open(Image.str(), &Err)) << Err;
    ASSERT_TRUE(Ckpt.hasCheckpoint());
    CheckpointMeta Meta;
    EXPECT_FALSE(Ckpt.readMeta(Meta, &Err));
    EXPECT_NE(Err.find(Case.Want), std::string::npos) << Err;
    Monitor M(Options);
    std::string MachineState;
    EXPECT_FALSE(Ckpt.restore(M, MachineState, &Err));
    EXPECT_NE(Err.find(Case.Want), std::string::npos) << Err;
  }
}

/// Many independent monitors checkpointed and restored in one process —
/// the multi-tenant server's resume path: distinct levels, cadences, and
/// windows, interleaved save/load and interleaved replay, with every
/// observable compared against that stream's own uninterrupted run (no
/// cross-session state bleed).
TEST(Checkpoint, MultipleIndependentMonitorsRestoreWithoutBleed) {
  struct Tenant {
    std::string Text;
    MonitorOptions Options;
    ReferenceRun Ref;
    // Resumed state:
    std::unique_ptr<CollectingSink> Sink;
    std::unique_ptr<Monitor> M;
    std::unique_ptr<ShardedMonitorIngest> Ingest;
    size_t SnapIdx = 0;
  };
  std::vector<Tenant> Tenants(3);

  Tenants[0].Options.Level = IsolationLevel::CausalConsistency;
  Tenants[0].Options.CheckIntervalTxns = 8;
  Tenants[0].Text = writeTextHistory(generated(61, 400, /*Inject=*/true));
  Tenants[1].Options.Level = IsolationLevel::ReadAtomic;
  Tenants[1].Options.CheckIntervalTxns = 1;
  Tenants[1].Options.WindowTxns = 96;
  Tenants[1].Text = writeTextHistory(generated(62, 400, /*Inject=*/true));
  Tenants[2].Options.Level = IsolationLevel::ReadCommitted;
  Tenants[2].Options.CheckIntervalTxns = 32;
  Tenants[2].Text = writeTextHistory(generated(63, 400, /*Inject=*/false));

  for (Tenant &T : Tenants) {
    T.Options.Check.Threads = 1;
    T.Ref = runWithSnapshots(T.Text, "native", T.Options);
    ASSERT_FALSE(T.Ref.Snapshots.empty());
  }

  // Interleaved restore: every tenant's monitor is rebuilt before any
  // tenant replays, from snapshots at different depths.
  for (size_t I = 0; I < Tenants.size(); ++I) {
    Tenant &T = Tenants[I];
    T.SnapIdx = (T.Ref.Snapshots.size() - 1) * (I + 1) / 4;
    const Snapshot &S = T.Ref.Snapshots[T.SnapIdx];
    T.Sink = std::make_unique<CollectingSink>();
    T.M = std::make_unique<Monitor>(T.Options, T.Sink.get());
    std::string Err;
    ASSERT_TRUE(T.M->loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err))
        << "tenant " << I << ": " << Err;
    T.Ingest = std::make_unique<ShardedMonitorIngest>(*T.M, "native",
                                                      /*Threads=*/1);
    ByteReader MR(S.Machine);
    ASSERT_TRUE(T.Ingest->machine().loadState(MR)) << "tenant " << I;
    T.Ingest->primeResume(S.Meta.StreamOffset, S.Meta.LineNo);
  }

  // Interleaved replay: round-robin chunks across the tenants, the way a
  // server's event loop interleaves its clients.
  bool Progress = true;
  std::vector<size_t> Pos(Tenants.size());
  for (size_t I = 0; I < Tenants.size(); ++I)
    Pos[I] = Tenants[I].Ref.Snapshots[Tenants[I].SnapIdx].Meta.StreamOffset;
  while (Progress) {
    Progress = false;
    for (size_t I = 0; I < Tenants.size(); ++I) {
      Tenant &T = Tenants[I];
      if (Pos[I] >= T.Text.size())
        continue;
      size_t Chunk = std::min<size_t>(2048, T.Text.size() - Pos[I]);
      ASSERT_TRUE(T.Ingest->feed(
          std::string_view(T.Text).substr(Pos[I], Chunk)))
          << "tenant " << I << ": " << T.Ingest->errorText();
      Pos[I] += Chunk;
      Progress = true;
    }
  }

  for (size_t I = 0; I < Tenants.size(); ++I) {
    Tenant &T = Tenants[I];
    std::string Context = "tenant " + std::to_string(I);
    EXPECT_NE(T.Ingest->finishStream(),
              ShardedMonitorIngest::EndState::Error)
        << Context << ": " << T.Ingest->errorText();
    CheckReport Report = T.M->finalize();
    const MonitorStats &Stats = T.M->stats();
    const Snapshot &S = T.Ref.Snapshots[T.SnapIdx];

    // Violation stream: exactly this tenant's own post-checkpoint suffix.
    ASSERT_LE(S.ViolationsAtCheckpoint, T.Ref.Descriptions.size())
        << Context;
    std::vector<std::string> ExpectedSuffix(
        T.Ref.Descriptions.begin() +
            static_cast<ptrdiff_t>(S.ViolationsAtCheckpoint),
        T.Ref.Descriptions.end());
    EXPECT_EQ(ExpectedSuffix, T.Sink->Descriptions) << Context;

    // Final report and cumulative stats: the restart (and the presence of
    // the other tenants) is invisible.
    EXPECT_EQ(T.Ref.Report.Consistent, Report.Consistent) << Context;
    ASSERT_EQ(T.Ref.Report.Violations.size(), Report.Violations.size())
        << Context;
    for (size_t V = 0; V < Report.Violations.size(); ++V)
      expectSameViolation(T.Ref.Report.Violations[V], Report.Violations[V],
                          Context + " violation " + std::to_string(V));
    EXPECT_EQ(T.Ref.Stats.IngestedTxns, Stats.IngestedTxns) << Context;
    EXPECT_EQ(T.Ref.Stats.CommittedTxns, Stats.CommittedTxns) << Context;
    EXPECT_EQ(T.Ref.Stats.Flushes, Stats.Flushes) << Context;
    EXPECT_EQ(T.Ref.Stats.ReportedViolations, Stats.ReportedViolations)
        << Context;
    EXPECT_EQ(T.Ref.Stats.EvictedTxns, Stats.EvictedTxns) << Context;
  }
}

//===----------------------------------------------------------------------===//
// Store-backed checkpoints: the same bit-identical-resume contract, now
// through StoreCheckpointer over a real on-disk segment store — including
// crash images taken at commit boundaries and torn mid-commit, and the
// O(delta) write-cost property that justifies the store.
//===----------------------------------------------------------------------===//

namespace {

/// Replays \p Text once more, checkpointing into one store at every flush
/// (the way `awdit monitor --checkpoint-store` does), and photographs the
/// store directory right after selected commits — a crash image at each.
/// Returns the per-commit appended byte deltas. With \p FullBytes, every
/// commit's state is also written into a fresh, empty store and the bytes
/// that full write appends are recorded there.
std::vector<uint64_t>
runWithStoreCommits(const std::string &Text, const std::string &Format,
                    const MonitorOptions &Options,
                    const std::string &StoreDir,
                    const std::vector<size_t> &ImageAt,
                    std::vector<fs::path> &Images,
                    std::vector<uint64_t> *FullBytes = nullptr) {
  std::vector<uint64_t> Deltas;
  StoreCheckpointer Ckpt;
  std::string Err;
  EXPECT_TRUE(Ckpt.open(StoreDir, &Err)) << Err;
  CollectingSink Sink;
  Monitor M(Options, &Sink);
  size_t FlushIdx = 0;
  ShardedMonitorIngest Ingest(
      M, Format, /*Threads=*/1, [&](const IngestFlushPoint &P) {
        CheckpointMeta Meta;
        Meta.Format = Format;
        Meta.Options = Options;
        Meta.StreamOffset = P.StreamOffset;
        Meta.LineNo = P.LineNo;
        Meta.CommittedTxns = P.CommittedTxns;
        Meta.Flushes = P.Flushes;
        std::string MachineBlob;
        ByteWriter W(MachineBlob);
        P.Machine.saveState(W);
        uint64_t Before = Ckpt.bytesAppended();
        std::string WErr;
        EXPECT_TRUE(Ckpt.write(P.M, MachineBlob, Meta, &WErr)) << WErr;
        Deltas.push_back(Ckpt.bytesAppended() - Before);
        if (FullBytes) {
          StoreTempDir FreshDir("full");
          StoreCheckpointer Fresh;
          EXPECT_TRUE(Fresh.open(FreshDir.str(), &WErr)) << WErr;
          EXPECT_TRUE(Fresh.write(P.M, MachineBlob, Meta, &WErr)) << WErr;
          FullBytes->push_back(Fresh.bytesAppended());
        }
        for (size_t Want : ImageAt)
          if (Want == FlushIdx) {
            fs::path Image = fs::path(StoreDir + ".img." +
                                      std::to_string(FlushIdx));
            fs::copy(StoreDir, Image, fs::copy_options::recursive);
            Images.push_back(Image);
          }
        ++FlushIdx;
      });
  EXPECT_TRUE(Ingest.valid());
  for (size_t Pos = 0; Pos < Text.size(); Pos += 5000)
    if (!Ingest.feed(std::string_view(Text).substr(Pos, 5000)))
      break;
  EXPECT_NE(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
      << Ingest.errorText();
  (void)M.finalize();
  return Deltas;
}

/// Opens the store at \p Dir, restores from its last published root, and
/// replays the rest — every observable must match the uninterrupted
/// reference's suffix from the matching flush.
void resumeFromStoreAndCompare(const ReferenceRun &Ref,
                               const std::string &Dir,
                               const std::string &Text,
                               const std::string &Format,
                               const MonitorOptions &Options,
                               unsigned Threads,
                               const std::string &Context) {
  StoreCheckpointer Ckpt;
  std::string Err;
  ASSERT_TRUE(Ckpt.open(Dir, &Err)) << Context << ": " << Err;
  ASSERT_TRUE(Ckpt.hasCheckpoint()) << Context;
  CheckpointMeta Meta;
  ASSERT_TRUE(Ckpt.readMeta(Meta, &Err)) << Context << ": " << Err;
  EXPECT_EQ(Meta.Format, Format) << Context;
  EXPECT_EQ(Meta.Options.Level, Options.Level) << Context;

  // The recovered root corresponds to one of the reference's flushes.
  const Snapshot *RefSnap = nullptr;
  for (const Snapshot &S : Ref.Snapshots)
    if (S.Meta.Flushes == Meta.Flushes && S.Meta.StreamOffset ==
                                              Meta.StreamOffset)
      RefSnap = &S;
  ASSERT_NE(RefSnap, nullptr)
      << Context << ": recovered root (flushes=" << Meta.Flushes
      << ", offset=" << Meta.StreamOffset
      << ") matches no reference flush";

  CollectingSink Sink;
  Monitor M(Options, &Sink);
  std::string MachineState;
  ASSERT_TRUE(Ckpt.restore(M, MachineState, &Err)) << Context << ": " << Err;

  ShardedMonitorIngest Ingest(M, Format, Threads);
  ByteReader MR(MachineState);
  ASSERT_TRUE(Ingest.machine().loadState(MR)) << Context;
  Ingest.primeResume(Meta.StreamOffset, Meta.LineNo);
  std::string_view Rest = std::string_view(Text).substr(Meta.StreamOffset);
  for (size_t Pos = 0; Pos < Rest.size(); Pos += 4096)
    if (!Ingest.feed(Rest.substr(Pos, 4096)))
      break;
  EXPECT_NE(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
      << Context << ": " << Ingest.errorText();

  CheckReport Report = M.finalize();
  const MonitorStats &Stats = M.stats();
  ASSERT_LE(RefSnap->ViolationsAtCheckpoint, Ref.Descriptions.size())
      << Context;
  std::vector<std::string> ExpectedSuffix(
      Ref.Descriptions.begin() +
          static_cast<ptrdiff_t>(RefSnap->ViolationsAtCheckpoint),
      Ref.Descriptions.end());
  EXPECT_EQ(ExpectedSuffix, Sink.Descriptions) << Context;
  EXPECT_EQ(Ref.Report.Consistent, Report.Consistent) << Context;
  ASSERT_EQ(Ref.Report.Violations.size(), Report.Violations.size())
      << Context;
  for (size_t I = 0; I < Report.Violations.size(); ++I)
    expectSameViolation(Ref.Report.Violations[I], Report.Violations[I],
                        Context + " violation " + std::to_string(I));
  EXPECT_EQ(Ref.Stats.IngestedTxns, Stats.IngestedTxns) << Context;
  EXPECT_EQ(Ref.Stats.CommittedTxns, Stats.CommittedTxns) << Context;
  EXPECT_EQ(Ref.Stats.Flushes, Stats.Flushes) << Context;
  EXPECT_EQ(Ref.Stats.ReportedViolations, Stats.ReportedViolations)
      << Context;
  EXPECT_EQ(Ref.Stats.EvictedTxns, Stats.EvictedTxns) << Context;
  EXPECT_EQ(Ref.Stats.UnresolvedReads, Stats.UnresolvedReads) << Context;
}

} // namespace

/// The store-backed sweep: crash images photographed right after an early,
/// middle, and late commit each resume bit-identically, single- and
/// multi-threaded, windowed and unwindowed, clean and injected.
class StoreCheckpointRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(StoreCheckpointRoundTrip, ResumeIsBitIdentical) {
  auto [LevelIdx, Window, Inject] = GetParam();
  History H = generated(LevelIdx * 17 + Window + 5, 600, Inject);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = static_cast<IsolationLevel>(LevelIdx);
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 16;
  Options.WindowTxns = static_cast<size_t>(Window);

  ReferenceRun Ref = runWithSnapshots(Text, "native", Options);
  ASSERT_FALSE(Ref.Snapshots.empty());
  size_t Last = Ref.Snapshots.size() - 1;

  StoreTempDir Dir("sweep");
  std::vector<fs::path> Images;
  runWithStoreCommits(Text, "native", Options, Dir.str(),
                      {size_t(0), Last / 2, Last}, Images);
  ASSERT_EQ(Images.size(), 3u);
  for (const fs::path &Image : Images) {
    StoreTempDir Owner("sweep_img"); // adopt for cleanup
    fs::remove_all(Owner.Path);
    fs::rename(Image, Owner.Path);
    std::string Context = "level " + std::to_string(LevelIdx) + " window " +
                          std::to_string(Window) +
                          (Inject ? " injected" : " clean") + " image " +
                          Image.filename().string();
    resumeFromStoreAndCompare(Ref, Owner.str(), Text, "native", Options,
                              /*Threads=*/1, Context + " threads 1");
    resumeFromStoreAndCompare(Ref, Owner.str(), Text, "native", Options,
                              /*Threads=*/3, Context + " threads 3");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreCheckpointRoundTrip,
    ::testing::Combine(::testing::Range(0, 3),   // isolation level
                       ::testing::Values(0, 96), // window size
                       ::testing::Bool()));      // inject an anomaly

/// A torn store — the root log truncated or scribbled at a random point,
/// as a crash mid-commit leaves it — recovers to the last published root
/// and resumes from there bit-identically.
TEST(StoreCheckpoint, TornRootLogResumesFromLastPublishedRoot) {
  History H = generated(29, 500, /*Inject=*/true);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 16;
  Options.WindowTxns = 96;

  ReferenceRun Ref = runWithSnapshots(Text, "native", Options);
  ASSERT_FALSE(Ref.Snapshots.empty());
  StoreTempDir Dir("torn");
  std::vector<fs::path> NoImages;
  runWithStoreCommits(Text, "native", Options, Dir.str(), {}, NoImages);

  std::mt19937_64 Rng(7);
  std::string LogPath = Dir.str() + "/roots.awrl";
  for (int Trial = 0; Trial < 8; ++Trial) {
    StoreTempDir Image("torn_img");
    fs::copy(Dir.Path, Image.Path, fs::copy_options::recursive);
    uint64_t LogBytes = fs::file_size(Image.Path / "roots.awrl");
    if (Trial % 2 == 0) {
      // Keep at least one byte short of a full tail record so some root
      // survives; cutting the whole log is SegmentStore's fresh-dir case.
      std::error_code Ec;
      fs::resize_file(Image.Path / "roots.awrl",
                      LogBytes / 2 + Rng() % (LogBytes / 2), Ec);
      ASSERT_FALSE(Ec);
    } else {
      std::ofstream Out(Image.Path / "roots.awrl",
                        std::ios::binary | std::ios::app);
      for (uint64_t I = 0, N = 1 + Rng() % 100; I < N; ++I)
        Out.put(static_cast<char>(Rng()));
    }
    resumeFromStoreAndCompare(Ref, Image.str(), Text, "native", Options,
                              /*Threads=*/1,
                              "torn trial " + std::to_string(Trial));
  }
}

/// The reason the store exists: a commit appends what changed since the
/// last flush, not the state — so as the state grows, the per-commit cost
/// stays bounded while a full write of the state grows with it.
/// (The window-scaled version of this claim is BM_CheckpointDelta's gate:
/// at large windows a window must dwarf a flush for the delta to show.)
TEST(StoreCheckpoint, DeltaCommitsStayFractionOfGrowingSnapshot) {
  History H = generated(31, 800, /*Inject=*/false);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 16;
  Options.WindowTxns = 0;

  StoreTempDir Dir("delta");
  std::vector<fs::path> NoImages;
  std::vector<uint64_t> FullBytes;
  std::vector<uint64_t> Deltas = runWithStoreCommits(
      Text, "native", Options, Dir.str(), {}, NoImages, &FullBytes);
  ASSERT_GT(Deltas.size(), 10u);
  ASSERT_EQ(Deltas.size(), FullBytes.size());

  // Steady state: skip the warm-up third, average the rest. Each fresh
  // write is the full state; each delta is what actually changed.
  uint64_t FullSum = 0, DeltaSum = 0, N = 0;
  for (size_t I = Deltas.size() / 3; I < Deltas.size(); ++I) {
    FullSum += FullBytes[I];
    DeltaSum += Deltas[I];
    ++N;
  }
  ASSERT_GT(N, 0u);
  double FullAvg = static_cast<double>(FullSum) / static_cast<double>(N);
  double DeltaAvg = static_cast<double>(DeltaSum) / static_cast<double>(N);
  EXPECT_LT(DeltaAvg * 2, FullAvg)
      << "steady-state delta " << DeltaAvg << " vs full write " << FullAvg;
}

/// Chunked save -> load -> save is byte-identical, marks and bases
/// included: the global-coordinate transform and its inverse cancel
/// exactly, so store-backed state never drifts across restarts.
TEST(StoreCheckpoint, ChunkedSaveLoadSaveIsByteIdentical) {
  History H = generated(37, 500, /*Inject=*/true);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 8;
  Options.WindowTxns = 96;

  CollectingSink Sink;
  Monitor M(Options, &Sink);
  ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
  ASSERT_TRUE(Ingest.feed(Text));
  ASSERT_NE(Ingest.finishStream(), ShardedMonitorIngest::EndState::Error)
      << Ingest.errorText();
  ASSERT_GT(M.stats().EvictedTxns, 0u) << "window never evicted";

  std::string Bytes1;
  std::vector<ChunkMark> Marks1;
  uint32_t IdBase1 = 0;
  std::vector<uint64_t> SoBase1;
  M.saveStateChunked(Bytes1, Marks1, IdBase1, SoBase1);
  ASSERT_FALSE(Bytes1.empty());
  ASSERT_FALSE(Marks1.empty());
  EXPECT_GT(IdBase1, 0u) << "eviction should have advanced the id base";

  CollectingSink Sink2;
  Monitor M2(Options, &Sink2);
  std::string Err;
  ASSERT_TRUE(M2.loadStateChunked(Bytes1, IdBase1, SoBase1, &Err)) << Err;

  std::string Bytes2;
  std::vector<ChunkMark> Marks2;
  uint32_t IdBase2 = 0;
  std::vector<uint64_t> SoBase2;
  M2.saveStateChunked(Bytes2, Marks2, IdBase2, SoBase2);
  EXPECT_EQ(Bytes1, Bytes2);
  EXPECT_EQ(IdBase1, IdBase2);
  EXPECT_EQ(SoBase1, SoBase2);
  ASSERT_EQ(Marks1.size(), Marks2.size());
  for (size_t I = 0; I < Marks1.size(); ++I) {
    EXPECT_EQ(Marks1[I].Offset, Marks2[I].Offset) << "mark " << I;
    EXPECT_EQ(Marks1[I].Id, Marks2[I].Id) << "mark " << I;
  }
}

/// A snapshot written through a store restores to the same monitor, and an
/// empty or non-store directory fails cleanly.
TEST(StoreCheckpoint, RestoresSnapshotAndFailsCleanly) {
  MonitorOptions Options;
  Snapshot S = makeValidSnapshot(Options);
  ASSERT_FALSE(S.Bytes.empty());

  // Snapshot restore -> store write -> store restore -> re-save: same bytes.
  Monitor M(Options);
  std::string Err;
  ASSERT_TRUE(M.loadStateChunked(S.Bytes, S.IdBase, S.SoBase, &Err)) << Err;

  StoreTempDir Dir("restore");
  {
    StoreCheckpointer Ckpt;
    ASSERT_TRUE(Ckpt.open(Dir.str(), &Err)) << Err;
    EXPECT_FALSE(Ckpt.hasCheckpoint());
    CheckpointMeta Empty;
    EXPECT_FALSE(Ckpt.readMeta(Empty, &Err));
    ASSERT_TRUE(Ckpt.write(M, S.Machine, S.Meta, &Err)) << Err;
    EXPECT_EQ(Ckpt.commits(), 1u);
  }
  {
    StoreCheckpointer Ckpt;
    ASSERT_TRUE(Ckpt.open(Dir.str(), &Err)) << Err;
    ASSERT_TRUE(Ckpt.hasCheckpoint());
    CheckpointMeta Meta2;
    ASSERT_TRUE(Ckpt.readMeta(Meta2, &Err)) << Err;
    EXPECT_EQ(S.Meta.StreamOffset, Meta2.StreamOffset);
    EXPECT_EQ(S.Meta.Flushes, Meta2.Flushes);
    Monitor M2(Options);
    std::string MachineState2;
    ASSERT_TRUE(Ckpt.restore(M2, MachineState2, &Err)) << Err;
    EXPECT_EQ(S.Machine, MachineState2);
    Snapshot Again;
    saveChunked(M2, Again);
    EXPECT_EQ(S.Bytes, Again.Bytes);
    EXPECT_EQ(S.IdBase, Again.IdBase);
    EXPECT_EQ(S.SoBase, Again.SoBase);
  }
  // The layout helpers agree on what is and is not a store.
  EXPECT_TRUE(StoreCheckpointer::isStoreDir(Dir.str()));
  EXPECT_FALSE(StoreCheckpointer::isStoreDir(Dir.str() + "/missing"));
  // removeStoreDir refuses a non-store directory, removes a real one.
  StoreTempDir NotAStore("plain");
  fs::create_directories(NotAStore.Path);
  EXPECT_FALSE(StoreCheckpointer::isStoreDir(NotAStore.str()));
  EXPECT_FALSE(removeStoreDir(NotAStore.str(), &Err));
  ASSERT_TRUE(removeStoreDir(Dir.str(), &Err)) << Err;
  EXPECT_FALSE(fs::exists(Dir.Path));
}
