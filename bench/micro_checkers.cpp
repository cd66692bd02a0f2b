//===- bench/micro_checkers.cpp - Component micro-benchmarks -----------------===//
//
// google-benchmark micro-benchmarks for the checker components and the
// design-choice ablations DESIGN.md calls out:
//   - per-level AWDIT throughput vs the exhaustive baselines (the
//     "minimal saturation" ablation);
//   - Read Consistency and ComputeHB in isolation;
//   - the single-session RA fast path vs the general algorithm
//     (Theorem 1.6 ablation).
//
//===----------------------------------------------------------------------===//

#include "baseline/naive_checker.h"
#include "checker/checkpoint.h"
#include "baseline/plume_like.h"
#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/check_ra_single_session.h"
#include "checker/check_rc.h"
#include "checker/checker.h"
#include "checker/monitor.h"
#include "checker/read_consistency.h"
#include "io/sharded_ingest.h"
#include "io/text_format.h"
#include "server/server.h"
#include "support/socket.h"
#include "workload/generator.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

using namespace awdit;

namespace {

/// Cached histories so generation cost stays out of the measurement.
const History &cachedHistory(size_t Txns) {
  static std::map<size_t, History> Cache;
  auto It = Cache.find(Txns);
  if (It == Cache.end()) {
    GenerateParams P;
    P.Bench = Benchmark::CTwitter;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = 32;
    P.Txns = Txns;
    P.Seed = 12345;
    It = Cache.emplace(Txns, generateHistory(P)).first;
  }
  return It->second;
}

const History &cachedSingleSessionHistory(size_t Txns) {
  static std::map<size_t, History> Cache;
  auto It = Cache.find(Txns);
  if (It == Cache.end()) {
    ClientWorkload W;
    W.Sessions.resize(1);
    Rng Rand(7);
    ClientTxn Init;
    for (Key K = 1; K <= 64; ++K)
      Init.Ops.push_back(ClientOp::write(K));
    W.Sessions[0].Txns.push_back(std::move(Init));
    for (size_t T = 0; T < Txns; ++T) {
      ClientTxn Txn;
      for (int O = 0; O < 6; ++O) {
        Key K = 1 + Rand.nextBelow(64);
        Txn.Ops.push_back(Rand.nextBool(0.4) ? ClientOp::write(K)
                                             : ClientOp::read(K));
      }
      W.Sessions[0].Txns.push_back(std::move(Txn));
    }
    SimConfig C;
    C.Mode = ConsistencyMode::Serializable;
    C.Seed = 11;
    It = Cache.emplace(Txns, *simulateDatabase(W, C)).first;
  }
  return It->second;
}

void reportOps(benchmark::State &State, const History &H) {
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(H.numOps()));
}

} // namespace

static void BM_ReadConsistency(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkReadConsistency(H, Out));
  }
  reportOps(State, H);
}
BENCHMARK(BM_ReadConsistency)->Arg(1024)->Arg(4096)->Arg(16384);

static void BM_ComputeHappensBefore(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    HappensBefore HB;
    benchmark::DoNotOptimize(computeHappensBefore(H, HB));
  }
  reportOps(State, H);
}
BENCHMARK(BM_ComputeHappensBefore)->Arg(1024)->Arg(4096)->Arg(16384);

static void BM_AwditRc(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkRc(H, Out, /*MaxWitnesses=*/1));
  }
  reportOps(State, H);
}
BENCHMARK(BM_AwditRc)->Arg(1024)->Arg(4096)->Arg(16384);

static void BM_AwditRa(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkRa(H, Out, /*MaxWitnesses=*/1));
  }
  reportOps(State, H);
}
BENCHMARK(BM_AwditRa)->Arg(1024)->Arg(4096)->Arg(16384);

static void BM_AwditCc(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkCc(H, Out, /*MaxWitnesses=*/1));
  }
  reportOps(State, H);
}
BENCHMARK(BM_AwditCc)->Arg(1024)->Arg(4096)->Arg(16384);

// Ablation: minimal saturation (AWDIT) vs exhaustive TAP sweep (Plume
// class) vs exhaustive inference with backward searches (naive class).
static void BM_AblationPlumeLikeCc(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  PlumeLikeChecker Plume;
  Deadline NoLimit(0.0);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Plume.check(H, IsolationLevel::CausalConsistency, NoLimit));
  reportOps(State, H);
}
BENCHMARK(BM_AblationPlumeLikeCc)->Arg(1024)->Arg(4096);

static void BM_AblationNaiveCc(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  NaiveChecker Naive;
  Deadline NoLimit(0.0);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Naive.check(H, IsolationLevel::CausalConsistency, NoLimit));
  reportOps(State, H);
}
BENCHMARK(BM_AblationNaiveCc)->Arg(1024)->Arg(2048);

// Ablation: Theorem 1.6 linear fast path vs the general RA algorithm on
// single-session histories.
static void BM_RaSingleSessionFastPath(benchmark::State &State) {
  const History &H =
      cachedSingleSessionHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkRaSingleSession(H, Out));
  }
  reportOps(State, H);
}
BENCHMARK(BM_RaSingleSessionFastPath)->Arg(4096)->Arg(16384);

static void BM_RaSingleSessionGeneral(benchmark::State &State) {
  const History &H =
      cachedSingleSessionHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkRa(H, Out, /*MaxWitnesses=*/1));
  }
  reportOps(State, H);
}
BENCHMARK(BM_RaSingleSessionGeneral)->Arg(4096)->Arg(16384);

// Ablation: Algorithm 3 as written (full HB matrix + pointer scans) vs
// the paper tool's on-the-fly variant (recycled rows + binary search).
static void BM_AwditCcOnTheFly(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    std::vector<Violation> Out;
    benchmark::DoNotOptimize(checkCcOnTheFly(H, Out, /*MaxWitnesses=*/1));
  }
  reportOps(State, H);
}
BENCHMARK(BM_AwditCcOnTheFly)->Arg(1024)->Arg(4096)->Arg(16384);

// Parallel engine scaling: the same check at 1/2/4/8 workers on the large
// generated history. Threads = 1 is the exact sequential legacy path, so
// each family reports the single- vs multi-thread speedup directly
// (items_per_second column). ParallelThreshold is forced to 0 so the
// thread count, not the history size, selects the engine.
static void runParallelLevel(benchmark::State &State, IsolationLevel Level) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  CheckOptions Options;
  Options.MaxWitnesses = 1;
  Options.Threads = static_cast<unsigned>(State.range(1));
  Options.ParallelThreshold = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(checkIsolation(H, Level, Options));
  reportOps(State, H);
}

static void BM_ParallelRc(benchmark::State &State) {
  runParallelLevel(State, IsolationLevel::ReadCommitted);
}
BENCHMARK(BM_ParallelRc)
    ->Args({65536, 1})->UseRealTime()
    ->Args({65536, 2})->UseRealTime()
    ->Args({65536, 4})->UseRealTime()
    ->Args({65536, 8});

static void BM_ParallelRa(benchmark::State &State) {
  runParallelLevel(State, IsolationLevel::ReadAtomic);
}
BENCHMARK(BM_ParallelRa)
    ->Args({65536, 1})->UseRealTime()
    ->Args({65536, 2})->UseRealTime()
    ->Args({65536, 4})->UseRealTime()
    ->Args({65536, 8});

static void BM_ParallelCc(benchmark::State &State) {
  runParallelLevel(State, IsolationLevel::CausalConsistency);
}
BENCHMARK(BM_ParallelCc)
    ->Args({65536, 1})->UseRealTime()
    ->Args({65536, 2})->UseRealTime()
    ->Args({65536, 4})->UseRealTime()
    ->Args({65536, 8});

// Streaming monitor ingest throughput: the whole history fed one
// transaction at a time with an incremental checking pass every
// `interval` commits (the `awdit monitor` hot path). Args: {txns,
// interval}; interval 0 defers all checking to finalize, which is the
// one-shot wrapper configuration and the baseline to compare against.
static void runMonitorIngest(benchmark::State &State, IsolationLevel Level,
                             size_t WindowTxns) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  size_t Interval = static_cast<size_t>(State.range(1));
  for (auto _ : State) {
    MonitorOptions Options;
    Options.Level = Level;
    Options.Check.MaxWitnesses = 1;
    Options.CheckIntervalTxns = Interval;
    Options.WindowTxns = WindowTxns;
    Monitor M(Options);
    M.replay(H);
    benchmark::DoNotOptimize(M.finalize());
  }
  reportOps(State, H);
}

static void BM_MonitorIngestRc(benchmark::State &State) {
  runMonitorIngest(State, IsolationLevel::ReadCommitted, /*WindowTxns=*/0);
}
BENCHMARK(BM_MonitorIngestRc)
    ->Args({4096, 0})
    ->Args({4096, 256})
    ->Args({16384, 256})
    ->Args({16384, 1024});

static void BM_MonitorIngestRa(benchmark::State &State) {
  runMonitorIngest(State, IsolationLevel::ReadAtomic, /*WindowTxns=*/0);
}
BENCHMARK(BM_MonitorIngestRa)
    ->Args({4096, 0})
    ->Args({4096, 256})
    ->Args({16384, 256})
    ->Args({16384, 1024});

static void BM_MonitorIngestCc(benchmark::State &State) {
  runMonitorIngest(State, IsolationLevel::CausalConsistency,
                   /*WindowTxns=*/0);
}
BENCHMARK(BM_MonitorIngestCc)
    ->Args({4096, 0})
    ->Args({4096, 256})
    ->Args({16384, 1024});

// Windowed ingest: bounded memory with eviction every pass. The window is
// a quarter of the stream so compaction runs repeatedly.
static void BM_MonitorWindowedCc(benchmark::State &State) {
  runMonitorIngest(State, IsolationLevel::CausalConsistency,
                   /*WindowTxns=*/static_cast<size_t>(State.range(0)) / 4);
}
BENCHMARK(BM_MonitorWindowedCc)->Args({4096, 256})->Args({16384, 1024});

// Steady-state flush cost as the live window grows: prefill `window`
// transactions (untimed), then measure ingest of a fixed 2048-transaction
// tail at a small flush cadence. With the delta-driven saturation engine
// the per-item time stays roughly flat as the window grows; an engine that
// re-scans the window each flush degrades linearly with it.
static void BM_MonitorFlushScalingCc(benchmark::State &State) {
  size_t Window = static_cast<size_t>(State.range(0));
  constexpr size_t Tail = 2048;
  const History &H = cachedHistory(Window + Tail);
  int64_t TailOps = 0;
  for (TxnId Id = static_cast<TxnId>(Window);
       Id < static_cast<TxnId>(Window + Tail); ++Id)
    TailOps += static_cast<int64_t>(H.txn(Id).size());

  for (auto _ : State) {
    State.PauseTiming();
    auto M = std::make_unique<Monitor>([&] {
      MonitorOptions Options;
      Options.Level = IsolationLevel::CausalConsistency;
      Options.Check.MaxWitnesses = 1;
      Options.CheckIntervalTxns = 64;
      return Options;
    }());
    while (M->numSessions() < H.numSessions())
      M->addSession();
    auto FeedOne = [&](TxnId Id) {
      const Transaction &T = H.txn(Id);
      TxnId Mid = M->beginTxn(T.Session);
      for (const Operation &Op : T.Ops)
        M->append(Mid, Op);
      if (T.Committed)
        M->commit(Mid);
      else
        M->abortTxn(Mid);
    };
    for (TxnId Id = 0; Id < static_cast<TxnId>(Window); ++Id)
      FeedOne(Id);
    State.ResumeTiming();

    for (TxnId Id = static_cast<TxnId>(Window);
         Id < static_cast<TxnId>(Window + Tail); ++Id)
      FeedOne(Id);
    benchmark::DoNotOptimize(M->stats().Flushes);

    State.PauseTiming();
    M.reset(); // teardown untimed
    State.ResumeTiming();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          TailOps);
}
BENCHMARK(BM_MonitorFlushScalingCc)->Arg(4096)->Arg(16384)->Arg(65536);

// O(delta) checkpoints: a commit to a live segment store appends only the
// chunks whose bytes changed since the last flush, while the same commit
// into a fresh, empty store has to write the whole state. One iteration
// streams ~1.5 windows of c-twitter, checkpointing every 256 commits at
// every window size — the checkpoint cadence is a user knob independent of
// the window, so fixing it isolates the claim under test: live-store bytes
// track the flush delta while full-state bytes track the window. The
// counters expose the average bytes one full and one delta checkpoint cost
// and the resulting reduction (the CI gate reads reduction_x, which must
// grow with the window).
static void BM_CheckpointDelta(benchmark::State &State) {
  size_t Window = static_cast<size_t>(State.range(0));
  const History &H = cachedHistory(Window + Window / 2);
  std::string Text = writeTextHistory(H);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.MaxWitnesses = 1;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 256;
  Options.WindowTxns = Window;

  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("awdit_bench_store_" + std::to_string(::getpid()));
  fs::path FreshDir = Dir.string() + ".fresh";
  uint64_t FullBytes = 0, FullSamples = 0, DeltaBytes = 0, Commits = 0;
  for (auto _ : State) {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    FullBytes = FullSamples = DeltaBytes = Commits = 0;
    StoreCheckpointer Ckpt;
    std::string Err;
    if (!Ckpt.open(Dir.string(), &Err)) {
      State.SkipWithError(Err.c_str());
      return;
    }
    Monitor M(Options);
    ShardedMonitorIngest Ingest(
        M, "native", /*Threads=*/1, [&](const IngestFlushPoint &P) {
          CheckpointMeta Meta;
          Meta.Format = "native";
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
          if (!Ckpt.write(P.M, MachineBlob, Meta, &WErr))
            return;
          DeltaBytes += Ckpt.bytesAppended() - Before;
          ++Commits;
          // The full-state cost (the same commit into an empty store) is
          // flat once the window fills; sample it so the measured loop
          // stays about the live store.
          if (Commits % 8 == 1) {
            std::error_code FreshEc;
            fs::remove_all(FreshDir, FreshEc);
            StoreCheckpointer Fresh;
            if (Fresh.open(FreshDir.string(), &WErr) &&
                Fresh.write(P.M, MachineBlob, Meta, &WErr)) {
              FullBytes += Fresh.bytesAppended();
              ++FullSamples;
            }
          }
        });
    for (size_t Pos = 0; Pos < Text.size(); Pos += size_t(1) << 16)
      if (!Ingest.feed(std::string_view(Text).substr(Pos, size_t(1) << 16)))
        break;
    Ingest.finishStream();
    benchmark::DoNotOptimize(M.stats().Flushes);
    fs::remove_all(Dir, Ec);
    fs::remove_all(FreshDir, Ec);
  }
  double FullAvg = FullSamples ? static_cast<double>(FullBytes) /
                                     static_cast<double>(FullSamples)
                               : 0.0;
  double DeltaAvg =
      Commits ? static_cast<double>(DeltaBytes) / static_cast<double>(Commits)
              : 0.0;
  State.counters["full_bytes_per_ckpt"] = FullAvg;
  State.counters["delta_bytes_per_ckpt"] = DeltaAvg;
  State.counters["reduction_x"] = DeltaAvg > 0.0 ? FullAvg / DeltaAvg : 0.0;
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(H.numTxns()));
}
BENCHMARK(BM_CheckpointDelta)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// Sharded stream ingest: the `awdit monitor --threads N` hot path — raw
// text through the pipeline (line split -> sharded tokenization -> ordered
// apply) at a realistic cadence. Arg: thread count; 1 is the legacy
// synchronous path, the baseline the multi-core runs are compared to.
// Output is bit-identical at every thread count (enforced by
// tests/test_sharded_monitor.cpp), so this measures pure ingest
// throughput. Note: multi-core gains only show on multi-core machines.
static void BM_MonitorShardedIngest(benchmark::State &State) {
  const History &H = cachedHistory(16384);
  static const std::string Text = writeTextHistory(H);
  unsigned Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Options.Check.MaxWitnesses = 1;
    Options.CheckIntervalTxns = 256;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, "native", Threads);
    constexpr size_t Chunk = 1 << 16;
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk)
      Ingest.feed(std::string_view(Text).substr(Pos, Chunk));
    Ingest.finishStream();
    benchmark::DoNotOptimize(M.finalize());
  }
  reportOps(State, H);
}
BENCHMARK(BM_MonitorShardedIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Multi-tenant server fan-out: aggregate committed-transaction throughput
// vs concurrent session count. Each iteration boots an `awdit serve`
// instance on an ephemeral loopback port (no checkpoint/sink dirs — pure
// protocol + checking cost) and replays one small history per session
// from concurrent client threads, HELLO through FINAL. items/s ~=
// aggregate txns/s across all tenants.
static void BM_ServerSessionFanout(benchmark::State &State) {
  size_t Sessions = static_cast<size_t>(State.range(0));
  const History &H = cachedHistory(512);
  static const std::string Text = writeTextHistory(cachedHistory(512));
  for (auto _ : State) {
    server::ServerOptions Options;
    Options.Host = "127.0.0.1";
    Options.Port = 0;
    Options.IdleTimeoutSec = 0;
    server::Server Srv(Options);
    std::string Err;
    if (!Srv.start(&Err)) {
      State.SkipWithError(Err.c_str());
      return;
    }
    std::thread Runner([&] { Srv.run(); });

    std::vector<std::thread> Clients;
    Clients.reserve(Sessions);
    std::atomic<bool> Failed{false};
    for (size_t I = 0; I < Sessions; ++I)
      Clients.emplace_back([&, I] {
        Socket S = tcpConnect("127.0.0.1", Srv.port(), nullptr);
        if (!S.valid() ||
            !S.writeAll("HELLO s" + std::to_string(I) +
                        " cc interval=64 witnesses=1\n") ||
            !S.writeAll(Text) || !S.writeAll("END\n")) {
          Failed.store(true);
          return;
        }
        // Drain replies until the server says BYE.
        std::string Buf;
        char Tmp[4096];
        for (;;) {
          long N = S.readSome(Tmp, sizeof(Tmp));
          if (N <= 0) {
            Failed.store(true);
            return;
          }
          Buf.append(Tmp, static_cast<size_t>(N));
          if (Buf.find("BYE\n") != std::string::npos)
            return;
          // Keep only a tail: BYE can straddle a read boundary.
          if (Buf.size() > 8192)
            Buf.erase(0, Buf.size() - 8);
        }
      });
    for (std::thread &C : Clients)
      C.join();
    Srv.requestShutdown();
    Runner.join();
    if (Failed.load()) {
      State.SkipWithError("a client failed");
      return;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Sessions) *
                          static_cast<int64_t>(H.numTxns()));
}
BENCHMARK(BM_ServerSessionFanout)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// End-to-end facade throughput (what the CLI pays per history).
static void BM_FacadeAllLevels(benchmark::State &State) {
  const History &H = cachedHistory(static_cast<size_t>(State.range(0)));
  for (auto _ : State)
    for (IsolationLevel Level : AllIsolationLevels)
      benchmark::DoNotOptimize(checkIsolation(H, Level));
  reportOps(State, H);
}
BENCHMARK(BM_FacadeAllLevels)->Arg(4096);

BENCHMARK_MAIN();
