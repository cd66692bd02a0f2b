//===- bench/fig9_scalability.cpp - Paper Fig. 9 reproduction ----------------===//
//
// Fig. 9: AWDIT scalability in three sweeps, for each isolation level:
//   (left)   time vs number of transactions (k = 100, bounded txn size):
//            linear for all levels;
//   (middle) time vs number of sessions (fixed txns): CC grows with k,
//            RC/RA flat;
//   (right)  time vs operations per transaction (fixed total ops): flat in
//            practice for all levels.
//
// Scale: default is ~4x smaller than the paper's axes; set
// AWDIT_BENCH_SCALE=full for the paper's sizes (txns up to 1.25e5 and a
// 1e6-op transaction-size sweep).
//
//===----------------------------------------------------------------------===//

#include "bench/bench_util.h"
#include "workload/generator.h"

#include <cstdio>

using namespace awdit;
using namespace awdit::bench;

namespace {

void printRow(size_t X, const History &H) {
  TimedResult Rc = timeAwdit(H, IsolationLevel::ReadCommitted);
  TimedResult Ra = timeAwdit(H, IsolationLevel::ReadAtomic);
  TimedResult Cc = timeAwdit(H, IsolationLevel::CausalConsistency);
  std::printf("%10zu %10zu %10.4f %10.4f %10.4f\n", X, H.numOps(),
              Rc.Seconds, Ra.Seconds, Cc.Seconds);
}

} // namespace

int main() {
  bool Full = fullScale();
  size_t Scale = Full ? 1 : 4;

  // (left) Time vs transactions: C-Twitter, 100 sessions.
  std::printf("== Fig. 9 (left): time vs transactions (k=100) ==\n");
  std::printf("%10s %10s %10s %10s %10s\n", "txns", "ops", "RC(s)", "RA(s)",
              "CC(s)");
  for (size_t Txns = 25000; Txns <= 125000; Txns += 25000) {
    GenerateParams P;
    P.Bench = Benchmark::CTwitter;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = 100;
    P.Txns = Txns / Scale;
    P.Seed = 31 + Txns;
    History H = generateHistory(P);
    printRow(P.Txns, H);
  }

  // (middle) Time vs sessions: fixed transaction count.
  size_t FixedTxns = 100000 / Scale;
  std::printf("\n== Fig. 9 (middle): time vs sessions (txns=%zu) ==\n",
              FixedTxns);
  std::printf("%10s %10s %10s %10s %10s\n", "sessions", "ops", "RC(s)",
              "RA(s)", "CC(s)");
  for (size_t Sessions = 25; Sessions <= 100; Sessions += 25) {
    GenerateParams P;
    P.Bench = Benchmark::CTwitter;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = Sessions;
    P.Txns = FixedTxns;
    P.Seed = 47 + Sessions;
    History H = generateHistory(P);
    printRow(Sessions, H);
  }

  // (right) Time vs transaction size: fixed total operations, custom
  // uniform workload (the paper uses a custom Cobra benchmark here since
  // C-Twitter cannot scale transaction sizes).
  size_t TotalOps = 1000000 / Scale;
  std::printf("\n== Fig. 9 (right): time vs txn size (ops=%zu, k=100) ==\n",
              TotalOps);
  std::printf("%10s %10s %10s %10s %10s\n", "txn_size", "ops", "RC(s)",
              "RA(s)", "CC(s)");
  for (size_t TxnSize = 25; TxnSize <= 100; TxnSize += 25) {
    GenerateParams P;
    P.Bench = Benchmark::Random;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = 100;
    P.Txns = TotalOps / TxnSize;
    P.TxnSize = TxnSize;
    P.KeySpace = 10000;
    P.Seed = 59 + TxnSize;
    History H = generateHistory(P);
    printRow(TxnSize, H);
  }

  // (extra, beyond the paper) Pool scaling: the same history checked on a
  // pool of increasing worker counts. threads=1 runs the checker inline,
  // so each row's ratio to the first is the pool's speedup on this
  // machine.
  std::printf("\n== Parallel engine: time vs threads (txns=%zu, k=100) ==\n",
              FixedTxns);
  std::printf("%10s %10s %10s %10s %10s\n", "threads", "ops", "RC(s)",
              "RA(s)", "CC(s)");
  {
    GenerateParams P;
    P.Bench = Benchmark::CTwitter;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = 100;
    P.Txns = FixedTxns;
    P.Seed = 83;
    History H = generateHistory(P);
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      TimedResult Rc = timeAwdit(H, IsolationLevel::ReadCommitted, Threads);
      TimedResult Ra = timeAwdit(H, IsolationLevel::ReadAtomic, Threads);
      TimedResult Cc =
          timeAwdit(H, IsolationLevel::CausalConsistency, Threads);
      std::printf("%10u %10zu %10.4f %10.4f %10.4f\n", Threads, H.numOps(),
                  Rc.Seconds, Ra.Seconds, Cc.Seconds);
    }
  }

  std::printf("\nExpected shape (paper): (left) linear in txns for every "
              "level; (middle) CC grows with k\nwhile RC/RA stay flat; "
              "(right) no discernible scaling in txn size.\n");
  return 0;
}
