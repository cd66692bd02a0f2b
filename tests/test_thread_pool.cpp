//===- tests/test_thread_pool.cpp - Work-stealing thread pool tests ----------===//
//
// Coverage for the one-shot checkers' pool: task execution and results,
// exception propagation through futures and parallelFor, nested submission
// and nested parallel loops (the deadlock-prone cases), and the chunk
// partition guarantees the checkers' merge order relies on.
//
//===----------------------------------------------------------------------===//

#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

using namespace awdit;

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool Pool(4);
  std::future<int> F = Pool.submit([] { return 6 * 7; });
  EXPECT_EQ(F.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool Pool;
  EXPECT_EQ(Pool.numThreads(), ThreadPool::defaultThreads());
  EXPECT_GE(Pool.numThreads(), 1u);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 1000; ++I)
    Futures.push_back(Pool.submit([&Counter] { ++Counter; }));
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Counter.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Counter] { ++Counter; });
    // No waiting: the destructor must run everything before joining.
  }
  EXPECT_EQ(Counter.load(), 64);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool Pool(2);
  std::future<int> F =
      Pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(F.get(), std::runtime_error);
  // The pool must survive a throwing task.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(0, N, 64, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      ++Hits[I];
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForChunksRespectGrainPartition) {
  ThreadPool Pool(4);
  constexpr size_t N = 1000, Grain = 128;
  std::mutex M;
  std::vector<std::pair<size_t, size_t>> Chunks;
  Pool.parallelFor(0, N, Grain, [&](size_t Begin, size_t End) {
    std::lock_guard<std::mutex> L(M);
    Chunks.push_back({Begin, End});
  });
  // Chunks must tile [0, N) on grain boundaries: the checkers map
  // Begin / Grain to a result slot and merge in slot order.
  std::sort(Chunks.begin(), Chunks.end());
  ASSERT_EQ(Chunks.size(), (N + Grain - 1) / Grain);
  size_t Expected = 0;
  for (auto [Begin, End] : Chunks) {
    EXPECT_EQ(Begin, Expected);
    EXPECT_EQ(Begin % Grain, 0u);
    EXPECT_LE(End - Begin, Grain);
    Expected = End;
  }
  EXPECT_EQ(Expected, N);
}

TEST(ThreadPool, ParallelForRethrowsChunkException) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  EXPECT_THROW(
      Pool.parallelFor(0, 1000, 10,
                       [&](size_t Begin, size_t) {
                         ++Ran;
                         if (Begin == 500)
                           throw std::logic_error("chunk failed");
                       }),
      std::logic_error);
  // Cancellation is best-effort, but the loop must have quiesced: running
  // more chunks than exist would mean double execution.
  EXPECT_LE(Ran.load(), 100);
  // The pool stays usable.
  EXPECT_EQ(Pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, NestedSubmissionFromWorker) {
  ThreadPool Pool(4);
  std::future<int> Outer = Pool.submit([&Pool] {
    std::future<int> Inner = Pool.submit([] { return 10; });
    return Inner.get() + 1;
  });
  EXPECT_EQ(Outer.get(), 11);
}

TEST(ThreadPool, NestedParallelFor) {
  ThreadPool Pool(4);
  constexpr size_t Rows = 40, Cols = 100;
  std::vector<std::atomic<uint64_t>> RowSums(Rows);
  Pool.parallelFor(0, Rows, 1, [&](size_t Begin, size_t End) {
    for (size_t R = Begin; R < End; ++R) {
      Pool.parallelFor(0, Cols, 8, [&, R](size_t B, size_t E) {
        uint64_t Local = 0;
        for (size_t C = B; C < E; ++C)
          Local += R * C;
        RowSums[R] += Local;
      });
    }
  });
  for (size_t R = 0; R < Rows; ++R)
    EXPECT_EQ(RowSums[R].load(), R * (Cols * (Cols - 1) / 2));
}

TEST(ThreadPool, ParallelForFromManyWorkersConcurrently) {
  // The stress shape of the batch CLI: many tasks, each running its own
  // parallelFor on the same pool.
  ThreadPool Pool(4);
  std::atomic<uint64_t> Total{0};
  std::vector<std::future<void>> Futures;
  for (int T = 0; T < 16; ++T)
    Futures.push_back(Pool.submit([&] {
      Pool.parallelFor(0, 500, 16, [&](size_t Begin, size_t End) {
        Total += End - Begin;
      });
    }));
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Total.load(), 16u * 500u);
}

TEST(ThreadPool, EmptyAndSingleChunkRanges) {
  ThreadPool Pool(2);
  int Calls = 0;
  Pool.parallelFor(5, 5, 10, [&](size_t, size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  Pool.parallelFor(0, 3, 10, [&](size_t Begin, size_t End) {
    ++Calls;
    EXPECT_EQ(Begin, 0u);
    EXPECT_EQ(End, 3u);
  });
  EXPECT_EQ(Calls, 1);
}
