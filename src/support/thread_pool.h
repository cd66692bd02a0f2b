//===- support/thread_pool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool: the one-shot checkers run their units
/// of work on it, `awdit batch --jobs` its histories and `awdit serve` its
/// sessions. Each worker owns a deque: tasks submitted from a worker go to
/// the front of its own deque (LIFO, cache-warm), external submissions are
/// distributed round-robin, and idle workers steal from the back of their
/// peers' deques.
///
/// parallelFor() is the primary entry point of the checkers: the calling
/// thread participates in the loop and, while waiting for stragglers, helps
/// drain the pool's queues — so nested parallel sections cannot deadlock.
/// The first exception thrown by any chunk is captured, remaining chunks are
/// cancelled, and the exception is rethrown on the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SUPPORT_THREAD_POOL_H
#define AWDIT_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace awdit {

class ThreadPool {
public:
  /// Creates a pool with \p Threads workers; 0 selects defaultThreads().
  explicit ThreadPool(size_t Threads = 0) {
    if (Threads == 0)
      Threads = defaultThreads();
    Queues.reserve(Threads);
    for (size_t I = 0; I < Threads; ++I)
      Queues.push_back(std::make_unique<Queue>());
    Workers.reserve(Threads);
    for (size_t I = 0; I < Threads; ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> L(SleepMutex);
      Stopping = true;
    }
    SleepCv.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  size_t numThreads() const { return Workers.size(); }

  /// std::thread::hardware_concurrency() with a floor of 1.
  static size_t defaultThreads() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }

  /// Submits a task; the returned future carries its result or exception.
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto Task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(F));
    std::future<Result> Future = Task->get_future();
    enqueue([Task] { (*Task)(); });
    return Future;
  }

  /// Runs Body(ChunkBegin, ChunkEnd) over [Begin, End) split into chunks of
  /// at most \p Grain indices. The caller participates; chunk order is
  /// unspecified, but every index is covered exactly once. Rethrows the
  /// first chunk exception after the loop has quiesced.
  template <typename Fn>
  void parallelFor(size_t Begin, size_t End, size_t Grain, Fn &&Body) {
    if (End <= Begin)
      return;
    if (Grain == 0)
      Grain = 1;
    size_t N = End - Begin;
    size_t NumChunks = (N + Grain - 1) / Grain;
    if (NumChunks <= 1 || numThreads() <= 1) {
      Body(Begin, End);
      return;
    }

    struct LoopState {
      std::function<void(size_t, size_t)> Chunk;
      size_t Begin = 0, End = 0, Grain = 1, NumChunks = 0;
      std::atomic<size_t> NextChunk{0};
      std::atomic<size_t> InFlight{0};
      std::mutex ErrMutex;
      std::exception_ptr Err;
    };
    auto S = std::make_shared<LoopState>();
    S->Chunk = std::forward<Fn>(Body);
    S->Begin = Begin;
    S->End = End;
    S->Grain = Grain;
    S->NumChunks = NumChunks;

    auto RunChunks = [](const std::shared_ptr<LoopState> &S) {
      for (;;) {
        // InFlight is raised *before* the claim so the caller's quiescence
        // check (NextChunk exhausted && InFlight == 0) can never observe a
        // claimed-but-uncounted chunk.
        S->InFlight.fetch_add(1);
        size_t C = S->NextChunk.fetch_add(1);
        if (C >= S->NumChunks) {
          S->InFlight.fetch_sub(1);
          return;
        }
        size_t B = S->Begin + C * S->Grain;
        size_t E = std::min(B + S->Grain, S->End);
        try {
          S->Chunk(B, E);
        } catch (...) {
          {
            std::lock_guard<std::mutex> L(S->ErrMutex);
            if (!S->Err)
              S->Err = std::current_exception();
          }
          // Cancel chunks nobody has claimed yet.
          S->NextChunk.store(S->NumChunks);
        }
        S->InFlight.fetch_sub(1);
      }
    };

    size_t Helpers = std::min(numThreads(), NumChunks - 1);
    for (size_t I = 0; I < Helpers; ++I)
      enqueue([S, RunChunks] { RunChunks(S); });

    RunChunks(S);
    // Help with unrelated pool work until the stragglers finish, so nested
    // parallelFor calls from inside pool tasks make progress.
    while (S->NextChunk.load() < S->NumChunks || S->InFlight.load() != 0) {
      if (!tryRunOneTask(CurrentWorker))
        std::this_thread::yield();
    }
    if (S->Err)
      std::rethrow_exception(S->Err);
  }

private:
  struct Queue {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  void enqueue(std::function<void()> Task) {
    size_t Target;
    if (CurrentPool == this) {
      // Worker-local LIFO push: nested tasks stay cache-warm.
      Target = CurrentWorker;
      std::lock_guard<std::mutex> L(Queues[Target]->Mutex);
      Queues[Target]->Tasks.push_front(std::move(Task));
    } else {
      Target = NextQueue.fetch_add(1) % Queues.size();
      std::lock_guard<std::mutex> L(Queues[Target]->Mutex);
      Queues[Target]->Tasks.push_back(std::move(Task));
    }
    {
      std::lock_guard<std::mutex> L(SleepMutex);
      ++PendingTasks;
    }
    SleepCv.notify_one();
  }

  /// Pops one task (own queue front first, then steals from peers' backs)
  /// and runs it. \p Home is the preferred queue; out-of-range values make
  /// every queue a steal target (used by non-worker callers).
  bool tryRunOneTask(size_t Home) {
    std::function<void()> Task;
    size_t NumQueues = Queues.size();
    for (size_t Offset = 0; Offset < NumQueues && !Task; ++Offset) {
      size_t I = Home < NumQueues ? (Home + Offset) % NumQueues : Offset;
      Queue &Q = *Queues[I];
      std::lock_guard<std::mutex> L(Q.Mutex);
      if (Q.Tasks.empty())
        continue;
      if (I == Home) {
        Task = std::move(Q.Tasks.front());
        Q.Tasks.pop_front();
      } else {
        Task = std::move(Q.Tasks.back());
        Q.Tasks.pop_back();
      }
    }
    if (!Task)
      return false;
    {
      std::lock_guard<std::mutex> L(SleepMutex);
      --PendingTasks;
    }
    Task();
    return true;
  }

  void workerLoop(size_t Index) {
    CurrentPool = this;
    CurrentWorker = Index;
    for (;;) {
      if (tryRunOneTask(Index))
        continue;
      std::unique_lock<std::mutex> L(SleepMutex);
      SleepCv.wait(L, [this] { return Stopping || PendingTasks > 0; });
      if (Stopping && PendingTasks == 0)
        return;
    }
  }

  std::vector<std::unique_ptr<Queue>> Queues;
  std::vector<std::thread> Workers;
  std::mutex SleepMutex;
  std::condition_variable SleepCv;
  /// Guarded by SleepMutex (it is the cv predicate).
  size_t PendingTasks = 0;
  bool Stopping = false;
  std::atomic<size_t> NextQueue{0};

  /// Identity of the current thread within its pool, for LIFO submission
  /// and steal preference. nullptr/-1 on non-worker threads.
  static inline thread_local ThreadPool *CurrentPool = nullptr;
  static inline thread_local size_t CurrentWorker = static_cast<size_t>(-1);
};

/// Runs Body(Begin, End, Buf) over [0, \p N) and returns every chunk's own
/// output buffer, in chunk order. Without a pool (\p Pool null), [0, N) is
/// one chunk run inline; with one, chunks of \p Grain (at least 1) indices
/// run through parallelFor. A chunk fills a buffer local to its worker and
/// moves it into place when done: neighbouring buffers' headers share
/// cache lines.
template <typename T, typename Fn>
std::vector<std::vector<T>> collectChunks(ThreadPool *Pool, size_t N,
                                          size_t Grain, Fn &&Body) {
  if (!Pool) {
    std::vector<std::vector<T>> One(1);
    Body(size_t(0), N, One.front());
    return One;
  }
  std::vector<std::vector<T>> Bufs((N + Grain - 1) / Grain);
  Pool->parallelFor(0, N, Grain, [&](size_t Begin, size_t End) {
    std::vector<T> Buf;
    Body(Begin, End, Buf);
    Bufs[Begin / Grain] = std::move(Buf);
  });
  return Bufs;
}

} // namespace awdit

#endif // AWDIT_SUPPORT_THREAD_POOL_H
