//===- checker/parallel.cpp - Sharded parallel checking engine --------------===//

#include "checker/parallel.h"

#include "checker/check_cc.h"
#include "checker/check_ra.h"
#include "checker/commit_graph.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "checker/saturation_state.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <optional>

using namespace awdit;

namespace {

/// Transactions per chunk of the range-partitioned passes. Coarse enough
/// that per-chunk scratch allocation and the batch flush are noise.
constexpr size_t TxnGrain = 2048;

/// Per-worker sink that batches inferred edges and appends them to the
/// merged saturation state's striped buffers. One instance per parallelFor
/// chunk; the destructor flushes the tail.
class StripedEdgeSink {
public:
  explicit StripedEdgeSink(SaturationState &State) : State(State) {
    Buf.reserve(Cap);
  }

  StripedEdgeSink(const StripedEdgeSink &) = delete;
  StripedEdgeSink &operator=(const StripedEdgeSink &) = delete;

  ~StripedEdgeSink() { flush(); }

  void operator()(TxnId From, TxnId To) {
    Buf.push_back(CommitGraph::packEdge(From, To));
    if (Buf.size() >= Cap)
      flush();
  }

  void flush() {
    State.appendInferredBatch(Buf.data(), Buf.size());
    Buf.clear();
  }

private:
  static constexpr size_t Cap = 8192;
  SaturationState &State;
  std::vector<uint64_t> Buf;
};

/// Runs a violation-producing range pass over transaction chunks and
/// concatenates the per-chunk outputs in chunk order, reproducing the
/// sequential append order exactly. Returns true iff no chunk produced a
/// violation.
template <typename RangePass>
bool runChunkedViolationPass(const History &H, ThreadPool &Pool,
                             std::vector<Violation> &Out, RangePass Pass) {
  size_t N = H.numTxns();
  if (N == 0)
    return true;
  size_t NumChunks = (N + TxnGrain - 1) / TxnGrain;
  std::vector<std::vector<Violation>> PerChunk(NumChunks);
  Pool.parallelFor(0, N, TxnGrain, [&](size_t Begin, size_t End) {
    Pass(static_cast<TxnId>(Begin), static_cast<TxnId>(End),
         PerChunk[Begin / TxnGrain]);
  });
  size_t Before = Out.size();
  for (std::vector<Violation> &Chunk : PerChunk)
    Out.insert(Out.end(), std::make_move_iterator(Chunk.begin()),
               std::make_move_iterator(Chunk.end()));
  return Out.size() == Before;
}

} // namespace

bool awdit::checkReadConsistencyParallel(const History &H, ThreadPool &Pool,
                                         std::vector<Violation> &Out) {
  return runChunkedViolationPass(
      H, Pool, Out,
      [&H](TxnId Begin, TxnId End, std::vector<Violation> &ChunkOut) {
        checkReadConsistencyRange(H, Begin, End, ChunkOut);
      });
}

bool awdit::checkRcParallel(const History &H, ThreadPool &Pool,
                            std::vector<Violation> &Out, size_t MaxWitnesses,
                            SaturationStats *Stats) {
  if (!checkReadConsistencyParallel(H, Pool, Out))
    return false;

  // Shards feed one merged saturation state; its canonical finalize
  // (sorted, deduplicated) makes the result independent of scheduling.
  SaturationState Merged(IsolationLevel::ReadCommitted,
                         SaturationState::Mode::Batch);
  Pool.parallelFor(0, H.numTxns(), TxnGrain, [&](size_t Begin, size_t End) {
    detail::RcScratch Scratch;
    StripedEdgeSink Infer(Merged);
    detail::saturateRcRange(H, static_cast<TxnId>(Begin),
                            static_cast<TxnId>(End), Scratch, Infer);
  });

  return Merged.finalizeAcyclic(H, Out, MaxWitnesses, Stats);
}

bool awdit::checkRaParallel(const History &H, ThreadPool &Pool,
                            std::vector<Violation> &Out, size_t MaxWitnesses,
                            SaturationStats *Stats) {
  if (!checkReadConsistencyParallel(H, Pool, Out))
    return false;
  if (!runChunkedViolationPass(
          H, Pool, Out,
          [&H](TxnId Begin, TxnId End, std::vector<Violation> &ChunkOut) {
            checkRepeatableReadsRange(H, Begin, End, ChunkOut);
          }))
    return false;

  SaturationState Merged(IsolationLevel::ReadAtomic,
                         SaturationState::Mode::Batch);
  // One unit of work per session: the so-case last-writer table is
  // inherently sequential along so, but sessions are independent.
  Pool.parallelFor(0, H.numSessions(), 1, [&](size_t Begin, size_t End) {
    detail::RaScratch Scratch;
    StripedEdgeSink Infer(Merged);
    for (size_t S = Begin; S < End; ++S)
      detail::saturateRaSession(H, static_cast<SessionId>(S), Scratch,
                                Infer);
  });

  return Merged.finalizeAcyclic(H, Out, MaxWitnesses, Stats);
}

bool awdit::checkCcParallel(const History &H, ThreadPool &Pool,
                            std::vector<Violation> &Out, size_t MaxWitnesses,
                            SaturationStats *Stats) {
  if (!checkReadConsistencyParallel(H, Pool, Out))
    return false;

  SaturationState Merged(IsolationLevel::CausalConsistency,
                         SaturationState::Mode::Batch);
  std::optional<std::vector<uint32_t>> Order = Merged.computeBaseOrder(H);
  if (!Order) {
    // so ∪ wr cycle: fails every level; no saturation, no stats (mirrors
    // the sequential checker).
    Merged.finalizeAcyclic(H, Out, MaxWitnesses, nullptr);
    return false;
  }
  {
    HappensBefore HB;
    fillHappensBefore(H, *Order, HB);
    // The per-key last-writer inference (Algorithm 3, lines 5-15) over
    // contiguous key-id ranges of one shared index. Keys are independent:
    // all cross-key coupling goes through the read-only HB matrix. Ranges
    // carry about equal kernel work, four per worker so a hot key does not
    // leave the others idle.
    detail::CcKeyIndex Index(H);
    std::vector<uint32_t> Bounds =
        Index.splitByWork(std::max<size_t>(1, Pool.numThreads() * 4));
    Pool.parallelFor(0, Bounds.size() - 1, 1, [&](size_t Begin, size_t End) {
      detail::CcScratch Scratch;
      StripedEdgeSink Infer(Merged);
      for (size_t Range = Begin; Range < End; ++Range)
        detail::saturateCcKeys(Index, HB, Bounds[Range], Bounds[Range + 1],
                               Scratch, Infer);
    });
  } // HB and the index are freed before the canonical pass allocates.

  return Merged.finalizeAcyclic(H, Out, MaxWitnesses, Stats);
}
