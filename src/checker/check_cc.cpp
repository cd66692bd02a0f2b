//===- checker/check_cc.cpp - AWDIT Causal Consistency (Alg. 3) ------------===//

#include "checker/check_cc.h"

#include "checker/commit_graph.h"
#include "checker/read_consistency.h"
#include "checker/saturation_impl.h"
#include "graph/topo_sort.h"
#include "support/dense_key_ids.h"
#include "support/thread_pool.h"

#include <algorithm>

using namespace awdit;

namespace {

/// Stable counting sort of \p Vals by the key id beside each in \p Ids:
/// returns them grouped by id, in their original order within a group, and
/// sets \p Begin to the NumKeys + 1 group offsets.
template <typename T>
std::vector<T> groupByKey(const std::vector<uint32_t> &Ids,
                          const std::vector<T> &Vals, size_t NumKeys,
                          std::vector<uint32_t> &Begin) {
  Begin.assign(NumKeys + 1, 0);
  for (uint32_t Id : Ids)
    ++Begin[Id + 1];
  for (size_t Id = 0; Id < NumKeys; ++Id)
    Begin[Id + 1] += Begin[Id];
  std::vector<uint32_t> Pos(Begin.begin(), Begin.end() - 1);
  std::vector<T> Grouped(Vals.size());
  for (size_t I = 0; I < Vals.size(); ++I)
    Grouped[Pos[Ids[I]]++] = Vals[I];
  return Grouped;
}

} // namespace

detail::CcKeyIndex::CcKeyIndex(const History &H) {
  // One pass in kernel scan order (session, so, then WriteKeys / po) gives
  // every writer and external-read occurrence its key id; the counting
  // sorts by id keep that order within each key.
  struct SessionWriter {
    SessionId S;
    CcWriterEntry E;
  };
  std::vector<uint32_t> WriteIds, ReadIds;
  std::vector<SessionWriter> Writes;
  std::vector<CcKeyRead> ExtReads;
  DenseKeyIds Ids(H.numKeys());
  auto Intern = [&](Key K) {
    uint32_t Id = Ids.intern(K);
    if (Id == KeyOf.size())
      KeyOf.push_back(K);
    return Id;
  };
  for (SessionId S = 0; S < H.numSessions(); ++S)
    for (TxnId T : H.sessionTxns(S)) {
      const Transaction &Txn = H.txn(T);
      for (Key X : Txn.WriteKeys) {
        WriteIds.push_back(Intern(X));
        Writes.push_back({S, {T, Txn.SoIndex}});
      }
      // An external read's writer is committed and writes the key, so
      // interning here adds no key that no committed transaction writes.
      for (uint32_t ReadIdx : Txn.ExtReads) {
        const ReadInfo &RI = Txn.Reads[ReadIdx];
        ReadIds.push_back(Intern(RI.K));
        ExtReads.push_back({T, RI.Writer, S});
      }
    }
  Reads = groupByKey(ReadIds, ExtReads, numKeys(), ReadBegin);

  // Each key's writers split into one slot per writing session.
  std::vector<uint32_t> WriterBegin;
  std::vector<SessionWriter> ByKey =
      groupByKey(WriteIds, Writes, numKeys(), WriterBegin);
  Writers.reserve(ByKey.size());
  SlotBegin.assign(1, 0);
  for (size_t Id = 0; Id < numKeys(); ++Id) {
    for (uint32_t At = WriterBegin[Id]; At < WriterBegin[Id + 1]; ++At) {
      if (At == WriterBegin[Id] || ByKey[At].S != ByKey[At - 1].S)
        Slots.push_back({ByKey[At].S, At, At});
      ++Slots.back().End;
      Writers.push_back(ByKey[At].E);
    }
    SlotBegin.push_back(static_cast<uint32_t>(Slots.size()));
  }
}

std::vector<uint32_t>
detail::CcKeyIndex::splitByWork(size_t Parts) const {
  auto Work = [&](uint32_t Id) {
    return static_cast<uint64_t>(ReadBegin[Id + 1] - ReadBegin[Id]) *
           (SlotBegin[Id + 1] - SlotBegin[Id]);
  };
  uint32_t NumKeys = static_cast<uint32_t>(numKeys());
  uint64_t Total = 0;
  for (uint32_t Id = 0; Id < NumKeys; ++Id)
    Total += Work(Id);
  std::vector<uint32_t> Bounds(1, 0);
  uint64_t Done = 0;
  uint32_t Id = 0;
  for (size_t Part = 1; Part < Parts; ++Part) {
    // Close the range once it reaches its share of the total work.
    uint64_t Target = Total * Part / Parts;
    while (Id < NumKeys && Done < Target)
      Done += Work(Id++);
    Bounds.push_back(Id);
  }
  Bounds.push_back(NumKeys);
  return Bounds;
}

/// Fills the exclusive happens-before clock rows, processing committed
/// transactions in the topological order \p Order of so ∪ wr (Algorithm 3,
/// lines 22-25). Inclusive(t')[s'] differs from row(t') only at
/// t'.Session, where it is 1 + SoIndex(t').
void awdit::fillHappensBefore(const History &H,
                              const std::vector<uint32_t> &Order,
                              HappensBefore &HB) {
  size_t K = H.numSessions();
  HB.NumSessions = K;
  HB.Rows.assign(H.numTxns() * K, 0);
  for (uint32_t T : Order) {
    const Transaction &Txn = H.txn(T);
    if (!Txn.Committed)
      continue;
    uint32_t *Row = &HB.Rows[static_cast<size_t>(T) * K];
    SessionId S = Txn.Session;
    if (Txn.SoIndex > 0) {
      TxnId Pred = H.sessionTxns(S)[Txn.SoIndex - 1];
      const uint32_t *PredRow = &HB.Rows[static_cast<size_t>(Pred) * K];
      for (size_t I = 0; I < K; ++I)
        Row[I] = PredRow[I];
      Row[S] = Txn.SoIndex; // = SoIndex(Pred) + 1.
    }
    for (TxnId Writer : Txn.ReadFroms) {
      const Transaction &W = H.txn(Writer);
      const uint32_t *WRow = &HB.Rows[static_cast<size_t>(Writer) * K];
      for (size_t I = 0; I < K; ++I)
        Row[I] = std::max(Row[I], WRow[I]);
      Row[W.Session] = std::max(Row[W.Session], W.SoIndex + 1);
    }
  }
}

bool awdit::computeHappensBefore(const History &H, HappensBefore &HB) {
  CommitGraph Base(H);
  std::optional<std::vector<uint32_t>> Order =
      topologicalSort(Base.graph());
  if (!Order)
    return false;
  fillHappensBefore(H, *Order, HB);
  return true;
}

bool awdit::checkCc(const History &H, std::vector<Violation> &Out,
                    size_t MaxWitnesses, SaturationStats *Stats,
                    ThreadPool *Pool) {
  // Line 2: Read Consistency.
  if (!checkReadConsistency(H, Out, Pool))
    return false;

  // Line 4 first: co' <- so ∪ wr; its graph doubles as the input of
  // ComputeHB (lines 3, 18-21) before any inferred edge is added.
  CommitGraph Co(H);
  std::vector<std::vector<uint64_t>> Inferred;
  {
    std::optional<std::vector<uint32_t>> Order = topologicalSort(Co.graph());
    if (!Order) {
      // so ∪ wr cycle: fails every level; no saturation, no stats.
      Co.checkAcyclic(Out, MaxWitnesses);
      return false;
    }
    HappensBefore HB;
    fillHappensBefore(H, *Order, HB);

    // Lines 5-15: the per-key monotone scan kernel over contiguous key-id
    // ranges of one shared index, each range into its own edge buffer.
    // Keys are independent: all cross-key coupling goes through the
    // read-only HB matrix. On a pool, ranges carry about equal kernel
    // work, four per worker so a hot key does not leave the others idle.
    detail::CcKeyIndex Index(H);
    std::vector<uint32_t> Bounds =
        Index.splitByWork(Pool ? 4 * Pool->numThreads() : 1);
    Inferred = collectChunks<uint64_t>(
        Pool, Bounds.size() - 1, 1,
        [&](size_t Begin, size_t End, std::vector<uint64_t> &Buf) {
          detail::CcScratch Scratch;
          for (size_t Range = Begin; Range < End; ++Range)
            detail::saturateCcKeys(Index, HB, Bounds[Range], Bounds[Range + 1],
                                   Scratch, detail::appendPacked(Buf));
        });
  } // HB and the index are freed before the acyclicity pass allocates.
  for (std::vector<uint64_t> &Buf : Inferred)
    Co.adoptInferred(std::move(Buf));

  if (Stats) {
    Stats->InferredEdges = Co.numInferredEdges();
    Stats->GraphEdges = Co.numEdges();
  }

  // Line 16: cycle check.
  return Co.checkAcyclic(Out, MaxWitnesses);
}
