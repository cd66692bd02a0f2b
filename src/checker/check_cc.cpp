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

/// The NumKeys + 1 group offsets of a stable counting sort by the key ids
/// in \p Ids: the occurrences of key Id go to [Begin[Id], Begin[Id + 1]).
std::vector<uint32_t> groupOffsets(const std::vector<uint32_t> &Ids,
                                   size_t NumKeys) {
  std::vector<uint32_t> Begin(NumKeys + 1, 0);
  for (uint32_t Id : Ids)
    ++Begin[Id + 1];
  for (size_t Id = 0; Id < NumKeys; ++Id)
    Begin[Id + 1] += Begin[Id];
  return Begin;
}

} // namespace

detail::CcKeyIndex::CcKeyIndex(const History &H) {
  // Kernel scan order is (session, so, then WriteKeys / po). A first pass
  // in that order gives every writer and external-read occurrence its key
  // id; a second scatters each occurrence straight into its key's run (a
  // stable counting sort), so only the ids are buffered. Every buffer is
  // sized up front rather than grown by doubling.
  size_t NumWrites = 0, NumReads = 0;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    for (TxnId T : H.sessionTxns(S)) {
      NumWrites += H.txn(T).WriteKeys.size();
      NumReads += H.txn(T).ExtReads.size();
    }
  std::vector<uint32_t> WriteIds, ReadIds;
  WriteIds.reserve(NumWrites);
  ReadIds.reserve(NumReads);
  KeyOf.reserve(H.numKeys());
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
      for (Key X : Txn.WriteKeys)
        WriteIds.push_back(Intern(X));
      // An external read's writer is committed and writes the key, so
      // interning here adds no key that no committed transaction writes.
      for (uint32_t ReadIdx : Txn.ExtReads)
        ReadIds.push_back(Intern(Txn.Reads[ReadIdx].K));
    }

  std::vector<uint32_t> WriterBegin = groupOffsets(WriteIds, numKeys());
  ReadBegin = groupOffsets(ReadIds, numKeys());
  std::vector<uint32_t> WriterAt(WriterBegin.begin(), WriterBegin.end() - 1);
  std::vector<uint32_t> ReadAt(ReadBegin.begin(), ReadBegin.end() - 1);
  std::vector<SessionId> WriterSession(NumWrites);
  Writers.resize(NumWrites);
  Reads.resize(NumReads);
  size_t W = 0, R = 0;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    for (TxnId T : H.sessionTxns(S)) {
      const Transaction &Txn = H.txn(T);
      for (size_t I = 0; I < Txn.WriteKeys.size(); ++I) {
        uint32_t At = WriterAt[WriteIds[W++]]++;
        Writers[At] = {T, Txn.SoIndex};
        WriterSession[At] = S;
      }
      for (uint32_t ReadIdx : Txn.ExtReads)
        Reads[ReadAt[ReadIds[R++]]++] = {T, Txn.Reads[ReadIdx].Writer, S};
    }

  // Each key's writers split into one slot per writing session.
  Slots.reserve(NumWrites); // at most one slot per writer
  SlotBegin.reserve(numKeys() + 1);
  SlotBegin.assign(1, 0);
  for (size_t Id = 0; Id < numKeys(); ++Id) {
    for (uint32_t At = WriterBegin[Id]; At < WriterBegin[Id + 1]; ++At) {
      if (At == WriterBegin[Id] || WriterSession[At] != WriterSession[At - 1])
        Slots.push_back({WriterSession[At], At, At});
      ++Slots.back().End;
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

namespace {

/// Fills the exclusive happens-before clock rows, processing committed
/// transactions in the topological order \p Order of so ∪ wr (Algorithm 3,
/// lines 22-25). Inclusive(t')[s'] differs from row(t') only at
/// t'.Session, where it is 1 + SoIndex(t').
void fillHappensBefore(const History &H, const std::vector<uint32_t> &Order,
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

} // namespace

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
  std::vector<detail::EdgeRuns> Inferred;
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
    Inferred = collectChunks<std::vector<uint64_t>>(
        Pool, Bounds.size() - 1, 1,
        [&](size_t Begin, size_t End, detail::EdgeRuns &Runs) {
          detail::CcScratch Scratch;
          for (size_t Range = Begin; Range < End; ++Range)
            detail::saturateCcKeys(Index, HB, Bounds[Range], Bounds[Range + 1],
                                   Scratch, detail::appendRuns(Runs));
        });
  } // HB and the index are freed before the acyclicity pass allocates.
  for (detail::EdgeRuns &Runs : Inferred)
    for (std::vector<uint64_t> &Run : Runs)
      Co.adoptInferred(std::move(Run));

  if (Stats) {
    Stats->InferredEdges = Co.numInferredEdges();
    Stats->GraphEdges = Co.numEdges();
  }

  // Line 16: cycle check.
  return Co.checkAcyclic(Out, MaxWitnesses);
}
