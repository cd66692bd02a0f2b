//===- checker/saturation_impl.h - Shared saturation kernels -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The co'-saturation loop bodies of Algorithms 1, 2 and 3, shared by the
/// one-shot checkers (checkRc/checkRa/checkCc, inline or one unit of work
/// per pool chunk) and the streaming Monitor's saturation engine: the
/// *same* kernels run over transaction ranges / single sessions / key-id
/// ranges / the live window and merely swap the edge sink (a unit's
/// packed-edge buffer, or the monitor's refcounted edge set).
/// Implementation-detail header: include only from checker code.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_CHECKER_SATURATION_IMPL_H
#define AWDIT_CHECKER_SATURATION_IMPL_H

#include "checker/check_cc.h"
#include "checker/commit_graph.h"
#include "history/history.h"
#include "support/flat_map.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace awdit::detail {

/// An edge sink for the kernels below: appends each inferred edge, packed
/// (CommitGraph::packEdge), to \p Buf.
inline auto appendPacked(std::vector<uint64_t> &Buf) {
  return [&Buf](TxnId From, TxnId To) {
    Buf.push_back(CommitGraph::packEdge(From, To));
  };
}

/// Packed edges in runs (appendRuns).
using EdgeRuns = std::vector<std::vector<uint64_t>>;

/// The edge sink of the one-shot checkers, whose edges go to
/// CommitGraph::adoptInferred: packed edges appended to \p Runs, a new run
/// started whenever the last one is full, each run twice the capacity of
/// the one before up to 64Ki edges. Unlike one doubling buffer, nothing is
/// copied and every page is touched once: a doubling buffer allocates and
/// touches about twice its final size.
inline auto appendRuns(EdgeRuns &Runs) {
  return [&Runs](TxnId From, TxnId To) {
    if (Runs.empty() || Runs.back().size() == Runs.back().capacity()) {
      size_t Cap = size_t(1) << 10;
      if (!Runs.empty())
        Cap = std::min(2 * Runs.back().capacity(), size_t(1) << 16);
      Runs.emplace_back();
      Runs.back().reserve(Cap);
    }
    Runs.back().push_back(CommitGraph::packEdge(From, To));
  };
}

/// The two-slot stack of earliest future writers per key (Algorithm 1,
/// earliestWts). Slot Top is the most recently pushed (po-earliest below
/// the scan point) distinct writer; Second the one pushed before it.
struct TwoSlot {
  TxnId Second = NoTxn;
  TxnId Top = NoTxn;
};

/// Reusable scratch of the RC kernel, hoisted so one instance serves a whole
/// transaction range without per-transaction allocation churn.
struct RcScratch {
  FlatSet ReadTxns;
  std::vector<bool> IsFirstRead;
  /// The keys read below the scan point, each with its earliestWts stack.
  FlatMap<TwoSlot> EarliestWts;
};

/// Algorithm 1 lines 4-21 for the committed transactions in [Begin, End):
/// per-transaction reverse po scans inferring co' edges into \p Infer
/// (called as Infer(From, To)). Transactions are independent, so any
/// partition of [0, numTxns) yields the same edge multiset up to order.
template <typename Sink>
void saturateRcRange(const History &H, TxnId Begin, TxnId End,
                     RcScratch &Scratch, Sink &&Infer) {
  for (TxnId T3 = Begin; T3 < End; ++T3) {
    const Transaction &T = H.txn(T3);
    if (!T.Committed)
      continue;
    const std::vector<uint32_t> &Ext = T.ExtReads;
    // The axiom needs two po-ordered external reads; nothing to infer
    // otherwise.
    if (Ext.size() < 2)
      continue;

    // Lines 5-10: mark the po-first read of each distinct writer t2.
    Scratch.ReadTxns.clear();
    Scratch.IsFirstRead.assign(Ext.size(), false);
    for (size_t I = 0; I < Ext.size(); ++I)
      Scratch.IsFirstRead[I] =
          Scratch.ReadTxns.insert(T.Reads[Ext[I]].Writer).second;

    // Lines 11-21: reverse po scan with the two-slot earliest-writers
    // stack of every key read below the scan point.
    Scratch.EarliestWts.clear();
    for (size_t I = Ext.size(); I-- > 0;) {
      const ReadInfo &RI = T.Reads[Ext[I]];
      Key Y = RI.K;
      TxnId T2 = RI.Writer;

      if (Scratch.IsFirstRead[I]) {
        const Transaction &Writer = H.txn(T2);
        // Lines 15-18: iterate the smaller of KeysWt(t2) and readKeys,
        // picking per key the earliest future writer distinct from t2.
        auto Process = [&](const TwoSlot &Slot) {
          TxnId T1 = Slot.Top;
          if (T1 == T2)
            T1 = Slot.Second;
          if (T1 != NoTxn)
            Infer(T2, T1);
        };
        if (Writer.WriteKeys.size() <= Scratch.EarliestWts.size()) {
          for (Key X : Writer.WriteKeys)
            if (const TwoSlot *Slot = Scratch.EarliestWts.find(X))
              Process(*Slot);
        } else {
          Scratch.EarliestWts.forEach([&](Key X, const TwoSlot &Slot) {
            if (Writer.writesKey(X))
              Process(Slot);
          });
        }
      }

      // Lines 19-21: push t2 onto the per-key stack (distinct writers
      // only), which also records the key as read below the scan point.
      TwoSlot &Slot = Scratch.EarliestWts[Y];
      if (Slot.Top != T2) {
        Slot.Second = Slot.Top;
        Slot.Top = T2;
      }
    }
  }
}

/// Reusable scratch of the RA kernel.
struct RaScratch {
  /// Distinct externally-read keys of the current transaction, in po order
  /// of first read, and their (unique, by repeatable reads) writer.
  FlatMap<TxnId> ExtKeyWriter;
  /// lastWrite[x]: the so-latest transaction of the current session so far
  /// that writes x (Algorithm 2, line 6). Cleared per session.
  FlatMap<TxnId> LastWrite;
};

/// Algorithm 2 lines 5-18 for the so positions [\p BeginSo, \p EndSo) of
/// one session. The caller owns the lifetime of \p Scratch: LastWrite is
/// NOT cleared here, so consecutive calls over adjacent ranges of the same
/// session (with the same scratch) are equivalent to one whole-session
/// pass. This is what lets the streaming Monitor extend a session's
/// saturation as new transactions commit instead of re-scanning the
/// session.
template <typename Sink>
void saturateRaSessionRange(const History &H, SessionId S, size_t BeginSo,
                            size_t EndSo, RaScratch &Scratch, Sink &&Infer) {
  const std::vector<TxnId> &Sess = H.sessionTxns(S);
  for (size_t Pos = BeginSo; Pos < EndSo; ++Pos) {
    TxnId T3 = Sess[Pos];
    const Transaction &T = H.txn(T3);

    // Collect the distinct external read keys of t3 once.
    Scratch.ExtKeyWriter.clear();
    for (uint32_t ReadIdx : T.ExtReads) {
      const ReadInfo &RI = T.Reads[ReadIdx];
      Scratch.ExtKeyWriter.insert(RI.K, RI.Writer);
    }

    // Lines 8-11: the so case. For each external read key x, the last
    // writer of x so-before t3 must be co-before the read's writer t1.
    Scratch.ExtKeyWriter.forEach([&](Key X, TxnId T1) {
      const TxnId *Last = Scratch.LastWrite.find(X);
      if (Last && *Last != T1)
        Infer(*Last, T1);
    });

    // Lines 12-16: the wr case. For each wr predecessor t2, intersect
    // KeysWt(t2) with KeysRd(t3), iterating over the smaller set.
    for (TxnId T2 : T.ReadFroms) {
      const Transaction &Writer = H.txn(T2);
      auto Process = [&](TxnId T1) {
        if (T1 != T2)
          Infer(T2, T1);
      };
      if (Writer.WriteKeys.size() <= Scratch.ExtKeyWriter.size()) {
        for (Key X : Writer.WriteKeys) {
          if (const TxnId *T1 = Scratch.ExtKeyWriter.find(X))
            Process(*T1);
        }
      } else {
        Scratch.ExtKeyWriter.forEach([&](Key X, TxnId T1) {
          if (Writer.writesKey(X))
            Process(T1);
        });
      }
    }

    // Lines 17-18: record t3 as the session's latest writer of its keys.
    for (Key X : T.WriteKeys)
      Scratch.LastWrite[X] = T3;
  }
}

/// Algorithm 2 lines 5-18 for one whole session. Sessions are independent,
/// so checkRa on a pool runs one call per session.
template <typename Sink>
void saturateRaSession(const History &H, SessionId S, RaScratch &Scratch,
                       Sink &&Infer) {
  Scratch.LastWrite.clear();
  saturateRaSessionRange(H, S, 0, H.sessionTxns(S).size(), Scratch,
                         std::forward<Sink>(Infer));
}

/// A writer entry of the CC writer indexes: transaction id plus its cached
/// session position so the frontier scans stay on contiguous memory.
struct CcWriterEntry {
  TxnId T;
  uint32_t SoIndex;
};

/// Algorithm 3 lines 9-15, binary-search form: the so-latest writer of the
/// key in one session strictly under the reader's happens-before
/// \p Frontier, or NoTxn when the session has no writer below it. The
/// streaming engine's per-reader re-runs use this instead of the batch
/// kernel's monotone pointers (a re-run visits readers out of so order, so
/// the pointers cannot stay monotone); the inference is identical. Pure
/// over the (so-sorted) \p List.
inline TxnId ccFrontierWriter(std::span<const CcWriterEntry> List,
                              uint32_t Frontier) {
  auto It = std::lower_bound(
      List.begin(), List.end(), Frontier,
      [](const CcWriterEntry &E, uint32_t F) { return E.SoIndex < F; });
  if (It == List.begin())
    return NoTxn;
  return std::prev(It)->T;
}

/// The writers of one key in one session (Algorithm 3, Writes_s'[x]): the
/// run [Begin, End) of CcKeyIndex::Writers.
struct CcWriterSlot {
  SessionId Session;
  uint32_t Begin;
  uint32_t End;
};

/// One external read of a key, t1 wr_x-> t3: the reader t3, the writer t1
/// it observes, and t3's session.
struct CcKeyRead {
  TxnId Reader;
  TxnId Writer;
  SessionId Session;
};

/// The per-key input of Algorithm 3 lines 5-15 as flat CSR arrays over
/// dense key ids, built by counting sort with no node hashing. Every key a
/// committed transaction writes gets one id, in order of first occurrence
/// along (session, so). Key Id owns the writer slots [SlotBegin[Id],
/// SlotBegin[Id + 1]), ascending by session, each a so-ordered run of
/// Writers, and the external reads [ReadBegin[Id], ReadBegin[Id + 1]) in
/// (session, so, po) order: the order the kernel scans them in.
struct CcKeyIndex {
  explicit CcKeyIndex(const History &H);

  size_t numKeys() const { return KeyOf.size(); }

  /// Cuts [0, numKeys()) into \p Parts contiguous key-id ranges of about
  /// equal kernel work, a key's reads times its writer slots. Returns the
  /// Parts + 1 ascending bounds; a range may be empty when one key
  /// outweighs a share.
  std::vector<uint32_t> splitByWork(size_t Parts) const;

  /// Dense id -> key.
  std::vector<Key> KeyOf;
  std::vector<uint32_t> SlotBegin;
  std::vector<CcWriterSlot> Slots;
  /// Every key's writers, grouped by key, then session, then so.
  std::vector<CcWriterEntry> Writers;
  std::vector<uint32_t> ReadBegin;
  std::vector<CcKeyRead> Reads;
};

/// Reusable scratch of the CC kernel: the scan state of each writer slot
/// of the key being scanned, and the key's emitted-pair set.
struct CcScratch {
  struct SlotScan {
    SessionId Session;
    uint32_t Begin;
    uint32_t End;
    /// One past the slot's last writer under the current frontier;
    /// monotone within one reading session.
    uint32_t Cursor;
    /// The last (cursor, t1) pair handled, packed. It names one (t2, t1)
    /// edge, so a repeat skips the writer load and the set probe.
    uint64_t LastEmit;
  };
  std::vector<SlotScan> Slots;
  /// The exact per-key dedupe of the emitted (t2, t1) pairs, packed.
  FlatSet Emitted;
};

/// Algorithm 3 lines 5-15 for the key ids [\p KeyBegin, \p KeyEnd) of
/// \p Index: per key, the monotone last-writer scans under the
/// happens-before frontier \p HB, emitting each inferred co' edge (t2, t1)
/// into \p Infer once per key. The scan cursors are monotone along so
/// within one reading session and reset when the next session's reads
/// begin (the paper keeps them per session of t3). Keys are independent,
/// so any partition of the key ids yields the same edges.
template <typename Sink>
void saturateCcKeys(const CcKeyIndex &Index, const HappensBefore &HB,
                    uint32_t KeyBegin, uint32_t KeyEnd, CcScratch &Scratch,
                    Sink &&Infer) {
  // Reads ahead whose clock rows are fetched while the current one scans:
  // a key's readers are scattered over the HB matrix.
  constexpr size_t PrefetchAhead = 4;
  size_t K = HB.NumSessions;
  for (uint32_t Id = KeyBegin; Id < KeyEnd; ++Id) {
    const CcKeyRead *Read = Index.Reads.data() + Index.ReadBegin[Id];
    const CcKeyRead *ReadEnd = Index.Reads.data() + Index.ReadBegin[Id + 1];
    if (Read == ReadEnd || Index.SlotBegin[Id] == Index.SlotBegin[Id + 1])
      continue;
    Scratch.Slots.clear();
    for (uint32_t Slot = Index.SlotBegin[Id]; Slot < Index.SlotBegin[Id + 1];
         ++Slot) {
      const CcWriterSlot &WS = Index.Slots[Slot];
      Scratch.Slots.push_back(
          {WS.Session, WS.Begin, WS.End, WS.Begin, ~uint64_t(0)});
    }
    SessionId Current = Read->Session;
    for (; Read != ReadEnd; ++Read) {
      if (ReadEnd - Read > static_cast<ptrdiff_t>(PrefetchAhead)) {
        const uint32_t *Next =
            &HB.Rows[static_cast<size_t>(Read[PrefetchAhead].Reader) * K];
        for (size_t S = 0; S < K; S += 64 / sizeof(uint32_t))
          __builtin_prefetch(Next + S);
      }
      if (Read->Session != Current) {
        Current = Read->Session;
        for (CcScratch::SlotScan &Scan : Scratch.Slots)
          Scan.Cursor = Scan.Begin;
      }
      const uint32_t *Row = &HB.Rows[static_cast<size_t>(Read->Reader) * K];
      TxnId T1 = Read->Writer;
      // Lines 9-15: advance each writing session's last-writer cursor
      // under the happens-before frontier of t3 and emit the edge.
      for (CcScratch::SlotScan &Scan : Scratch.Slots) {
        uint32_t Frontier = Row[Scan.Session];
        uint32_t C = Scan.Cursor;
        while (C < Scan.End && Index.Writers[C].SoIndex < Frontier)
          ++C;
        Scan.Cursor = C;
        if (C == Scan.Begin)
          continue;
        uint64_t Emit = (static_cast<uint64_t>(C) << 32) | T1;
        if (Scan.LastEmit == Emit)
          continue;
        Scan.LastEmit = Emit;
        TxnId T2 = Index.Writers[C - 1].T;
        if (T2 != T1 &&
            Scratch.Emitted.insert(CommitGraph::packEdge(T2, T1)).second)
          Infer(T2, T1);
      }
    }
    Scratch.Emitted.clear();
  }
}

/// Algorithm 3 lines 5-15 over every key of \p H: builds the key index and
/// runs the kernel once, for callers that want the whole edge set of one
/// pass. checkCc runs saturateCcKeys over key-id ranges of its index.
template <typename Sink>
void saturateCc(const History &H, const HappensBefore &HB, Sink &&Infer) {
  CcKeyIndex Index(H);
  CcScratch Scratch;
  saturateCcKeys(Index, HB, 0, static_cast<uint32_t>(Index.numKeys()),
                 Scratch, Infer);
}

} // namespace awdit::detail

#endif // AWDIT_CHECKER_SATURATION_IMPL_H
