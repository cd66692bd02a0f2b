//===- tests/test_read_consistency.cpp - Algorithm 4 tests --------------------===//
//
// The five Read Consistency axioms of Fig. 2, each with violating and
// conforming histories, plus a differential battery: seeded random
// histories with large transactions and injected read-level anomalies,
// checked against a deliberately naive reference.
//
//===----------------------------------------------------------------------===//

#include "checker/check_ra.h"
#include "checker/read_consistency.h"
#include "support/rng.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

using namespace awdit;
using namespace awdit::test;

namespace {

std::vector<Violation> check(const History &H) {
  std::vector<Violation> Out;
  checkReadConsistency(H, Out);
  return Out;
}

bool has(const std::vector<Violation> &Vs, ViolationKind Kind) {
  for (const Violation &V : Vs)
    if (V.Kind == Kind)
      return true;
  return false;
}

} // namespace

TEST(ReadConsistency, CleanHistoryPasses) {
  History H = makeHistory({
      {0, {W(1, 10), W(2, 20)}},
      {1, {R(1, 10), R(2, 20)}},
  });
  EXPECT_TRUE(check(H).empty());
}

TEST(ReadConsistency, ThinAirRead) {
  History H = makeHistory({
      {0, {R(1, 99)}},
  });
  std::vector<Violation> Vs = check(H);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::ThinAirRead);
  EXPECT_EQ(Vs[0].T, 0u);
}

TEST(ReadConsistency, AbortedRead) {
  History H = makeHistory({
      {0, {W(1, 10)}, /*Abort=*/true},
      {1, {R(1, 10)}},
  });
  std::vector<Violation> Vs = check(H);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::AbortedRead);
  EXPECT_EQ(Vs[0].Other, 0u);
}

TEST(ReadConsistency, ReadsInsideAbortedTxnIgnored) {
  // Axioms quantify over committed reads only.
  History H = makeHistory({
      {0, {R(1, 99)}, /*Abort=*/true},
  });
  EXPECT_TRUE(check(H).empty());
}

TEST(ReadConsistency, FutureRead) {
  History H = makeHistory({
      {0, {R(1, 10), W(1, 10)}},
  });
  std::vector<Violation> Vs = check(H);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::FutureRead);
}

TEST(ReadConsistency, ObserveOwnWritesViolation) {
  // Fig. 2d: t writes x, then reads x from another transaction.
  History H = makeHistory({
      {0, {W(1, 10)}},
      {1, {W(1, 20), R(1, 10)}},
  });
  std::vector<Violation> Vs = check(H);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::NotOwnWrite);
}

TEST(ReadConsistency, ReadBeforeOwnWriteIsExternalAndFine) {
  // Reading x externally *before* writing x is allowed.
  History H = makeHistory({
      {0, {W(1, 10)}},
      {1, {R(1, 10), W(1, 20)}},
  });
  EXPECT_TRUE(check(H).empty());
}

TEST(ReadConsistency, StaleOwnWrite) {
  // Fig. 2e within one transaction: the read observes an own write that
  // has been overwritten.
  History H = makeHistory({
      {0, {W(1, 10), W(1, 20), R(1, 10)}},
  });
  std::vector<Violation> Vs = check(H);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::NotLatestWriteSameTxn);
}

TEST(ReadConsistency, LatestOwnWritePasses) {
  History H = makeHistory({
      {0, {W(1, 10), W(1, 20), R(1, 20)}},
  });
  EXPECT_TRUE(check(H).empty());
}

TEST(ReadConsistency, NonFinalWriteOfOtherTxn) {
  // Fig. 2e across transactions: only a transaction's final write per key
  // is observable.
  History H = makeHistory({
      {0, {W(1, 10), W(1, 20)}},
      {1, {R(1, 10)}},
  });
  std::vector<Violation> Vs = check(H);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Kind, ViolationKind::NotLatestWriteOtherTxn);
}

TEST(ReadConsistency, FinalWriteOfOtherTxnPasses) {
  History H = makeHistory({
      {0, {W(1, 10), W(1, 20)}},
      {1, {R(1, 20)}},
  });
  EXPECT_TRUE(check(H).empty());
}

TEST(ReadConsistency, ReportsAllFailingReadsIndependently) {
  // §3.4: every failing read is reported, not just the first.
  History H = makeHistory({
      {0, {R(1, 91), R(2, 92), R(3, 93)}},
  });
  EXPECT_EQ(check(H).size(), 3u);
}

TEST(ReadConsistency, MixedViolationsClassified) {
  History H = makeHistory({
      {0, {W(1, 10)}, /*Abort=*/true},
      {1, {R(1, 10), R(2, 99), W(3, 30), R(3, 30)}},
      {2, {W(4, 40), W(4, 41)}},
      {3, {R(4, 40)}},
  });
  std::vector<Violation> Vs = check(H);
  EXPECT_TRUE(has(Vs, ViolationKind::AbortedRead));
  EXPECT_TRUE(has(Vs, ViolationKind::ThinAirRead));
  EXPECT_TRUE(has(Vs, ViolationKind::NotLatestWriteOtherTxn));
  EXPECT_EQ(Vs.size(), 3u);
}

TEST(ReadConsistency, RereadOfOwnLatestAfterInterleavedKeyPasses) {
  History H = makeHistory({
      {0, {W(1, 10), W(2, 20), R(1, 10), W(1, 11), R(1, 11), R(2, 20)}},
  });
  EXPECT_TRUE(check(H).empty());
}

//===----------------------------------------------------------------------===//
// Differential battery against a naive reference.
//===----------------------------------------------------------------------===//

namespace {

/// Shape of the generated histories.
constexpr Key NumKeys = 2400;
/// Keys the large writer (transaction 0) writes once...
constexpr Key LargeKeys = 2200;
/// ...and, for the first ReWritten of them, a second time: reads of the
/// first write of those keys observe a non-final write.
constexpr Key ReWritten = 200;
constexpr size_t NumTxns = 400;
constexpr SessionId NumSessions = 8;

/// A seeded random history exercising every read-level axiom.
/// Transaction 0 writes LargeKeys + ReWritten times and many later
/// transactions read from it. About one transaction in ten has 50-80 ops.
/// Each op of the others is a write, or a read of: the large writer (final
/// or non-final write), an earlier committed write (final or not), an own
/// write (latest or stale), a po-later own write, a value an aborted
/// transaction wrote, a value nobody wrote, another transaction's value of
/// a key the reader already wrote, or another value of a key it already
/// read.
History randomReadLevelHistory(uint64_t Seed) {
  Rng R(Seed);
  HistoryBuilder B;
  for (SessionId S = 0; S < NumSessions; ++S)
    B.addSession();
  std::vector<Value> NextValue(NumKeys, 1);
  using Write = std::pair<Key, Value>;
  std::vector<Write> BigWrites, CommittedWrites, AbortedWrites;
  std::vector<std::vector<Value>> CommittedValues(NumKeys);
  auto Commit = [&](const std::vector<Write> &Ws) {
    for (const Write &W : Ws) {
      CommittedWrites.push_back(W);
      CommittedValues[W.first].push_back(W.second);
    }
  };

  TxnId Big = B.beginTxn(0);
  for (Key K = 0; K < LargeKeys + ReWritten; ++K) {
    Key X = K % LargeKeys;
    BigWrites.emplace_back(X, NextValue[X]++);
    B.write(Big, X, BigWrites.back().second);
  }
  Commit(BigWrites);

  Value ThinAir = -1;
  for (size_t I = 1; I < NumTxns; ++I) {
    TxnId T = B.beginTxn(static_cast<SessionId>(R.nextBelow(NumSessions)));
    size_t Len = R.nextBool(0.1) ? R.nextInRange(50, 80) : R.nextInRange(1, 10);
    std::vector<Write> Own, Later, ReadsSoFar;
    auto Read = [&](Key K, Value V) {
      B.read(T, K, V);
      ReadsSoFar.emplace_back(K, V);
    };
    auto Pick = [&](const std::vector<Write> &Ws) {
      return Ws[R.nextBelow(Ws.size())];
    };
    auto ReadOneOf = [&](const std::vector<Write> &Ws) {
      if (!Ws.empty()) {
        Write W = Pick(Ws);
        Read(W.first, W.second);
      }
    };
    // A value of K some earlier committed transaction wrote, if any.
    auto ReadCommitted = [&](Key K) {
      const std::vector<Value> &Vs = CommittedValues[K];
      if (!Vs.empty())
        Read(K, Vs[R.nextBelow(Vs.size())]);
    };
    for (size_t Op = 0; Op < Len; ++Op) {
      switch (R.nextBelow(12)) {
      case 0:
      case 1: {
        // Writes concentrate on the re-written keys so own-write and
        // overwritten-write reads find matches.
        Key K = R.nextBool(0.5) ? R.nextBelow(ReWritten) : R.nextBelow(NumKeys);
        Own.emplace_back(K, NextValue[K]++);
        B.write(T, K, Own.back().second);
        break;
      }
      case 2:
      case 3:
        ReadOneOf(BigWrites);
        break;
      case 4:
        ReadOneOf(CommittedWrites);
        break;
      case 5: // Latest or stale own write.
        ReadOneOf(Own);
        break;
      case 6: { // Future read: the write comes later in the transaction.
        Key K = R.nextBelow(NumKeys);
        Later.emplace_back(K, NextValue[K]++);
        Read(K, Later.back().second);
        break;
      }
      case 7:
        ReadOneOf(AbortedWrites);
        break;
      case 8:
        Read(R.nextBelow(NumKeys), ThinAir--);
        break;
      case 9:
        if (!Own.empty()) // Not own write: another txn's value.
          ReadCommitted(Pick(Own).first);
        break;
      default:
        if (!ReadsSoFar.empty()) // Re-read, maybe from another writer.
          ReadCommitted(Pick(ReadsSoFar).first);
        break;
      }
    }
    for (const Write &W : Later) {
      B.write(T, W.first, W.second);
      Own.push_back(W);
    }
    if (R.nextBool(0.1)) {
      B.abortTxn(T);
      AbortedWrites.insert(AbortedWrites.end(), Own.begin(), Own.end());
    } else {
      Commit(Own);
    }
  }
  std::string Err;
  std::optional<History> H = B.build(&Err);
  EXPECT_TRUE(H.has_value()) << Err;
  return H ? std::move(*H) : History();
}

/// Write site of every (key, value), from the raw ops: the reference
/// resolves reads itself instead of trusting the derived ReadInfo.
using WriteSites = std::map<std::pair<Key, Value>, std::pair<TxnId, uint32_t>>;

WriteSites indexWrites(const History &H) {
  WriteSites Sites;
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const std::vector<Operation> &Ops = H.txn(Id).Ops;
    for (uint32_t J = 0; J < Ops.size(); ++J)
      if (Ops[J].isWrite())
        Sites[{Ops[J].K, Ops[J].V}] = {Id, J};
  }
  return Sites;
}

/// Naive Read Consistency: each axiom read off the ops with per-read
/// scans (latest own write before the read, final write of the writer).
std::vector<Violation> naiveReadConsistency(const History &H) {
  WriteSites Sites = indexWrites(H);
  std::vector<Violation> Out;
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    if (!T.Committed)
      continue;
    for (uint32_t Op = 0; Op < T.Ops.size(); ++Op) {
      const Operation &Rd = T.Ops[Op];
      if (Rd.isWrite())
        continue;
      auto Site = Sites.find({Rd.K, Rd.V});
      if (Site == Sites.end()) {
        Out.push_back({ViolationKind::ThinAirRead, Id, Op, NoTxn, {}});
        continue;
      }
      auto [Writer, WriterOp] = Site->second;
      uint32_t OwnLatest = NoOp;
      for (uint32_t J = Op; J-- > 0;)
        if (T.Ops[J].isWrite() && T.Ops[J].K == Rd.K) {
          OwnLatest = J;
          break;
        }
      if (!H.txn(Writer).Committed) {
        Out.push_back({ViolationKind::AbortedRead, Id, Op, Writer, {}});
      } else if (Writer == Id) {
        if (WriterOp > Op)
          Out.push_back({ViolationKind::FutureRead, Id, Op, Id, {}});
        else if (OwnLatest != WriterOp)
          Out.push_back(
              {ViolationKind::NotLatestWriteSameTxn, Id, Op, Id, {}});
      } else if (OwnLatest != NoOp) {
        Out.push_back({ViolationKind::NotOwnWrite, Id, Op, Writer, {}});
      } else {
        const std::vector<Operation> &WOps = H.txn(Writer).Ops;
        uint32_t Final = NoOp;
        for (uint32_t J = static_cast<uint32_t>(WOps.size()); J-- > 0;)
          if (WOps[J].isWrite() && WOps[J].K == Rd.K) {
            Final = J;
            break;
          }
        if (Final != WriterOp)
          Out.push_back(
              {ViolationKind::NotLatestWriteOtherTxn, Id, Op, Writer, {}});
      }
    }
  }
  return Out;
}

/// Naive repeatable reads: every external read must observe the writer of
/// the po-first external read of its key (a linear scan of earlier reads).
std::vector<Violation> naiveRepeatableReads(const History &H) {
  WriteSites Sites = indexWrites(H);
  std::vector<Violation> Out;
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    if (!T.Committed)
      continue;
    std::vector<std::pair<Key, TxnId>> FirstWriter;
    for (uint32_t Op = 0; Op < T.Ops.size(); ++Op) {
      const Operation &Rd = T.Ops[Op];
      auto Site = Sites.find({Rd.K, Rd.V});
      if (Rd.isWrite() || Site == Sites.end())
        continue;
      TxnId Writer = Site->second.first;
      if (Writer == Id || !H.txn(Writer).Committed)
        continue;
      auto It = FirstWriter.begin();
      while (It != FirstWriter.end() && It->first != Rd.K)
        ++It;
      if (It == FirstWriter.end())
        FirstWriter.emplace_back(Rd.K, Writer);
      else if (It->second != Writer)
        Out.push_back({ViolationKind::NonRepeatableRead, Id, Op, Writer, {}});
    }
  }
  return Out;
}

void expectSameViolations(const std::vector<Violation> &Want,
                          const std::vector<Violation> &Got,
                          const std::string &What) {
  ASSERT_EQ(Want.size(), Got.size()) << What;
  for (size_t I = 0; I < Want.size(); ++I) {
    SCOPED_TRACE(What + " #" + std::to_string(I));
    EXPECT_EQ(violationKindName(Want[I].Kind), violationKindName(Got[I].Kind));
    EXPECT_EQ(Want[I].T, Got[I].T);
    EXPECT_EQ(Want[I].OpIndex, Got[I].OpIndex);
    EXPECT_EQ(Want[I].Other, Got[I].Other);
  }
}

} // namespace

TEST(ReadConsistencyDifferential, GeneratedHistoriesHaveTheRequiredShape) {
  History H = randomReadLevelHistory(1);
  const Transaction &Big = H.txn(0);
  EXPECT_GE(Big.Ops.size(), 2000u);
  size_t Readers = 0, LongTxns = 0;
  for (TxnId Id = 1; Id < H.numTxns(); ++Id) {
    const std::vector<TxnId> &Froms = H.txn(Id).ReadFroms;
    Readers += std::find(Froms.begin(), Froms.end(), TxnId(0)) != Froms.end();
    LongTxns += H.txn(Id).Ops.size() >= 50;
  }
  EXPECT_GE(Readers, 100u);
  EXPECT_GE(LongTxns, 10u);
}

TEST(ReadConsistencyDifferential, AllFormsMatchNaiveReference) {
  std::map<ViolationKind, size_t> Kinds;
  size_t NonFinalBigReads = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    History H = randomReadLevelHistory(Seed);
    TxnId N = static_cast<TxnId>(H.numTxns());

    std::vector<Violation> Want = naiveReadConsistency(H);
    std::vector<Violation> Whole;
    EXPECT_EQ(checkReadConsistency(H, Whole), Want.empty());
    expectSameViolations(Want, Whole, "whole history");
    // The Monitor's form: one transaction per call.
    std::vector<Violation> PerTxn;
    for (TxnId L = 0; L < N; ++L)
      checkReadConsistencyRange(H, L, L + 1, PerTxn);
    expectSameViolations(Want, PerTxn, "per transaction");
    // The pool form: random ranges, concatenated in order.
    Rng Cuts(Seed * 7919);
    std::vector<Violation> Ranged;
    for (TxnId Begin = 0; Begin < N;) {
      TxnId End = std::min<TxnId>(
          N, Begin + 1 + static_cast<TxnId>(Cuts.nextBelow(64)));
      checkReadConsistencyRange(H, Begin, End, Ranged);
      Begin = End;
    }
    expectSameViolations(Want, Ranged, "random ranges");

    std::vector<Violation> WantRr = naiveRepeatableReads(H);
    std::vector<Violation> RrWhole;
    EXPECT_EQ(checkRepeatableReads(H, RrWhole), WantRr.empty());
    expectSameViolations(WantRr, RrWhole, "repeatable reads, whole");
    std::vector<Violation> RrPerTxn;
    for (TxnId L = 0; L < N; ++L)
      checkRepeatableReadsRange(H, L, L + 1, RrPerTxn);
    expectSameViolations(WantRr, RrPerTxn, "repeatable reads, per txn");

    for (const std::vector<Violation> *Vs : {&Want, &WantRr})
      for (const Violation &V : *Vs) {
        ++Kinds[V.Kind];
        NonFinalBigReads += V.Kind == ViolationKind::NotLatestWriteOtherTxn &&
                            V.Other == 0;
      }
  }
  // The battery is only as strong as what it injects.
  for (ViolationKind Kind :
       {ViolationKind::ThinAirRead, ViolationKind::AbortedRead,
        ViolationKind::FutureRead, ViolationKind::NotOwnWrite,
        ViolationKind::NotLatestWriteSameTxn,
        ViolationKind::NotLatestWriteOtherTxn,
        ViolationKind::NonRepeatableRead})
    EXPECT_GT(Kinds[Kind], 0u) << violationKindName(Kind);
  EXPECT_GT(NonFinalBigReads, 0u);
}
