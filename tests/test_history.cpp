//===- tests/test_history.cpp - History model tests ---------------------------===//

#include "history/history_builder.h"
#include "history/history_stats.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

using namespace awdit;
using namespace awdit::test;

TEST(HistoryBuilder, EmptyHistory) {
  HistoryBuilder B;
  std::optional<History> H = B.build();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->numTxns(), 0u);
  EXPECT_EQ(H->numOps(), 0u);
  EXPECT_EQ(H->numSessions(), 0u);
}

TEST(HistoryBuilder, ResolvesExternalWr) {
  History H = makeHistory({
      {0, {W(1, 10)}},
      {1, {R(1, 10)}},
  });
  const Transaction &Reader = H.txn(1);
  ASSERT_EQ(Reader.Reads.size(), 1u);
  EXPECT_EQ(Reader.Reads[0].Writer, 0u);
  EXPECT_EQ(Reader.Reads[0].WriterOp, 0u);
  ASSERT_EQ(Reader.ExtReads.size(), 1u);
  ASSERT_EQ(Reader.ReadFroms.size(), 1u);
  EXPECT_EQ(Reader.ReadFroms[0], 0u);
}

TEST(HistoryBuilder, InternalReadIsNotExternal) {
  History H = makeHistory({
      {0, {W(1, 10), R(1, 10)}},
  });
  const Transaction &T = H.txn(0);
  ASSERT_EQ(T.Reads.size(), 1u);
  EXPECT_EQ(T.Reads[0].Writer, 0u);
  EXPECT_TRUE(T.ExtReads.empty());
  EXPECT_TRUE(T.ReadFroms.empty());
}

TEST(HistoryBuilder, ThinAirReadUnresolved) {
  History H = makeHistory({
      {0, {R(1, 99)}},
  });
  EXPECT_EQ(H.txn(0).Reads[0].Writer, NoTxn);
  EXPECT_TRUE(H.txn(0).ExtReads.empty());
}

TEST(HistoryBuilder, DuplicateWriteRejected) {
  HistoryBuilder B;
  SessionId S = B.addSession();
  TxnId T1 = B.beginTxn(S);
  B.write(T1, 1, 10);
  TxnId T2 = B.beginTxn(S);
  B.write(T2, 1, 10);
  std::string Err;
  EXPECT_FALSE(B.build(&Err).has_value());
  EXPECT_NE(Err.find("duplicate"), std::string::npos);
}

TEST(HistoryBuilder, AbortedTxnLeavesSessionOrder) {
  History H = makeHistory({
      {0, {W(1, 10)}},
      {0, {W(2, 20)}, /*Abort=*/true},
      {0, {W(3, 30)}},
  });
  EXPECT_EQ(H.numCommitted(), 2u);
  ASSERT_EQ(H.sessionTxns(0).size(), 2u);
  EXPECT_EQ(H.sessionTxns(0)[0], 0u);
  EXPECT_EQ(H.sessionTxns(0)[1], 2u);
  EXPECT_EQ(H.soSuccessor(0), 2u);
  EXPECT_EQ(H.soSuccessor(2), NoTxn);
}

TEST(HistoryBuilder, ReadFromAbortedIsNotExternal) {
  History H = makeHistory({
      {0, {W(1, 10)}, /*Abort=*/true},
      {1, {R(1, 10)}},
  });
  const Transaction &Reader = H.txn(1);
  EXPECT_EQ(Reader.Reads[0].Writer, 0u);
  // Aborted writers do not produce txn-level wr edges.
  EXPECT_TRUE(Reader.ExtReads.empty());
}

TEST(HistoryBuilder, WriteKeysSortedAndDeduped) {
  History H = makeHistory({
      {0, {W(5, 1), W(3, 2), W(5, 3), W(9, 4)}},
  });
  const Transaction &T = H.txn(0);
  ASSERT_EQ(T.WriteKeys.size(), 3u);
  EXPECT_EQ(T.WriteKeys[0], 3u);
  EXPECT_EQ(T.WriteKeys[1], 5u);
  EXPECT_EQ(T.WriteKeys[2], 9u);
  EXPECT_TRUE(T.writesKey(5));
  EXPECT_FALSE(T.writesKey(4));
}

TEST(HistoryBuilder, MarksOverwrittenWrites) {
  History H = makeHistory({
      {0, {W(5, 1), R(5, 1), W(3, 2), W(5, 3), W(9, 4), W(3, 5)}},
  });
  const Transaction &T = H.txn(0);
  std::vector<bool> Overwritten;
  for (const Operation &Op : T.Ops)
    Overwritten.push_back(Op.Overwritten);
  EXPECT_EQ(Overwritten,
            (std::vector<bool>{true, false, true, false, false, false}));
  EXPECT_EQ(T.WriteKeys, (std::vector<Key>{3, 5, 9}));
  EXPECT_TRUE(T.isFinalWrite(3, 5));
  EXPECT_TRUE(T.isFinalWrite(5, 3));
  EXPECT_FALSE(T.isFinalWrite(0, 5)); // overwritten by op 3
  EXPECT_FALSE(T.isFinalWrite(1, 5)); // a read
  EXPECT_FALSE(T.isFinalWrite(4, 3)); // a write of another key
  EXPECT_FALSE(T.isFinalWrite(NoOp, 3));
  EXPECT_EQ(T.writeKeySlot(9), 2u);
  EXPECT_EQ(T.writeKeySlot(4), NoOp);
}

TEST(HistoryBuilder, ImplicitInitialStateCreatesInitTxn) {
  HistoryBuilder B;
  SessionId S = B.addSession();
  TxnId T = B.beginTxn(S);
  B.read(T, 7, 0);
  B.setImplicitInitialState(true);
  std::optional<History> H = B.build();
  ASSERT_TRUE(H);
  // A synthetic init txn was appended in a fresh session.
  EXPECT_EQ(H->numTxns(), 2u);
  EXPECT_EQ(H->numSessions(), 2u);
  const Transaction &Reader = H->txn(0);
  EXPECT_EQ(Reader.Reads[0].Writer, 1u);
  EXPECT_TRUE(H->txn(1).writesKey(7));
}

TEST(HistoryBuilder, NoInitTxnWhenDisabled) {
  HistoryBuilder B;
  SessionId S = B.addSession();
  TxnId T = B.beginTxn(S);
  B.read(T, 7, 0);
  std::optional<History> H = B.build();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->numTxns(), 1u);
  EXPECT_EQ(H->txn(0).Reads[0].Writer, NoTxn);
}

TEST(HistoryBuilder, InitTxnNotDuplicatedForExplicitZeroWrite) {
  HistoryBuilder B;
  SessionId S = B.addSession();
  TxnId T0 = B.beginTxn(S);
  B.write(T0, 7, 0);
  TxnId T1 = B.beginTxn(S);
  B.read(T1, 7, 0);
  B.setImplicitInitialState(true);
  std::optional<History> H = B.build();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->numTxns(), 2u); // No synthetic init.
  EXPECT_EQ(H->txn(1).Reads[0].Writer, 0u);
}

TEST(HistoryBuilder, ReadFromsDedupedInFirstReadOrder) {
  History H = makeHistory({
      {0, {W(1, 10), W(2, 20)}},
      {1, {W(3, 30)}},
      {2, {R(3, 30), R(1, 10), R(2, 20)}},
  });
  const Transaction &Reader = H.txn(2);
  ASSERT_EQ(Reader.ReadFroms.size(), 2u);
  EXPECT_EQ(Reader.ReadFroms[0], 1u);
  EXPECT_EQ(Reader.ReadFroms[1], 0u);
  EXPECT_EQ(Reader.ExtReads.size(), 3u);
}

TEST(History, SizeCountsAbortedOps) {
  History H = makeHistory({
      {0, {W(1, 10), W(2, 20)}},
      {0, {W(3, 30)}, /*Abort=*/true},
  });
  EXPECT_EQ(H.numOps(), 3u);
  EXPECT_EQ(H.numKeys(), 3u);
}

TEST(History, TxnLabelFormat) {
  History H = makeHistory({
      {0, {W(1, 10)}},
      {0, {W(2, 20)}, /*Abort=*/true},
  });
  EXPECT_EQ(H.txnLabel(0), "t0(s0#0)");
  EXPECT_NE(H.txnLabel(1).find("aborted"), std::string::npos);
}

TEST(HistoryStats, ComputesShape) {
  History H = makeHistory({
      {0, {W(1, 10), R(1, 10)}},
      {1, {R(1, 10), W(2, 20), W(3, 30)}},
      {1, {W(4, 40)}, /*Abort=*/true},
  });
  HistoryStats S = computeStats(H);
  EXPECT_EQ(S.NumOps, 6u);
  EXPECT_EQ(S.NumTxns, 3u);
  EXPECT_EQ(S.NumCommitted, 2u);
  EXPECT_EQ(S.NumAborted, 1u);
  EXPECT_EQ(S.NumSessions, 2u);
  EXPECT_EQ(S.NumReads, 2u);
  EXPECT_EQ(S.NumWrites, 4u);
  EXPECT_EQ(S.NumExternalReads, 1u);
  EXPECT_EQ(S.MaxTxnSize, 3u);
  EXPECT_FALSE(S.toString().empty());
}
