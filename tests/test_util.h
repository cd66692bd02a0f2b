//===- tests/test_util.h - Shared test helpers --------------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#ifndef AWDIT_TESTS_TEST_UTIL_H
#define AWDIT_TESTS_TEST_UTIL_H

#include "checker/checker.h"
#include "history/history_builder.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace awdit::test {

/// Compact transaction spec for hand-written histories.
struct TxnSpec {
  SessionId S;
  std::vector<Operation> Ops;
  bool Abort = false;
};

/// Builds a history from transaction specs; sessions are created up to the
/// maximum session id used. Fails the test on invalid specs.
inline History makeHistory(std::initializer_list<TxnSpec> Specs) {
  HistoryBuilder B;
  SessionId MaxSession = 0;
  for (const TxnSpec &T : Specs)
    MaxSession = std::max(MaxSession, T.S);
  for (SessionId S = 0; S <= MaxSession; ++S)
    B.addSession();
  for (const TxnSpec &T : Specs) {
    TxnId Id = B.beginTxn(T.S);
    for (const Operation &Op : T.Ops)
      B.append(Id, Op);
    if (T.Abort)
      B.abortTxn(Id);
  }
  std::string Err;
  std::optional<History> H = B.build(&Err);
  EXPECT_TRUE(H.has_value()) << "history build failed: " << Err;
  return H ? std::move(*H) : History();
}

/// Shorthand operation constructors.
inline Operation R(Key K, Value V) { return Operation::read(K, V); }
inline Operation W(Key K, Value V) { return Operation::write(K, V); }

/// Checks consistency with the AWDIT facade.
inline bool consistent(const History &H, IsolationLevel Level) {
  return checkIsolation(H, Level).Consistent;
}

/// Field-by-field History equality: sessions, and every transaction's
/// status, operations and derived read/write indexes.
inline void expectSameHistory(const History &A, const History &B,
                              const std::string &Context = "") {
  ASSERT_EQ(A.numTxns(), B.numTxns()) << Context;
  ASSERT_EQ(A.numSessions(), B.numSessions()) << Context;
  EXPECT_EQ(A.numOps(), B.numOps()) << Context;
  EXPECT_EQ(A.numCommitted(), B.numCommitted()) << Context;
  EXPECT_EQ(A.numKeys(), B.numKeys()) << Context;
  for (SessionId S = 0; S < A.numSessions(); ++S)
    EXPECT_EQ(A.sessionTxns(S), B.sessionTxns(S)) << Context;
  for (TxnId Id = 0; Id < A.numTxns(); ++Id) {
    const Transaction &X = A.txn(Id), &Y = B.txn(Id);
    std::string At = Context + " txn " + std::to_string(Id);
    EXPECT_EQ(X.Session, Y.Session) << At;
    EXPECT_EQ(X.SoIndex, Y.SoIndex) << At;
    EXPECT_EQ(X.Committed, Y.Committed) << At;
    ASSERT_EQ(X.Ops.size(), Y.Ops.size()) << At;
    for (size_t O = 0; O < X.Ops.size(); ++O)
      EXPECT_TRUE(X.Ops[O] == Y.Ops[O]) << At << " op " << O;
    ASSERT_EQ(X.Reads.size(), Y.Reads.size()) << At;
    for (size_t I = 0; I < X.Reads.size(); ++I) {
      EXPECT_EQ(X.Reads[I].OpIndex, Y.Reads[I].OpIndex) << At;
      EXPECT_EQ(X.Reads[I].K, Y.Reads[I].K) << At;
      EXPECT_EQ(X.Reads[I].V, Y.Reads[I].V) << At;
      EXPECT_EQ(X.Reads[I].Writer, Y.Reads[I].Writer) << At;
      EXPECT_EQ(X.Reads[I].WriterOp, Y.Reads[I].WriterOp) << At;
    }
    EXPECT_EQ(X.ExtReads, Y.ExtReads) << At;
    EXPECT_EQ(X.WriteKeys, Y.WriteKeys) << At;
    EXPECT_EQ(X.ReadFroms, Y.ReadFroms) << At;
  }
}

/// Returns true if any violation of \p Kind was reported.
inline bool hasViolation(const CheckReport &Report, ViolationKind Kind) {
  for (const Violation &V : Report.Violations)
    if (V.Kind == Kind)
      return true;
  return false;
}

} // namespace awdit::test

#endif // AWDIT_TESTS_TEST_UTIL_H
