//===- checker/check_ra_single_session.cpp - Linear RA, k=1 ----------------===//

#include "checker/check_ra_single_session.h"

#include "checker/read_consistency.h"
#include "support/assert.h"
#include "support/flat_map.h"

using namespace awdit;

bool awdit::isSingleSession(const History &H) {
  size_t NonEmpty = 0;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    if (!H.sessionTxns(S).empty())
      ++NonEmpty;
  return NonEmpty <= 1;
}

bool awdit::checkRaSingleSession(const History &H,
                                 std::vector<Violation> &Out) {
  AWDIT_ASSERT(isSingleSession(H), "fast path requires a single session");
  size_t Before = Out.size();
  if (!checkReadConsistency(H, Out))
    return false;

  const std::vector<TxnId> *Session = nullptr;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    if (!H.sessionTxns(S).empty())
      Session = &H.sessionTxns(S);
  if (!Session)
    return true; // No committed transactions at all.

  // co must equal so. Scan in so order, keeping the latest writer per key;
  // every external read must observe exactly that writer (Theorem 1.6).
  FlatMap<TxnId> LatestWriter(H.numKeys());
  for (TxnId T3 : *Session) {
    const Transaction &T = H.txn(T3);
    for (uint32_t ReadIdx : T.ExtReads) {
      const ReadInfo &RI = T.Reads[ReadIdx];
      const TxnId *Latest = LatestWriter.find(RI.K);
      // Reading a transaction that is not so-before t3 at all (or reading
      // "ahead" of the session) shows up as a missing/mismatched entry.
      if (!Latest || *Latest != RI.Writer) {
        Violation V;
        V.Kind = ViolationKind::CommitOrderCycle;
        V.T = T3;
        V.OpIndex = RI.OpIndex;
        V.Other = RI.Writer;
        if (Latest) {
          // Witness: t2 co'-> t1 is forced, but t1 so-> t2.
          V.Cycle.push_back({*Latest, RI.Writer, EdgeKind::Inferred});
          V.Cycle.push_back({RI.Writer, *Latest, EdgeKind::So});
        }
        Out.push_back(std::move(V));
      }
    }
    for (Key X : T.WriteKeys)
      LatestWriter[X] = T3;
  }
  return Out.size() == Before;
}
