//===- io/dbcop_format.cpp - DBCop-style block history format ----------------===//

#include "io/dbcop_format.h"

#include <sstream>

using namespace awdit;

std::string awdit::writeDbcopHistory(const History &H) {
  std::ostringstream Out;
  Out << "sessions " << H.numSessions() << "\n";
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    Out << "txn " << T.Session << " " << (T.Committed ? 1 : 0) << " "
        << T.Ops.size() << "\n";
    for (const Operation &Op : T.Ops)
      Out << (Op.isRead() ? "R " : "W ") << Op.K << " " << Op.V << "\n";
  }
  return Out.str();
}
