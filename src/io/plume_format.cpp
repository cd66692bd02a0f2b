//===- io/plume_format.cpp - Plume-style CSV history format ------------------===//

#include "io/plume_format.h"

#include <sstream>

using namespace awdit;

std::string awdit::writePlumeHistory(const History &H) {
  std::ostringstream Out;
  Out << "# plume-style history: " << H.numSessions() << " sessions\n";
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    for (const Operation &Op : T.Ops)
      Out << T.Session << "," << Id << "," << (Op.isRead() ? "r" : "w")
          << "," << Op.K << "," << Op.V << "\n";
    if (!T.Committed)
      Out << T.Session << "," << Id << ",abort\n";
  }
  return Out.str();
}
