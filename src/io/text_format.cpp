//===- io/text_format.cpp - Native history text format ----------------------===//

#include "io/text_format.h"

#include "io/sharded_ingest.h"

#include <fstream>
#include <sstream>

using namespace awdit;

std::optional<History> awdit::parseTextHistory(std::string_view Text,
                                               std::string *Err) {
  return parseHistory("native", Text, Err);
}

std::string awdit::writeTextHistory(const History &H) {
  std::ostringstream Out;
  Out << "# awdit history: " << H.numSessions() << " sessions, "
      << H.numTxns() << " txns, " << H.numOps() << " ops\n";
  for (TxnId Id = 0; Id < H.numTxns(); ++Id) {
    const Transaction &T = H.txn(Id);
    Out << "b " << T.Session << "\n";
    for (const Operation &Op : T.Ops)
      Out << (Op.isRead() ? "r " : "w ") << Op.K << " " << Op.V << "\n";
    Out << (T.Committed ? "c" : "a") << "\n";
  }
  return Out.str();
}

std::optional<History> awdit::loadTextHistoryFile(const std::string &Path,
                                                  std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    if (Err)
      *Err = "cannot open '" + Path + "'";
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseTextHistory(Buf.str(), Err);
}

bool awdit::saveTextHistoryFile(const History &H, const std::string &Path,
                                std::string *Err) {
  std::ofstream Out(Path);
  if (!Out) {
    if (Err)
      *Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << writeTextHistory(H);
  return static_cast<bool>(Out);
}
