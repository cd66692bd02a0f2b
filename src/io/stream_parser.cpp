//===- io/stream_parser.cpp - Streaming history-format parsers -------------===//

#include "io/stream_parser.h"

#include "io/token_util.h"

using namespace awdit;
using awdit::io::CsvCursor;
using awdit::io::parseInt;
using awdit::io::TokenCursor;

//===----------------------------------------------------------------------===//
// Context-free line decoders: tokenization and integer parsing, the
// per-byte cost of ingestion, safe on any thread.
//===----------------------------------------------------------------------===//

namespace {

LineEvent malformed(std::string Msg) {
  LineEvent E;
  E.Kind = LineEvent::Type::Malformed;
  E.Error = std::move(Msg);
  return E;
}

} // namespace

LineEvent awdit::decodeNativeLine(std::string_view Line) {
  LineEvent E;
  TokenCursor C(Line);
  std::string_view Dir = C.next();
  if (Dir.empty() || Dir.front() == '#')
    return E; // Blank

  if (Dir.size() == 1) {
    switch (Dir.front()) {
    case 'b':
      // A malformed session keeps the Begin kind: the machine's open-
      // transaction check takes precedence.
      E.Kind = LineEvent::Type::Begin;
      if (!C.nextInt(E.Session) || !C.atEnd())
        E.Error = "expected 'b <session>'";
      return E;
    case 'r':
    case 'w':
      E.Kind = Dir.front() == 'r' ? LineEvent::Type::ReadOp
                                  : LineEvent::Type::WriteOp;
      if (!C.nextInt(E.K) || !C.nextInt(E.V) || !C.atEnd())
        E.Error = "expected '<r|w> <key> <value>'";
      return E;
    case 'c':
    case 'a':
      E.Kind = Dir.front() == 'c' ? LineEvent::Type::Commit
                                  : LineEvent::Type::Abort;
      return E;
    case 't':
      // Streaming-only clock directive: advances the monitor's stream time
      // (age-based eviction, force-abort of hung transactions).
      E.Kind = LineEvent::Type::Clock;
      if (!C.nextInt(E.Num) || !C.atEnd())
        E.Error = "expected 't <ticks>'";
      return E;
    }
  }
  return malformed("unknown directive '" + std::string(Dir) + "'");
}

LineEvent awdit::decodePlumeLine(std::string_view Line) {
  LineEvent E;
  if (Line.empty() || Line.front() == '#')
    return E; // Blank

  CsvCursor C(Line);
  std::string_view Op;
  if (!C.nextInt(E.Session) || !C.nextInt(E.Num) || !C.next(Op))
    return malformed("expected '<session>,<txn>,...'");
  if (Op == "abort") {
    E.Kind = LineEvent::Type::PlumeAbort;
    return E;
  }
  // The (session, txn) prefix parsed: the machine closes the previous pair
  // and opens this one before a malformed operation fails.
  E.Kind = LineEvent::Type::PlumeOp;
  if (!C.nextInt(E.K) || !C.nextInt(E.V) || !C.atEnd() ||
      (Op != "r" && Op != "w")) {
    E.Error = "expected '<session>,<txn>,<r|w>,<key>,<value>'";
    return E;
  }
  E.Flag = Op == "r";
  return E;
}

LineEvent awdit::decodeDbcopLine(std::string_view Line) {
  LineEvent E;
  TokenCursor C(Line);
  std::string_view Dir = C.next();
  if (Dir.empty() || Dir.front() == '#')
    return E; // Blank

  if (Dir == "sessions") {
    E.Kind = LineEvent::Type::DbcopHeader;
    if (!C.nextInt(E.Num) || !C.atEnd())
      E.Error = "expected a single 'sessions <k>' header";
    return E;
  }
  if (Dir == "txn") {
    E.Kind = LineEvent::Type::DbcopTxn;
    int DoesCommit = 0;
    if (!C.nextInt(E.Session) || !C.nextInt(DoesCommit) ||
        !C.nextInt(E.Num) || (DoesCommit != 0 && DoesCommit != 1) ||
        !C.atEnd())
      E.Error = "expected 'txn <session> <0|1> <numops>'";
    E.Flag = DoesCommit == 1;
    return E;
  }
  if (Dir == "R" || Dir == "W") {
    E.Kind = Dir == "R" ? LineEvent::Type::ReadOp : LineEvent::Type::WriteOp;
    if (!C.nextInt(E.K) || !C.nextInt(E.V) || !C.atEnd())
      E.Error = "expected '<R|W> <key> <value>'";
    return E;
  }
  return malformed("unknown directive '" + std::string(Dir) + "'");
}

LineDecoder awdit::lineDecoderFor(const std::string &Format) {
  if (Format == "native")
    return decodeNativeLine;
  if (Format == "plume")
    return decodePlumeLine;
  if (Format == "dbcop")
    return decodeDbcopLine;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Stream machines: the stateful, single-threaded half.
//===----------------------------------------------------------------------===//

namespace {

bool failMsg(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

/// Native text format machine.
class NativeMachine final : public StreamMachine {
public:
  explicit NativeMachine(Monitor &M) : M(M) {}

  bool apply(const LineEvent &E, std::string *Err) override {
    switch (E.Kind) {
    case LineEvent::Type::Blank:
      return true;
    case LineEvent::Type::Begin:
      if (HasOpen)
        return failMsg(Err, "previous transaction still open");
      if (!E.Error.empty())
        return failMsg(Err, E.Error);
      while (NumSessions <= E.Session) {
        M.addSession();
        ++NumSessions;
      }
      Open = M.beginTxn(E.Session);
      HasOpen = true;
      return true;
    case LineEvent::Type::ReadOp:
    case LineEvent::Type::WriteOp:
      if (!HasOpen)
        return failMsg(Err, "operation outside a transaction");
      if (!E.Error.empty())
        return failMsg(Err, E.Error);
      if (E.Kind == LineEvent::Type::ReadOp) {
        M.read(Open, E.K, E.V);
        return true;
      }
      if (!M.write(Open, E.K, E.V))
        return failMsg(Err, M.errorText());
      return true;
    case LineEvent::Type::Commit:
    case LineEvent::Type::Abort:
      if (!HasOpen)
        return failMsg(Err, "no open transaction to close");
      if (E.Kind == LineEvent::Type::Abort) {
        M.abortTxn(Open);
      } else {
        M.commit(Open);
        ++Committed;
      }
      HasOpen = false;
      return true;
    case LineEvent::Type::Clock:
      if (!E.Error.empty())
        return failMsg(Err, E.Error);
      M.advanceTime(E.Num);
      return true;
    case LineEvent::Type::Malformed:
      return failMsg(Err, E.Error);
    default:
      return failMsg(Err, "unexpected event for the native format");
    }
  }

  bool atEnd(std::string *Err) override {
    if (HasOpen)
      return failMsg(Err, "unterminated transaction at end of input");
    return true;
  }

  bool hasOpenTxn() const override { return HasOpen; }
  uint64_t committedTxns() const override { return Committed; }

  void saveState(ByteWriter &W) const override {
    W.u64(NumSessions);
    W.boolean(HasOpen);
    W.u32(Open);
    W.u64(Committed);
  }

  bool loadState(ByteReader &R) override {
    NumSessions = R.u64();
    HasOpen = R.boolean();
    Open = R.u32();
    Committed = R.u64();
    return R.ok();
  }

private:
  Monitor &M;
  size_t NumSessions = 0;
  bool HasOpen = false;
  TxnId Open = NoTxn;
  uint64_t Committed = 0;
};

/// Plume-style CSV machine. Plume has no explicit commit marker: a pair is
/// closed (committing unless an abort line was seen) when the next
/// (session, txn) pair starts or the stream ends, so the stream is never
/// "inside" a transaction from the caller's point of view.
class PlumeMachine final : public StreamMachine {
public:
  explicit PlumeMachine(Monitor &M) : M(M) {}

  bool apply(const LineEvent &E, std::string *Err) override {
    switch (E.Kind) {
    case LineEvent::Type::Blank:
      return true;
    case LineEvent::Type::PlumeAbort:
      ensureOpen(E);
      // Deferred until the pair ends: operations that follow an abort
      // line for the same (session, txn) pair still belong to the aborted
      // transaction.
      OpenAborted = true;
      return true;
    case LineEvent::Type::PlumeOp:
      ensureOpen(E);
      if (!E.Error.empty())
        return failMsg(Err, E.Error);
      if (E.Flag) {
        M.read(Open, E.K, E.V);
        return true;
      }
      if (!M.write(Open, E.K, E.V))
        return failMsg(Err, M.errorText());
      return true;
    case LineEvent::Type::Malformed:
      return failMsg(Err, E.Error);
    default:
      return failMsg(Err, "unexpected event for the plume format");
    }
  }

  bool atEnd(std::string *Err) override {
    (void)Err;
    closeOpen();
    return true;
  }

  bool hasOpenTxn() const override { return false; }
  uint64_t committedTxns() const override { return Committed; }

  void saveState(ByteWriter &W) const override {
    W.u64(NumSessions);
    W.boolean(HasOpen);
    W.boolean(OpenAborted);
    W.u32(OpenSession);
    W.u64(OpenFileTxn);
    W.u32(Open);
    W.u64(Committed);
  }

  bool loadState(ByteReader &R) override {
    NumSessions = R.u64();
    HasOpen = R.boolean();
    OpenAborted = R.boolean();
    OpenSession = R.u32();
    OpenFileTxn = R.u64();
    Open = R.u32();
    Committed = R.u64();
    return R.ok();
  }

private:
  void closeOpen() {
    if (!HasOpen)
      return;
    if (OpenAborted) {
      M.abortTxn(Open);
    } else {
      M.commit(Open);
      ++Committed;
    }
    HasOpen = false;
    OpenAborted = false;
  }

  /// Closes the previous pair and opens (E.Session, E.Num) if it is a new
  /// pair: Plume logs carry no commit marker.
  void ensureOpen(const LineEvent &E) {
    while (NumSessions <= E.Session) {
      M.addSession();
      ++NumSessions;
    }
    if (HasOpen && OpenSession == E.Session && OpenFileTxn == E.Num)
      return;
    closeOpen();
    Open = M.beginTxn(E.Session);
    HasOpen = true;
    OpenSession = E.Session;
    OpenFileTxn = E.Num;
  }

  Monitor &M;
  size_t NumSessions = 0;
  bool HasOpen = false;
  bool OpenAborted = false;
  SessionId OpenSession = 0;
  uint64_t OpenFileTxn = 0;
  TxnId Open = NoTxn;
  uint64_t Committed = 0;
};

/// DBCop-style block format machine. The commit decision is declared up
/// front, so a block closes the moment its last operation arrives.
class DbcopMachine final : public StreamMachine {
public:
  explicit DbcopMachine(Monitor &M) : M(M) {}

  bool apply(const LineEvent &E, std::string *Err) override {
    switch (E.Kind) {
    case LineEvent::Type::Blank:
      return true;
    case LineEvent::Type::DbcopHeader:
      if (SeenHeader || !E.Error.empty())
        return failMsg(Err, "expected a single 'sessions <k>' header");
      DeclaredSessions = E.Num;
      for (uint64_t I = 0; I < DeclaredSessions; ++I)
        M.addSession();
      SeenHeader = true;
      return true;
    case LineEvent::Type::DbcopTxn:
      if (!SeenHeader)
        return failMsg(Err, "missing 'sessions <k>' header");
      if (OpsLeft != 0)
        return failMsg(Err, "previous transaction is missing operations");
      if (!E.Error.empty() || E.Session >= DeclaredSessions)
        return failMsg(Err, "expected 'txn <session> <0|1> <numops>'");
      Open = M.beginTxn(E.Session);
      OpenCommits = E.Flag;
      OpsLeft = E.Num;
      if (OpsLeft == 0)
        closeBlock(); // an empty block closes immediately
      return true;
    case LineEvent::Type::ReadOp:
    case LineEvent::Type::WriteOp:
      if (!SeenHeader)
        return failMsg(Err, "missing 'sessions <k>' header");
      if (Open == NoTxn || OpsLeft == 0)
        return failMsg(Err, "operation outside a transaction block");
      if (!E.Error.empty())
        return failMsg(Err, E.Error);
      if (E.Kind == LineEvent::Type::ReadOp) {
        M.read(Open, E.K, E.V);
      } else if (!M.write(Open, E.K, E.V)) {
        return failMsg(Err, M.errorText());
      }
      if (--OpsLeft == 0)
        closeBlock(); // the commit decision was declared up front
      return true;
    case LineEvent::Type::Malformed:
      if (!SeenHeader)
        return failMsg(Err, "missing 'sessions <k>' header");
      return failMsg(Err, E.Error);
    default:
      return failMsg(Err, "unexpected event for the dbcop format");
    }
  }

  bool atEnd(std::string *Err) override {
    if (OpsLeft != 0)
      return failMsg(Err, "unexpected end of input inside a transaction");
    return true;
  }

  bool hasOpenTxn() const override { return OpsLeft != 0; }
  uint64_t committedTxns() const override { return Committed; }

  void saveState(ByteWriter &W) const override {
    W.boolean(SeenHeader);
    W.u64(DeclaredSessions);
    W.u32(Open);
    W.boolean(OpenCommits);
    W.u64(OpsLeft);
    W.u64(Committed);
  }

  bool loadState(ByteReader &R) override {
    SeenHeader = R.boolean();
    DeclaredSessions = R.u64();
    Open = R.u32();
    OpenCommits = R.boolean();
    OpsLeft = R.u64();
    Committed = R.u64();
    return R.ok();
  }

private:
  void closeBlock() {
    if (OpenCommits) {
      M.commit(Open);
      ++Committed;
    } else {
      M.abortTxn(Open);
    }
    Open = NoTxn;
  }

  Monitor &M;
  bool SeenHeader = false;
  uint64_t DeclaredSessions = 0;
  TxnId Open = NoTxn;
  bool OpenCommits = false;
  size_t OpsLeft = 0;
  uint64_t Committed = 0;
};

} // namespace

std::unique_ptr<StreamMachine>
awdit::makeStreamMachine(const std::string &Format, Monitor &M) {
  if (Format == "native")
    return std::make_unique<NativeMachine>(M);
  if (Format == "plume")
    return std::make_unique<PlumeMachine>(M);
  if (Format == "dbcop")
    return std::make_unique<DbcopMachine>(M);
  return nullptr;
}
