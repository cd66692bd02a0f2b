//===- server/protocol.cpp - Multi-tenant server line protocol -------------===//

#include "server/protocol.h"

#include "io/token_util.h"

using namespace awdit;
using namespace awdit::server;
using awdit::io::parseInt;
using awdit::io::TokenCursor;

Verb awdit::server::classifyLine(std::string_view Line) {
  // First token, cheaply: skip leading blanks, cut at the next blank.
  size_t Start = Line.find_first_not_of(" \t");
  if (Start == std::string_view::npos)
    return Verb::None;
  size_t End = Line.find_first_of(" \t", Start);
  std::string_view Tok = Line.substr(
      Start, End == std::string_view::npos ? Line.size() - Start
                                           : End - Start);
  if (Tok == "HELLO")
    return Verb::Hello;
  if (Tok == "STATS")
    return Verb::Stats;
  if (Tok == "DETACH")
    return Verb::Detach;
  if (Tok == "END")
    return Verb::End;
  if (Tok == "SHUTDOWN")
    return Verb::Shutdown;
  if (Tok == "TRACE")
    return Verb::Trace;
  return Verb::None;
}

bool awdit::server::statsWantsDeep(std::string_view Line) {
  TokenCursor C(Line);
  return C.next() == "STATS" && C.next() == "deep";
}

bool awdit::server::parseHello(std::string_view Line, HelloRequest &Req,
                               std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  TokenCursor C(Line);
  std::string_view Head = C.next(), Stream = C.next(), LevelTok = C.next();
  if (Head != "HELLO" || LevelTok.empty())
    return Fail("expected 'HELLO <stream-id> <rc|ra|cc> [k=v ...]'");
  Req.Stream = std::string(Stream);
  std::optional<IsolationLevel> Level = parseIsolationLevel(LevelTok);
  if (!Level)
    return Fail("unknown isolation level '" + std::string(LevelTok) +
                "' (want rc|ra|cc)");
  Req.Level = *Level;
  Req.Options = MonitorOptions();
  Req.Options.Level = *Level;
  // The `awdit monitor` CLI defaults.
  Req.Options.CheckIntervalTxns = 256;
  Req.Options.Check.MaxWitnesses = 4;

  for (std::string_view KV = C.next(); !KV.empty(); KV = C.next()) {
    size_t Eq = KV.find('=');
    if (Eq == std::string_view::npos || Eq == 0 || Eq + 1 > KV.size())
      return Fail("expected key=value, got '" + std::string(KV) + "'");
    std::string Key(KV.substr(0, Eq));
    std::string Value(KV.substr(Eq + 1));

    uint64_t Num = 0;
    bool IsNum = parseInt(std::string_view(Value), Num);
    // Connection-level options first: they never enter Given (they are
    // not part of the checker configuration a checkpoint fingerprints).
    if (Key == "mux") {
      if (Value != "on" && Value != "off")
        return Fail("mux= wants on|off, got '" + Value + "'");
      Req.Mux = Value == "on";
      continue;
    }
    if (Key == "token") {
      Req.Token = Value;
      continue;
    }
    if (Key == "inbox-bytes" || Key == "outq-bytes" ||
        Key == "window-bytes") {
      if (!IsNum || Num == 0)
        return Fail(Key + "= wants a positive byte count, got '" + Value +
                    "'");
      (Key == "inbox-bytes"
           ? Req.InboxBytes
           : Key == "outq-bytes" ? Req.OutQueueBytes : Req.WindowBytes) =
          Num;
      continue;
    }
    if (Key == "format") {
      if (Value != "native" && Value != "plume" && Value != "dbcop")
        return Fail("unknown format '" + Value + "'");
      Req.Format = Value;
    } else if (Key == "interval" && IsNum) {
      Req.Options.CheckIntervalTxns = static_cast<size_t>(Num);
    } else if (Key == "window" && IsNum) {
      Req.Options.WindowTxns = static_cast<size_t>(Num);
    } else if (Key == "window-edges" && IsNum) {
      Req.Options.WindowEdges = static_cast<size_t>(Num);
    } else if (Key == "window-age" && IsNum) {
      Req.Options.WindowAgeTicks = Num;
    } else if (Key == "force-abort" && IsNum) {
      Req.Options.ForceAbortOpenTicks = Num;
    } else if (Key == "witnesses" && IsNum) {
      Req.Options.Check.MaxWitnesses = static_cast<size_t>(Num);
    } else {
      return Fail("unknown or malformed option '" + std::string(KV) + "'");
    }
    Req.Given[Key] = Value;
  }
  return true;
}

std::string awdit::server::optionValue(const std::string &Format,
                                       const MonitorOptions &Options,
                                       const std::string &Key) {
  if (Key == "format")
    return Format;
  if (Key == "interval")
    return std::to_string(Options.CheckIntervalTxns);
  if (Key == "window")
    return std::to_string(Options.WindowTxns);
  if (Key == "window-edges")
    return std::to_string(Options.WindowEdges);
  if (Key == "window-age")
    return std::to_string(Options.WindowAgeTicks);
  if (Key == "force-abort")
    return std::to_string(Options.ForceAbortOpenTicks);
  if (Key == "witnesses")
    return std::to_string(Options.Check.MaxWitnesses);
  return {};
}

bool awdit::server::checkCompatible(const HelloRequest &Req,
                                    const std::string &Format,
                                    const MonitorOptions &Options,
                                    std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Req.Level != Options.Level)
    return Fail(std::string("stream runs at level ") +
                isolationLevelName(Options.Level) +
                ", incompatible with " + isolationLevelName(Req.Level));
  for (const auto &[Key, Value] : Req.Given) {
    std::string Existing = optionValue(Format, Options, Key);
    if (Value != Existing)
      return Fail("stream runs with " + Key + "=" + Existing +
                  ", incompatible with " + Key + "=" + Value);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Mux framing helpers
//===----------------------------------------------------------------------===//

bool awdit::server::splitMuxFrame(std::string_view Line,
                                  std::string_view &Stream,
                                  std::string_view &Payload,
                                  bool &HasPayload) {
  // Caller has classified the line with isMuxFrame(): '@' then a stream.
  std::string_view Rest = Line.substr(1);
  size_t Sp = Rest.find(' ');
  if (Sp == std::string_view::npos) {
    Stream = Rest;
    Payload = {};
    HasPayload = false;
  } else {
    Stream = Rest.substr(0, Sp);
    Payload = Rest.substr(Sp + 1);
    HasPayload = true;
  }
  return !Stream.empty();
}

std::string awdit::server::escapeMuxPayload(std::string_view Payload) {
  std::string Out;
  if (!Payload.empty() && Payload[0] == '@')
    Out += '@';
  Out += Payload;
  return Out;
}

std::string_view awdit::server::unescapeMuxPayload(std::string_view Line) {
  if (Line.size() >= 2 && Line[0] == '@' && Line[1] == '@')
    return Line.substr(1);
  return Line;
}

std::string awdit::server::muxFrame(std::string_view Stream,
                                    std::string_view Payload) {
  std::string Out = "@";
  Out += Stream;
  Out += ' ';
  Out += Payload;
  return Out;
}
