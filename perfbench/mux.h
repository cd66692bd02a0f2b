//===- perfbench/mux.h - Client side of the serve mux framing -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark's serve client writes and reads on a multiplexed
/// connection (docs/PROTOCOL.md, "Mux framing"), built on the helpers in
/// server/protocol.h so both sides share one escape rule: a chunk of a
/// tenant's stream is a switch line `@<stream>` followed by its lines as
/// bare lines, and every reply for a mux stream arrives as
/// `@<stream> <VERB> ...`.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_PERFBENCH_MUX_H
#define AWDIT_PERFBENCH_MUX_H

#include "server/protocol.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace awdit::perfbench {

/// Appends the frames that deliver \p Lines (whole '\n'-terminated lines)
/// to \p Stream: a switch line, then each line bare, escaped when it
/// starts with '@'.
inline void appendMuxChunk(std::string &Out, std::string_view Stream,
                           std::string_view Lines) {
  Out += '@';
  Out += Stream;
  Out += '\n';
  bool NeedsEscape = (!Lines.empty() && Lines[0] == '@') ||
                     Lines.find("\n@") != std::string_view::npos;
  if (!NeedsEscape) {
    Out += Lines;
    return;
  }
  while (!Lines.empty()) {
    size_t Eol = Lines.find('\n');
    std::string_view Line = Lines.substr(0, Eol);
    Out += server::escapeMuxPayload(Line);
    Out += '\n';
    Lines = Eol == std::string_view::npos ? std::string_view()
                                          : Lines.substr(Eol + 1);
  }
}

/// One server line, split into the stream it is tagged with (empty for a
/// connection-scoped line), its verb and the rest.
struct Reply {
  std::string Stream;
  std::string Verb;
  std::string Rest;
};

inline Reply parseReply(std::string_view Line) {
  Reply R;
  if (server::isMuxFrame(Line)) {
    std::string_view Stream, Payload;
    bool HasPayload = false;
    if (server::splitMuxFrame(Line, Stream, Payload, HasPayload)) {
      R.Stream = std::string(Stream);
      Line = Payload;
    }
  }
  size_t Sp = Line.find(' ');
  R.Verb = std::string(Line.substr(0, Sp));
  if (Sp != std::string_view::npos)
    R.Rest = std::string(Line.substr(Sp + 1));
  return R;
}

/// The value of integer field \p Key in a flat JSON object such as a FINAL
/// summary, or \p Def when absent.
inline uint64_t jsonUint(std::string_view Json, std::string_view Key,
                         uint64_t Def = 0) {
  std::string Needle = "\"" + std::string(Key) + "\":";
  size_t At = Json.find(Needle);
  if (At == std::string_view::npos)
    return Def;
  uint64_t V = 0;
  bool Any = false;
  for (size_t I = At + Needle.size();
       I < Json.size() && Json[I] >= '0' && Json[I] <= '9'; ++I) {
    V = V * 10 + static_cast<uint64_t>(Json[I] - '0');
    Any = true;
  }
  return Any ? V : Def;
}

/// True when flat JSON \p Json has `"<Key>":true`.
inline bool jsonTrue(std::string_view Json, std::string_view Key) {
  std::string Needle = "\"" + std::string(Key) + "\":true";
  return Json.find(Needle) != std::string_view::npos;
}

} // namespace awdit::perfbench

#endif // AWDIT_PERFBENCH_MUX_H
