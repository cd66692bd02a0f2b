//===- server/protocol.h - Multi-tenant server line protocol -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line protocol of `awdit serve`: a strict superset of the native
/// stream format (io/stream_parser.h). Every line a client sends is either
/// a *session-control verb* (first token is an upper-case keyword) or a
/// *stream line* forwarded verbatim to the session's format parser — the
/// native directives (`b`/`r`/`w`/`c`/`a`/`t`), Plume CSV rows, or DBCop
/// blocks, chosen by the HELLO `format=` option.
///
/// Control verbs:
///
///   HELLO <stream-id> <rc|ra|cc> [k=v ...]   open/attach/resume a session
///       checker options: interval=N window=N window-edges=N window-age=T
///                force-abort=T witnesses=N format=native|plume|dbcop
///       connection options (not part of the compatibility fingerprint):
///                token=S mux=on inbox-bytes=N outq-bytes=N window-bytes=N
///   STATS                                    one-line JSON session stats
///   STATS deep                               adds latency percentiles and
///                                            flush-phase breakdowns
///   DETACH                                   detach; the session stays live
///   END                                      stream complete: finalize,
///                                            report, remove the session
///   TRACE on|off|dump                        control span recording; dump
///                                            writes Chrome-trace JSON into
///                                            the server's --trace-dir
///   SHUTDOWN                                 drain the whole server
///
/// Server replies (always one line):
///
///   OK <stream-id> new|resumed|attached offset=<bytes> line=<n>
///   OK detached <stream-id>
///   OK shutting-down
///   STATS {json}
///   VIOLATION {json}            pushed asynchronously while checking
///   FINAL {json}                the end-of-stream summary (after END, and
///                               as a courtesy snapshot during drain)
///   BYE                         the server is closing this connection
///   DRAINING <stream-id> offset=<bytes>   sent at SIGTERM drain; the
///                               session was checkpointed at this offset
///   ERR quota <details>         a typed resource-quota rejection
///   ERR auth <details>          a typed authentication rejection
///   ERR <message>
///
/// Stream ids are client-chosen strings (no whitespace); they name the
/// session's checkpoint store (checker/checkpoint.h sanitizer) and its
/// JSON-lines sink, and tag every pushed violation.
///
/// Mux framing (`HELLO ... mux=on`): one connection carries many streams.
/// Inbound, a line `@<stream> <payload>` routes <payload> to that stream
/// and makes it current; `@<stream>` alone just switches; a bare line goes
/// to the current stream; a payload that itself starts with '@' is sent as
/// a bare line with the '@' doubled (`@@...` unescapes to `@...`).
/// Outbound, every reply and push for a mux stream is prefixed with
/// `@<stream> `; replies never need escaping (no reply verb starts
/// with '@'). See docs/PROTOCOL.md for the full reference.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_SERVER_PROTOCOL_H
#define AWDIT_SERVER_PROTOCOL_H

#include "checker/monitor.h"

#include <map>
#include <string>
#include <string_view>

namespace awdit {
namespace server {

/// The session-control verbs. None means "not a control line": forward the
/// line to the session's stream parser.
enum class Verb : uint8_t {
  None,
  Hello,
  Stats,
  Detach,
  End,
  Shutdown,
  Trace,
};

/// Classifies one line (no trailing newline). Only exact upper-case
/// keywords in the first token are verbs, so the stream formats (all of
/// which use lower-case directives, digits, or `R`/`W`/`sessions`/`txn`
/// tokens) pass through untouched.
Verb classifyLine(std::string_view Line);

/// True for the `STATS deep` form (the caller already classified the line
/// as Verb::Stats): the reply adds flush-latency percentiles and the
/// per-phase time breakdown to the counter JSON.
bool statsWantsDeep(std::string_view Line);

/// A parsed HELLO line.
struct HelloRequest {
  std::string Stream;
  IsolationLevel Level = IsolationLevel::CausalConsistency;
  std::string Format = "native";
  /// Fully resolved options (defaults applied where not given).
  MonitorOptions Options;
  /// The k=v options the client gave explicitly, as typed. Attach/resume
  /// compatibility only checks these: omitted options defer to the
  /// session's (or the checkpoint's) existing configuration.
  ///
  /// Connection-level options (token/mux/inbox-bytes/outq-bytes/
  /// window-bytes) are *not* recorded here: they describe the attachment,
  /// not the checker, so they never conflict with a checkpoint.
  std::map<std::string, std::string> Given;

  /// `mux=on`: switch the connection to multiplexed framing.
  bool Mux = false;
  /// `token=S`: the shared auth secret (empty = none given).
  std::string Token;
  /// Per-tenant quota requests (`inbox-bytes=` / `outq-bytes=` /
  /// `window-bytes=`); 0 = not given, the server default applies. The
  /// server clamps nothing: a request above its cap is an `ERR quota`.
  uint64_t InboxBytes = 0;
  uint64_t OutQueueBytes = 0;
  uint64_t WindowBytes = 0;
};

/// Parses a HELLO line. Returns false with \p Err set on a malformed line.
bool parseHello(std::string_view Line, HelloRequest &Req, std::string *Err);

/// The value of option \p Key ("format", "interval", "window", ...) in
/// \p Format + \p Options, rendered the way a client would type it — the
/// compatibility checks compare against this.
std::string optionValue(const std::string &Format,
                        const MonitorOptions &Options,
                        const std::string &Key);

/// Checks every explicitly-given HELLO option against an existing
/// configuration (a live session's, or a checkpoint's). Returns false with
/// \p Err naming the first conflicting option.
bool checkCompatible(const HelloRequest &Req, const std::string &Format,
                     const MonitorOptions &Options, std::string *Err);

//===----------------------------------------------------------------------===//
// Mux framing helpers (shared by the server, the loadgen client, and the
// unit tests so both sides of the escape round-trip stay in one place).
//===----------------------------------------------------------------------===//

/// True when \p Line is a mux frame — starts with '@' but is not the
/// '@@' payload escape.
inline bool isMuxFrame(std::string_view Line) {
  return !Line.empty() && Line[0] == '@' &&
         !(Line.size() >= 2 && Line[1] == '@');
}

/// Splits a mux frame `@<stream>[ <payload>]`. \p HasPayload
/// distinguishes `@s` (switch only) from `@s ` (empty payload). Returns
/// false when the stream name is empty.
bool splitMuxFrame(std::string_view Line, std::string_view &Stream,
                   std::string_view &Payload, bool &HasPayload);

/// Client side: renders \p Payload so it survives mux framing as a bare
/// (current-stream) line — a payload starting with '@' gets the '@'
/// doubled, everything else is returned untouched.
std::string escapeMuxPayload(std::string_view Payload);

/// Server side: undoes escapeMuxPayload on a bare line (strips one '@'
/// from a leading "@@"). The inverse only matters for escaped lines;
/// ordinary lines pass through.
std::string_view unescapeMuxPayload(std::string_view Line);

/// Renders one explicitly-routed frame: `@<stream> <payload>`.
std::string muxFrame(std::string_view Stream, std::string_view Payload);

} // namespace server
} // namespace awdit

#endif // AWDIT_SERVER_PROTOCOL_H
