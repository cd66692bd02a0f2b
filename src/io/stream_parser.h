//===- io/stream_parser.h - Streaming history-format parsers -----*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grammars of the three history formats, the only place each one
/// lives:
///
///  - the native text format (io/text_format.h), including the streaming
///    extension `t <ticks>` that advances the monitor's stream clock for
///    the age-based eviction and force-abort policies;
///  - the Plume-style CSV format (io/plume_format.h);
///  - the DBCop-style block format (io/dbcop_format.h).
///
/// Each format is split into two halves, both driven by the ingest
/// pipeline (io/sharded_ingest.h):
///
///  - a *decoder* (decodeNativeLine & co.): a pure, context-free function
///    from one line to a LineEvent — tokenization and integer parsing,
///    the per-byte cost of ingestion.
///  - a *machine* (StreamMachine): the stateful half that applies decoded
///    events to a Monitor in stream order — open-transaction tracking,
///    session creation, commit bookkeeping. Its state serializes into
///    checkpoints (checker/checkpoint.h) so `awdit monitor --resume` can
///    restart mid-stream.
///
/// The pipeline handles chunking (partial trailing lines wait for their
/// newline), line numbers and the trailing CR of Windows-style streams.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_STREAM_PARSER_H
#define AWDIT_IO_STREAM_PARSER_H

#include "checker/monitor.h"
#include "support/serialize.h"

#include <memory>
#include <string>
#include <string_view>

namespace awdit {

/// One decoded line of a streaming history format: the context-free part
/// of parsing, produced by the per-format decoders below. A line that is
/// structurally recognizable but malformed keeps its structural kind with
/// Error set, so the machine can apply its state-dependent checks (whose
/// diagnostics take precedence) before failing.
struct LineEvent {
  enum class Type : uint8_t {
    /// Blank line or comment; ignored.
    Blank,
    /// Native `b <session>`.
    Begin,
    /// Native `r <key> <value>` / DBCop `R <key> <value>`.
    ReadOp,
    /// Native `w <key> <value>` / DBCop `W <key> <value>`.
    WriteOp,
    /// Native `c`.
    Commit,
    /// Native `a`.
    Abort,
    /// Native streaming clock directive `t <ticks>`; Num holds the ticks.
    Clock,
    /// DBCop `sessions <k>`; Num holds k.
    DbcopHeader,
    /// DBCop `txn <session> <0|1> <numops>`; Flag = commits, Num = numops.
    DbcopTxn,
    /// Plume `<session>,<txn>,<r|w>,<key>,<value>`; Num = file txn id,
    /// Flag = is-read. When only the (session, txn) prefix parsed, Error
    /// is set and K/V are meaningless — the machine still opens the pair
    /// before failing.
    PlumeOp,
    /// Plume `<session>,<txn>,abort`; Num = file txn id.
    PlumeAbort,
    /// Unrecognized or unparseable line; Error holds the message.
    Malformed,
  };

  Type Kind = Type::Blank;
  SessionId Session = 0;
  /// Overloaded numeric payload, see the Type comments.
  uint64_t Num = 0;
  Key K = 0;
  Value V = 0;
  bool Flag = false;
  /// Non-empty when the line was malformed; the message carries no line
  /// prefix (the caller adds "line N: ").
  std::string Error;
};

/// Context-free decoders: one line (no trailing newline, trailing CR
/// already stripped) to one LineEvent. Pure functions, safe on any thread.
LineEvent decodeNativeLine(std::string_view Line);
LineEvent decodePlumeLine(std::string_view Line);
LineEvent decodeDbcopLine(std::string_view Line);

using LineDecoder = LineEvent (*)(std::string_view);

/// The decoder for \p Format ("native", "plume", "dbcop"); nullptr for an
/// unknown format.
LineDecoder lineDecoderFor(const std::string &Format);

/// The stateful half of a format's grammar: applies decoded LineEvents to
/// a Monitor in stream order. Exactly one thread may call apply()/atEnd().
/// The machine's state is small (open-transaction handle, session count)
/// and serializes into checkpoints so a resumed monitor continues from the
/// exact stream position.
class StreamMachine {
public:
  virtual ~StreamMachine() = default;

  /// Applies one decoded line. Returns false and sets \p Err (without a
  /// line prefix) on a malformed line or a model-invariant violation.
  virtual bool apply(const LineEvent &E, std::string *Err) = 0;

  /// End-of-input hook: verifies the stream ended at a clean transaction
  /// boundary (native/dbcop) or closes the trailing open pair (plume).
  virtual bool atEnd(std::string *Err) = 0;

  /// True while the stream is inside a transaction (atEnd() would fail).
  virtual bool hasOpenTxn() const = 0;

  /// Committed transactions applied so far.
  virtual uint64_t committedTxns() const = 0;

  // --- Checkpoint support (checker/checkpoint.h). ---

  virtual void saveState(ByteWriter &W) const = 0;
  virtual bool loadState(ByteReader &R) = 0;
};

/// Creates the machine for \p Format driving \p M; nullptr for an unknown
/// format.
std::unique_ptr<StreamMachine> makeStreamMachine(const std::string &Format,
                                                 Monitor &M);

} // namespace awdit

#endif // AWDIT_IO_STREAM_PARSER_H
