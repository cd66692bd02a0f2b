//===- io/sharded_ingest.h - The one bytes-to-Monitor pipeline ---*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one path from bytes to a Monitor. Everything that reads a history
/// goes through ShardedMonitorIngest: `check`, `batch`, `stats` and
/// `shrink` parse with parseHistory() below, `awdit monitor` feeds it from
/// a file or a pipe, and every `awdit serve` session feeds it the spans of
/// its connection's read pages. The format grammars live only in the
/// decoders and machines of io/stream_parser.h.
///
/// The pipeline runs inline on the caller's thread: each whole line is
/// decoded and applied before feed() returns, with no queue and no copy
/// beyond the one into the arena. A trailing partial line waits in the
/// arena for its newline.
///
/// Flush boundaries are the pipeline's epoch barriers: after every
/// incremental checking pass it invokes the FlushHook with a consistent
/// cut of the world (monitor state, parser-machine state, and the byte
/// offset of the last applied line). `awdit monitor` writes its
/// persistent checkpoints (checker/checkpoint.h) from this hook, so a
/// snapshot can never observe a half-applied transaction or a half-run
/// flush.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_SHARDED_INGEST_H
#define AWDIT_IO_SHARDED_INGEST_H

#include "io/stream_parser.h"
#include "support/byte_arena.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace awdit {

/// A consistent cut of the ingest state at a flush boundary, handed to the
/// FlushHook. Everything a persistent checkpoint needs: the monitor, the
/// parser-machine state, and the exact stream position (byte offset after
/// the last applied line).
struct IngestFlushPoint {
  Monitor &M;
  const StreamMachine &Machine;
  /// Bytes of the stream fully applied (resume seeks here).
  uint64_t StreamOffset;
  /// 1-based number of the last applied line.
  uint64_t LineNo;
  /// Committed transactions applied so far.
  uint64_t CommittedTxns;
  /// Monitor checking passes run so far.
  uint64_t Flushes;
};

/// Drives one Monitor from one byte stream, inline on the caller's thread.
/// The Monitor is the caller's again whenever a call returns.
class ShardedMonitorIngest {
public:
  /// How the stream ended.
  enum class EndState : uint8_t {
    /// Clean end of input at a transaction boundary.
    Clean,
    /// Input ended inside an open transaction (tail-mode truncation); the
    /// monitor's finalize() treats it as aborted.
    OpenTxn,
    /// A parse or model-invariant error; errorText() has the line-numbered
    /// message.
    Error,
  };

  using FlushHook = std::function<void(const IngestFlushPoint &)>;

  /// \p Threads must be 0 or 1: both run the one inline pipeline. \p Hook
  /// (optional) runs after every completed checking pass.
  ShardedMonitorIngest(Monitor &M, const std::string &Format,
                       unsigned Threads, FlushHook Hook = nullptr);

  ShardedMonitorIngest(const ShardedMonitorIngest &) = delete;
  ShardedMonitorIngest &operator=(const ShardedMonitorIngest &) = delete;

  /// False iff the format was unknown.
  bool valid() const { return Decode != nullptr; }

  /// The format state machine, for loading checkpointed state before the
  /// first feed() (resume) and for inspection after the stream ends.
  StreamMachine &machine() { return *Machine; }

  /// Primes the stream cursor after a checkpoint restore: the next fed
  /// byte is stream offset \p StreamOffset, the next line is
  /// \p LineNo + 1. Call before the first feed().
  void primeResume(uint64_t StreamOffset, uint64_t LineNo);

  /// Feeds one chunk (any size, any boundary) — one copy, into the arena,
  /// FeedPieceBytes at a time, applying the whole lines of each piece
  /// before the next. Returns false once the stream has failed — the
  /// caller should stop reading and call finishStream() to collect the
  /// error.
  bool feed(std::string_view Chunk);

  /// Zero-copy alternative to feed(): at least \p Min writable bytes of
  /// the current arena page, so a read(2) can land stream bytes directly
  /// where they will be decoded. Publish with commitBytes(); any other
  /// call on this object invalidates the window.
  std::pair<char *, size_t> writeWindow(size_t Min = 1) {
    return Writer.window(Min);
  }

  /// Publishes \p N bytes read into the last writeWindow() and applies the
  /// completed lines. Same return contract as feed().
  bool commitBytes(size_t N);

  /// Zero-copy feed of whole lines already resident in a shared arena
  /// page (the server's per-connection read pages): every line in \p Span
  /// must end in '\n'. If a prior feed() left a partial line buffered, or
  /// the span breaks the whole-lines contract, it is fed() in behind it
  /// instead — correctness never depends on the caller's framing.
  bool feedSpan(PageSpan Span);

  /// End of input: applies the trailing partial line and runs the format's
  /// end-of-input hook.
  EndState finishStream();

  /// Interrupt (SIGINT) path: stops the stream without end-of-input
  /// processing — every whole line already read is applied, the trailing
  /// partial line is dropped, open transactions are left to finalize().
  void abortStream() { Finished = true; }

  /// The line-numbered error message ("line N: ..."), empty if none.
  const std::string &errorText() const { return Error; }

  /// 1-based number of the last processed line (after an error, the
  /// failing line).
  uint64_t lineNumber() const { return LineNo; }

  /// Byte offset after the last applied line (after an error, the start
  /// of the failing line): where a resumed stream continues.
  uint64_t streamOffset() const { return Offset; }

  /// Committed transactions applied.
  uint64_t committedTxns() const { return Machine->committedTxns(); }

private:
  /// Applies one line; false once the stream has failed.
  bool applyLine(const LineEvent &E, uint32_t ByteLen);
  /// Records a failure at the current line.
  void fail(const std::string &Msg);
  /// Runs the hook if a checking pass completed since the last call.
  void notifyFlush();
  /// Publishes \p N committed arena bytes and applies their whole lines.
  bool applyCommitted(size_t N);
  /// Applies the arena's pending whole lines (with \p Final, the trailing
  /// partial line too).
  void applyPending(bool Final);
  /// Decodes and applies the lines of \p Text in order, stopping at the
  /// first failure.
  void applyText(std::string_view Text);
  bool accepting() const { return valid() && !Finished && !Failed; }

  Monitor &M;
  LineDecoder Decode;
  std::unique_ptr<StreamMachine> Machine;
  FlushHook Hook;

  /// Byte staging: stream bytes land here once (by copy in feed(), or
  /// directly via writeWindow()). The unapplied tail is at most one
  /// partial line.
  ArenaWriter Writer{PageBytes};

  /// Stream cursor and failure state.
  uint64_t Offset = 0;
  uint64_t LineNo = 0;
  uint64_t LastFlushes = 0;
  bool Failed = false;
  std::string Error; // "line N: ..."
  bool Finished = false;

  static constexpr size_t PageBytes = 256 << 10;
  /// The most feed() copies into the arena before applying it: the size
  /// `awdit monitor` reads, and still in cache when its lines are decoded
  /// (whole-page pieces made one-shot parsing ~13 % slower).
  static constexpr size_t FeedPieceBytes = 64 << 10;
};

/// Parses a whole history text in \p Format ("native", "plume" or
/// "dbcop"): the pipeline over a Monitor that performs no checking
/// (CheckIntervalTxns = 0, no sink) and serves as the HistoryBuilder,
/// then Monitor::takeHistory(). Errors carry their line number, including
/// the duplicate writes the monitor detects during ingestion. Returns
/// std::nullopt and sets \p Err on malformed input or an unknown format.
std::optional<History> parseHistory(const std::string &Format,
                                    std::string_view Text,
                                    std::string *Err = nullptr);

} // namespace awdit

#endif // AWDIT_IO_SHARDED_INGEST_H
