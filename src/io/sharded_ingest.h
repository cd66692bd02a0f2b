//===- io/sharded_ingest.h - Multi-core sharded monitor ingest ---*- C++ -*-===//
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
/// With Threads <= 1 (every caller except `awdit monitor --threads N`)
/// the pipeline runs inline on the caller's thread: each whole line is
/// decoded and applied before feed() returns, with no queue and no copy
/// beyond the one into the arena. With N >= 2 one live stream is spread
/// over N threads while the checking semantics stay exactly those of the
/// inline path: reports are bit-identical at every flush cadence and
/// window size (tests/test_sharded_monitor.cpp and the CI
/// ThreadSanitizer job):
///
///    reader (caller thread)                 shard workers          applier
///    ┌────────────────────┐   SPSC    ┌───────────────────┐  SPSC  ┌─────┐
///    │ split stream into  │ ────────▶ │ decode lines into │ ─────▶ │apply│
///    │ whole-line batches │  queues   │ LineEvents        │ queues │to   │
///    │ (round-robin)      │ ────────▶ │ (stateless, any   │ ─────▶ │Moni-│
///    └────────────────────┘           │ order)            │        │tor  │
///                                     └───────────────────┘        └─────┘
///
///  - The reader owns the byte stream: it cuts it into batches of whole
///    lines (cheap newline scanning only) and deals them round-robin onto
///    per-shard SPSC queues (support/spsc_queue.h).
///  - Each shard worker runs the format's context-free decoder over its
///    batches — all the tokenizing/number-parsing work — independently and
///    in parallel.
///  - The applier thread restores the global stream order (batches are
///    popped round-robin, mirroring the deal) and feeds the decoded events
///    through the format's StreamMachine into the one merged Monitor. All
///    stateful work — wr resolution, saturation deltas, flushes, eviction
///    — happens here, on one thread, exactly as in the inline path; that
///    is what makes the output bit-identical by construction.
///  - The checking half of each flush is offloaded too: the pipeline
///    installs a worker pool into the Monitor (Monitor::setSpeculation),
///    and at every flush barrier the pool's workers speculatively compute
///    the CC happens-before/inference delta against a read-only snapshot
///    of the pre-merge rows. The applier merges the speculative results in
///    deterministic stream order, falling back to sequential re-derivation
///    for exactly the transactions whose inputs an earlier merge step
///    invalidated (support/epoch_snapshot.h is the validation oracle).
///
/// Flush boundaries are the pipeline's epoch barriers: after every
/// incremental checking pass the applier invokes the FlushHook with a
/// consistent cut of the world (monitor state, parser-machine state, and
/// the byte offset of the last applied line). `awdit monitor` writes its
/// persistent checkpoints (checker/checkpoint.h) from this hook, so a
/// snapshot can never observe a half-applied transaction or a half-run
/// flush.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_SHARDED_INGEST_H
#define AWDIT_IO_SHARDED_INGEST_H

#include "io/stream_parser.h"
#include "support/byte_arena.h"
#include "support/spsc_queue.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace awdit {

class ThreadPool;

/// A consistent cut of the ingest state at a flush boundary, handed to the
/// FlushHook on the applier thread. Everything a persistent checkpoint
/// needs: the monitor, the parser-machine state, and the exact stream
/// position (byte offset after the last applied line).
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

/// Drives one Monitor from one byte stream, inline when Threads <= 1 or
/// with 1 reader + N shard workers + 1 applier. Exactly one thread (the
/// owner) may call feed()/finishStream()/abortStream(). With threads the
/// owner must not touch the Monitor between the first feed() and the
/// return of finishStream()/abortStream(); inline, the Monitor is the
/// owner's again whenever a feed call returns.
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

  /// \p Threads counts the extra threads the pipeline may spawn: 0 or 1
  /// runs inline on the owner's thread; N >= 2 spawns one applier and N-1
  /// shard workers. \p Hook (optional) runs on the applier thread (the
  /// owner's, inline) after every completed checking pass.
  ShardedMonitorIngest(Monitor &M, const std::string &Format,
                       unsigned Threads, FlushHook Hook = nullptr);
  ~ShardedMonitorIngest();

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
  /// FeedPieceBytes at a time, dealing the whole lines of each piece
  /// before the next. Returns false once the pipeline has failed — the
  /// caller should stop reading and call finishStream() to collect the
  /// error.
  bool feed(std::string_view Chunk);

  /// Zero-copy alternative to feed(): at least \p Min writable bytes of
  /// the current arena page, so a read(2) can land stream bytes directly
  /// where the shard workers will decode them. Publish with commitBytes();
  /// any other call on this object invalidates the window.
  std::pair<char *, size_t> writeWindow(size_t Min = 1) {
    return Writer.window(Min);
  }

  /// Publishes \p N bytes read into the last writeWindow() and deals the
  /// completed lines. Same return contract as feed().
  bool commitBytes(size_t N);

  /// Zero-copy feed of whole lines already resident in a shared arena
  /// page (the server's per-connection read pages): every line in \p Span
  /// must end in '\n'. If a prior feed() left a partial line buffered, or
  /// the span breaks the whole-lines contract, it is fed() in behind it
  /// instead — correctness never depends on the caller's framing.
  bool feedSpan(PageSpan Span);

  /// End of input: flushes the trailing partial line, drains and joins the
  /// pipeline, and runs the format's end-of-input hook. After this call
  /// the owner thread has exclusive access to the Monitor again.
  EndState finishStream();

  /// Interrupt (SIGINT) path: drains and joins the pipeline without
  /// end-of-input processing — everything already read is applied, the
  /// trailing partial line is dropped, open transactions are left to
  /// finalize(). After this call the Monitor is the owner's again.
  void abortStream();

  // --- Valid after finishStream()/abortStream(); inline (Threads <= 1)
  // --- also between calls.

  /// The line-numbered error message ("line N: ..."), empty if none.
  const std::string &errorText() const { return Applier.Error; }

  /// 1-based number of the last processed line (after an error, the
  /// failing line).
  uint64_t lineNumber() const { return Applier.LineNo; }

  /// Byte offset after the last applied line (after an error, the start
  /// of the failing line): where a resumed stream continues.
  uint64_t streamOffset() const { return Applier.Offset; }

  /// Committed transactions applied.
  uint64_t committedTxns() const { return Machine->committedTxns(); }

private:
  /// A batch of whole lines as a refcounted span of an arena page —
  /// verbatim stream bytes, zero-copy from the reader's buffer to the
  /// shard worker (every line keeps its '\n'; only the final flushed
  /// partial line may lack one).
  struct RawBatch {
    PageSpan Span;
  };

  /// One decoded line and the stream bytes it consumed.
  struct DecodedLine {
    LineEvent E;
    uint32_t ByteLen;
  };

  struct DecodedBatch {
    std::vector<DecodedLine> Lines;
  };

  /// Applier-side cursor and failure state. Written by the applier thread
  /// (the owner's, inline), read by the owner after the join.
  struct ApplierState {
    uint64_t Offset = 0;
    uint64_t LineNo = 0;
    uint64_t LastFlushes = 0;
    bool Failed = false;
    std::string Error; // "line N: ..."
  };

  void startThreads();
  void workerLoop(size_t Shard);
  void applierLoop();
  /// Decodes one raw batch (worker side; pure).
  DecodedBatch decodeBatch(const RawBatch &Raw) const;
  /// Applies one decoded batch in stream order (applier side).
  void applyBatch(const DecodedBatch &Batch);
  /// Applies one line; false once the stream has failed.
  bool applyLine(const LineEvent &E, uint32_t ByteLen);
  /// Records a failure at the current line.
  void fail(const std::string &Msg);
  /// Runs the hook if a checking pass completed since the last call.
  void notifyFlush();
  /// Publishes \p N committed arena bytes and deals their whole lines.
  bool dealCommitted(size_t N);
  /// Cuts the arena's pending bytes into batches of whole lines and deals
  /// them.
  void dealPending(bool Final);
  /// Deals one span of whole lines: decoded and applied on the spot
  /// inline, else cut at ~BatchBytes boundaries and dealt round-robin.
  void dealSpan(PageSpan Span);
  bool accepting() const {
    return valid() && !Finished &&
           !FailedFlag.load(std::memory_order_acquire);
  }
  void closeAndJoin();

  Monitor &M;
  LineDecoder Decode;
  std::unique_ptr<StreamMachine> Machine;
  FlushHook Hook;

  /// Speculation executor handed to the Monitor for the checking half of
  /// each flush (threaded mode only). Owned here so its lifetime matches
  /// the pipeline's; the Monitor is detached before destruction.
  std::unique_ptr<ThreadPool> SpecPool;

  /// Shard workers (empty in synchronous mode).
  size_t NumShards = 0;
  std::vector<std::unique_ptr<SpscQueue<RawBatch>>> ToShard;
  std::vector<std::unique_ptr<SpscQueue<DecodedBatch>>> ToApplier;
  std::vector<std::thread> Workers;
  std::thread ApplierThread;
  bool Joined = true;

  /// Reader-side byte staging: stream bytes land here once (by copy in
  /// feed(), or directly via writeWindow()) and leave as refcounted
  /// whole-line spans. The un-dealt tail is at most one partial line.
  ArenaWriter Writer{PageBytes};
  uint64_t NextShard = 0;   // reader's deal cursor
  uint64_t ApplyShard = 0;  // applier's merge cursor (mirrors the deal)

  /// Set by the applier on the first error; the reader polls it to stop
  /// early. The error text itself travels through ApplierState after the
  /// join (single-writer, read-after-join).
  std::atomic<bool> FailedFlag{false};

  ApplierState Applier;
  bool Finished = false;

  /// Batch sizing: large enough that queue traffic is noise, small enough
  /// that the pipeline stays busy on modest streams.
  static constexpr size_t BatchBytes = 16 << 10;
  static constexpr size_t QueueDepth = 32;
  /// Arena page size: several batches per page so span refcounting is
  /// cheap relative to the bytes it manages.
  static constexpr size_t PageBytes = 256 << 10;
  /// The most feed() copies into the arena before dealing it: the size
  /// `awdit monitor` reads, and still in cache when its lines are decoded
  /// (whole-page pieces made one-shot parsing ~13 % slower).
  static constexpr size_t FeedPieceBytes = 64 << 10;
};

/// Parses a whole history text in \p Format ("native", "plume" or
/// "dbcop"): the inline pipeline over a Monitor that performs no checking
/// (CheckIntervalTxns = 0, no sink) and serves as the HistoryBuilder,
/// then Monitor::takeHistory(). Errors carry their line number, including
/// the duplicate writes the monitor detects during ingestion. Returns
/// std::nullopt and sets \p Err on malformed input or an unknown format.
std::optional<History> parseHistory(const std::string &Format,
                                    std::string_view Text,
                                    std::string *Err = nullptr);

} // namespace awdit

#endif // AWDIT_IO_SHARDED_INGEST_H
