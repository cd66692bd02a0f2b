//===- io/sharded_ingest.cpp - Multi-core sharded monitor ingest -----------===//

#include "io/sharded_ingest.h"

#include "io/token_util.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <cstring>

using namespace awdit;

namespace {

/// Enqueue with backpressure metering: the fast path is one tryPush; only
/// when the queue is actually full does the blocking push run under a
/// queue-wait timer. Depth is sampled after the enqueue (batch granularity
/// — a few samples per 16KiB of stream, invisible in profiles).
template <typename T> void pushMetered(SpscQueue<T> &Q, T &&Value) {
  if (!Q.tryPush(std::move(Value))) {
    obs::ScopedLatency Wait(obs::metrics().IngestQueueWait);
    Q.push(std::move(Value));
  }
  size_t Depth = Q.size();
  obs::metrics().IngestQueueDepth.record(Depth);
  obs::traceCounter("ingest.queue_depth", static_cast<double>(Depth));
}

/// Calls \p Fn(Line, ByteLen) for each line of \p Buf in order, until it
/// returns false: the line without its newline and trailing CR (a
/// Windows-style stream's CR still counts toward the stream offset), and
/// the stream bytes it consumed. Only the final line may lack a newline.
template <typename FnT> void forEachLine(std::string_view Buf, FnT &&Fn) {
  size_t Pos = 0;
  while (Pos < Buf.size()) {
    size_t LineEnd = io::scanToNewline(Buf, Pos);
    std::string_view Line = Buf.substr(Pos, LineEnd - Pos);
    uint32_t ByteLen = static_cast<uint32_t>(
        LineEnd - Pos + (LineEnd == Buf.size() ? 0 : 1));
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    if (!Fn(Line, ByteLen))
      return;
    Pos = LineEnd + 1;
  }
}

} // namespace

ShardedMonitorIngest::ShardedMonitorIngest(Monitor &M,
                                           const std::string &Format,
                                           unsigned Threads, FlushHook Hook)
    : M(M), Decode(lineDecoderFor(Format)),
      Machine(makeStreamMachine(Format, M)), Hook(std::move(Hook)) {
  if (!Decode)
    return;
  Applier.LastFlushes = M.flushCount();
  if (Threads >= 2) {
    NumShards = Threads - 1;
    // The shard workers' decode load leaves them mostly idle at flush
    // barriers, so the same thread budget drives the speculative checking
    // offload: the applier's flushDelta fans row/inference speculation out
    // over this pool and merges deterministically (bit-identical output —
    // see checker/saturation_state.h).
    SpecPool = std::make_unique<ThreadPool>(NumShards);
    M.setSpeculation(SpecPool.get());
    startThreads();
  }
}

ShardedMonitorIngest::~ShardedMonitorIngest() {
  closeAndJoin();
  if (SpecPool)
    M.setSpeculation(nullptr);
}

void ShardedMonitorIngest::startThreads() {
  ToShard.reserve(NumShards);
  ToApplier.reserve(NumShards);
  for (size_t I = 0; I < NumShards; ++I) {
    ToShard.push_back(std::make_unique<SpscQueue<RawBatch>>(QueueDepth));
    ToApplier.push_back(
        std::make_unique<SpscQueue<DecodedBatch>>(QueueDepth));
  }
  Joined = false;
  for (size_t I = 0; I < NumShards; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
  ApplierThread = std::thread([this] { applierLoop(); });
}

void ShardedMonitorIngest::primeResume(uint64_t StreamOffset,
                                       uint64_t LineNo) {
  Applier.Offset = StreamOffset;
  Applier.LineNo = LineNo;
  Applier.LastFlushes = M.flushCount();
}

//===----------------------------------------------------------------------===//
// Reader side: line assembly and the round-robin deal.
//===----------------------------------------------------------------------===//

bool ShardedMonitorIngest::feed(std::string_view Chunk) {
  // A piece at a time, dealing its whole lines before the next: appending
  // the whole chunk first would carry everything still pending into each
  // new page — quadratic in the chunk.
  if (!accepting())
    return false;
  while (!Chunk.empty()) {
    auto [Dst, Cap] = Writer.window();
    size_t N = std::min({Chunk.size(), Cap, FeedPieceBytes});
    std::memcpy(Dst, Chunk.data(), N);
    Chunk.remove_prefix(N);
    if (!dealCommitted(N))
      return false;
  }
  return true;
}

bool ShardedMonitorIngest::commitBytes(size_t N) {
  if (!accepting())
    return false;
  return dealCommitted(N);
}

bool ShardedMonitorIngest::dealCommitted(size_t N) {
  Writer.commit(N);
  dealPending(/*Final=*/false);
  return !FailedFlag.load(std::memory_order_acquire);
}

bool ShardedMonitorIngest::feedSpan(PageSpan Span) {
  if (!accepting())
    return false;
  std::string_view V = Span.view();
  if (V.empty())
    return true;
  // A partial line staged by an earlier feed(), or a span that breaks the
  // whole-lines contract: copy in behind it so line assembly stays
  // correct — zero-copy is an optimization, never a framing requirement.
  if (Writer.pendingBytes() != 0 || V.back() != '\n')
    return feed(V);
  dealSpan(std::move(Span));
  return !FailedFlag.load(std::memory_order_acquire);
}

void ShardedMonitorIngest::dealPending(bool Final) {
  std::string_view Pending = Writer.pending();
  size_t DealLen;
  if (Final) {
    // The unterminated trailing line still gets processed: it may hold the
    // directive that closes the last transaction.
    DealLen = Pending.size();
  } else {
    size_t LastNl = Pending.rfind('\n');
    if (LastNl == std::string_view::npos)
      return; // only a partial line staged — wait for its newline
    DealLen = LastNl + 1;
  }
  if (DealLen == 0)
    return;
  dealSpan(Writer.take(DealLen));
}

void ShardedMonitorIngest::dealSpan(PageSpan Span) {
  if (NumShards == 0) {
    // Inline: decode and apply line by line, the same decoder and applier
    // the threads run.
    AWDIT_SPAN("ingest.apply");
    obs::ScopedLatency Lat(
        obs::metrics().IngestStages[unsigned(obs::IngestStage::Apply)]);
    forEachLine(Span.view(), [this](std::string_view Line, uint32_t Len) {
      return applyLine(Decode(Line), Len);
    });
    return;
  }

  // Deal the span's whole lines, cut into batches of at most ~BatchBytes,
  // round-robin. Nothing is held back waiting for a fuller batch: a
  // trickling tail (`tail -f | awdit monitor -`) must reach the applier —
  // and emit its violations — with the same liveness as the inline
  // path. Steady streams arrive in large read chunks, so
  // their batches are naturally full. Each cut is a sub-span of the same
  // page: the bytes never move, only refcounts do.
  AWDIT_SPAN("ingest.read");
  obs::ScopedLatency Lat(
      obs::metrics().IngestStages[unsigned(obs::IngestStage::Reader)]);
  std::string_view V = Span.view();
  size_t Pos = 0;
  while (Pos < V.size()) {
    size_t End;
    if (V.size() - Pos > BatchBytes) {
      size_t Nl = io::scanToNewline(V, Pos + BatchBytes - 1);
      End = std::min(Nl, V.size() - 1); // Final tail may lack a newline
    } else {
      End = V.size() - 1;
    }
    RawBatch Raw{PageSpan{Span.Page, Span.Begin + Pos, Span.Begin + End + 1}};
    Pos = End + 1;
    pushMetered(*ToShard[NextShard % NumShards], std::move(Raw));
    ++NextShard;
  }
}

//===----------------------------------------------------------------------===//
// Shard workers: context-free decoding, any order.
//===----------------------------------------------------------------------===//

ShardedMonitorIngest::DecodedBatch
ShardedMonitorIngest::decodeBatch(const RawBatch &Raw) const {
  DecodedBatch Out;
  forEachLine(Raw.Span.view(), [&](std::string_view Line, uint32_t Len) {
    Out.Lines.push_back({Decode(Line), Len});
    return true;
  });
  return Out;
}

void ShardedMonitorIngest::workerLoop(size_t Shard) {
  obs::setTraceThreadName("shard-" + std::to_string(Shard));
  RawBatch Raw;
  while (ToShard[Shard]->pop(Raw)) {
    DecodedBatch Decoded;
    {
      AWDIT_SPAN("ingest.decode");
      obs::ScopedLatency Lat(
          obs::metrics().IngestStages[unsigned(obs::IngestStage::Decode)]);
      Decoded = decodeBatch(Raw);
    }
    pushMetered(*ToApplier[Shard], std::move(Decoded));
  }
  ToApplier[Shard]->close();
}

//===----------------------------------------------------------------------===//
// Applier: global order restored, the one thread that owns the Monitor.
//===----------------------------------------------------------------------===//

bool ShardedMonitorIngest::applyLine(const LineEvent &E, uint32_t ByteLen) {
  if (Applier.Failed)
    return false; // drain without applying; the parser is wedged
  ++Applier.LineNo;
  std::string Msg;
  if (!Machine->apply(E, &Msg)) {
    fail(Msg);
    return false;
  }
  Applier.Offset += ByteLen;
  notifyFlush();
  return true;
}

void ShardedMonitorIngest::fail(const std::string &Msg) {
  Applier.Failed = true;
  Applier.Error = "line " + std::to_string(Applier.LineNo) + ": " + Msg;
  FailedFlag.store(true, std::memory_order_release);
}

void ShardedMonitorIngest::notifyFlush() {
  uint64_t F = M.flushCount();
  if (F == Applier.LastFlushes)
    return;
  // A checking pass completed inside this line: an epoch barrier. The hook
  // sees a fully consistent state — monitor, machine, and stream cursor
  // all agree on "everything through this line".
  Applier.LastFlushes = F;
  if (Hook)
    Hook(IngestFlushPoint{M, *Machine, Applier.Offset, Applier.LineNo,
                          Machine->committedTxns(), F});
}

void ShardedMonitorIngest::applyBatch(const DecodedBatch &Batch) {
  AWDIT_SPAN("ingest.apply");
  obs::ScopedLatency Lat(
      obs::metrics().IngestStages[unsigned(obs::IngestStage::Apply)]);
  for (const DecodedLine &L : Batch.Lines)
    if (!applyLine(L.E, L.ByteLen))
      return;
}

void ShardedMonitorIngest::applierLoop() {
  obs::setTraceThreadName("applier");
  DecodedBatch Batch;
  // Pop in the exact order the reader dealt: round-robin over the shards.
  // The first closed-and-drained queue ends the stream — the deal is
  // sequential, so no later batch can exist once a slot comes up empty.
  while (ToApplier[ApplyShard % NumShards]->pop(Batch)) {
    applyBatch(Batch);
    ++ApplyShard;
  }
}

//===----------------------------------------------------------------------===//
// Stream end.
//===----------------------------------------------------------------------===//

void ShardedMonitorIngest::closeAndJoin() {
  if (Joined)
    return;
  for (auto &Q : ToShard)
    Q->close();
  for (std::thread &W : Workers)
    W.join();
  ApplierThread.join();
  Workers.clear();
  Joined = true;
}

ShardedMonitorIngest::EndState ShardedMonitorIngest::finishStream() {
  if (!Finished) {
    Finished = true;
    dealPending(/*Final=*/true);
    closeAndJoin();
  }
  if (Applier.Failed)
    return EndState::Error;
  if (Machine->hasOpenTxn())
    return EndState::OpenTxn;
  std::string Msg;
  if (!Machine->atEnd(&Msg)) {
    fail(Msg);
    return EndState::Error;
  }
  // atEnd may close a trailing transaction (plume) and trigger a final
  // cadence flush; surface it to the hook like any other epoch barrier.
  notifyFlush();
  return EndState::Clean;
}

void ShardedMonitorIngest::abortStream() {
  if (Finished) {
    closeAndJoin();
    return;
  }
  Finished = true;
  // Ship what is already whole lines so the interrupt loses nothing that
  // was actually read; the unterminated tail stays behind in the arena,
  // dropped with it.
  dealPending(/*Final=*/false);
  closeAndJoin();
}

//===----------------------------------------------------------------------===//
// One-shot parsing.
//===----------------------------------------------------------------------===//

std::optional<History> awdit::parseHistory(const std::string &Format,
                                           std::string_view Text,
                                           std::string *Err) {
  Monitor M;
  ShardedMonitorIngest Ingest(M, Format, /*Threads=*/1);
  if (!Ingest.valid()) {
    if (Err)
      *Err = "unknown format '" + Format + "'";
    return std::nullopt;
  }
  Ingest.feed(Text);
  std::string Msg;
  switch (Ingest.finishStream()) {
  case ShardedMonitorIngest::EndState::Clean:
    return M.takeHistory();
  case ShardedMonitorIngest::EndState::OpenTxn:
    // A whole text must end at a transaction boundary: report what the
    // format's end-of-input check says about the open one.
    Ingest.machine().atEnd(&Msg);
    Msg = "line " + std::to_string(Ingest.lineNumber()) + ": " + Msg;
    break;
  case ShardedMonitorIngest::EndState::Error:
    Msg = Ingest.errorText();
    break;
  }
  if (Err)
    *Err = std::move(Msg);
  return std::nullopt;
}
