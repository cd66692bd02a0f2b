//===- io/sharded_ingest.cpp - The one bytes-to-Monitor pipeline -----------===//

#include "io/sharded_ingest.h"

#include "io/token_util.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "support/assert.h"

#include <algorithm>
#include <cstring>

using namespace awdit;

ShardedMonitorIngest::ShardedMonitorIngest(Monitor &M,
                                           const std::string &Format,
                                           unsigned Threads, FlushHook Hook)
    : M(M), Decode(lineDecoderFor(Format)),
      Machine(makeStreamMachine(Format, M)), Hook(std::move(Hook)),
      LastFlushes(M.flushCount()) {
  AWDIT_ASSERT(Threads <= 1, "ShardedMonitorIngest runs inline only");
  (void)Threads;
}

void ShardedMonitorIngest::primeResume(uint64_t StreamOffset,
                                       uint64_t LastLine) {
  Offset = StreamOffset;
  LineNo = LastLine;
  LastFlushes = M.flushCount();
}

bool ShardedMonitorIngest::feed(std::string_view Chunk) {
  // A piece at a time, applying its whole lines before the next: appending
  // the whole chunk first would carry everything still pending into each
  // new page — quadratic in the chunk.
  if (!accepting())
    return false;
  while (!Chunk.empty()) {
    auto [Dst, Cap] = Writer.window();
    size_t N = std::min({Chunk.size(), Cap, FeedPieceBytes});
    std::memcpy(Dst, Chunk.data(), N);
    Chunk.remove_prefix(N);
    if (!applyCommitted(N))
      return false;
  }
  return true;
}

bool ShardedMonitorIngest::commitBytes(size_t N) {
  if (!accepting())
    return false;
  return applyCommitted(N);
}

bool ShardedMonitorIngest::applyCommitted(size_t N) {
  Writer.commit(N);
  applyPending(/*Final=*/false);
  return !Failed;
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
  applyText(V);
  return !Failed;
}

void ShardedMonitorIngest::applyPending(bool Final) {
  std::string_view Pending = Writer.pending();
  size_t Len;
  if (Final) {
    // The unterminated trailing line still gets processed: it may hold the
    // directive that closes the last transaction.
    Len = Pending.size();
  } else {
    size_t LastNl = Pending.rfind('\n');
    if (LastNl == std::string_view::npos)
      return; // only a partial line staged — wait for its newline
    Len = LastNl + 1;
  }
  if (Len == 0)
    return;
  PageSpan Span = Writer.take(Len);
  applyText(Span.view());
}

void ShardedMonitorIngest::applyText(std::string_view Text) {
  AWDIT_SPAN("ingest.apply");
  obs::ScopedLatency Lat(obs::metrics().IngestApply);
  // Each line without its newline and trailing CR (a Windows-style
  // stream's CR still counts toward the stream offset), with the stream
  // bytes it consumed. Only the final line may lack a newline.
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t LineEnd = io::scanToNewline(Text, Pos);
    std::string_view Line = Text.substr(Pos, LineEnd - Pos);
    uint32_t ByteLen = static_cast<uint32_t>(
        LineEnd - Pos + (LineEnd == Text.size() ? 0 : 1));
    if (!Line.empty() && Line.back() == '\r')
      Line.remove_suffix(1);
    if (!applyLine(Decode(Line), ByteLen))
      return;
    Pos = LineEnd + 1;
  }
}

bool ShardedMonitorIngest::applyLine(const LineEvent &E, uint32_t ByteLen) {
  if (Failed)
    return false; // the parser is wedged
  ++LineNo;
  std::string Msg;
  if (!Machine->apply(E, &Msg)) {
    fail(Msg);
    return false;
  }
  Offset += ByteLen;
  notifyFlush();
  return true;
}

void ShardedMonitorIngest::fail(const std::string &Msg) {
  Failed = true;
  Error = "line " + std::to_string(LineNo) + ": " + Msg;
}

void ShardedMonitorIngest::notifyFlush() {
  uint64_t F = M.flushCount();
  if (F == LastFlushes)
    return;
  // A checking pass completed inside this line: an epoch barrier. The hook
  // sees a fully consistent state — monitor, machine, and stream cursor
  // all agree on "everything through this line".
  LastFlushes = F;
  if (Hook)
    Hook({M, *Machine, Offset, LineNo, Machine->committedTxns(), F});
}

ShardedMonitorIngest::EndState ShardedMonitorIngest::finishStream() {
  if (!Finished) {
    Finished = true;
    applyPending(/*Final=*/true);
  }
  if (Failed)
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
