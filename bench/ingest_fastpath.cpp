//===- bench/ingest_fastpath.cpp - Ingest decode-path benchmarks -------------===//
//
// The proof benches for the SWAR/zero-copy ingest fast path:
//
//  - BM_DecodeLine/{native,plume,dbcop}: per-line decode throughput of the
//    TokenCursor-based decoders, bytes/second as the primary counter. The
//    native variant also reports `speedup_vs_scalar_x`: a median-of-7
//    wall-clock comparison against a verbatim copy of the pre-fast-path
//    decoder (heap-allocating tokenize() + from_chars), computed inside
//    the benchmark so the gate needs no baseline artifact.
//  - BM_DecodeLine/native_scalar_tail: the same decoder with the SIMD
//    scanners forced off — isolates the SWAR fallback the fuzz tests
//    exercise, and what non-SSE2/NEON builds run.
//  - BM_IngestBytesPerSec/1: end-to-end ShardedMonitorIngest throughput
//    (arena reader, decode, apply, checking), bytes/second. CI floors
//    this counter with `compare_bench.py --counter-gate`.
//  - BM_ParseDecodeShare: parseTextHistory over the same corpus, with
//    `decode_share_pct` = 100 x decode / parse, the median over
//    alternating in-process pairs of a decode-only pass and a full parse.
//    What is not decode is building the History (the Monitor's apply
//    path), so the counter shows the Amdahl gap of parsing; CI floors it.
//
//===----------------------------------------------------------------------===//

#include "checker/monitor.h"
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
#include "io/stream_parser.h"
#include "io/text_format.h"
#include "io/token_util.h"
#include "workload/generator.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace awdit;

namespace {

//===----------------------------------------------------------------------===//
// The pre-fast-path scalar decoder, copied verbatim from the tree before
// the TokenCursor migration: a fresh std::vector of tokens per line, and
// from_chars for every integer. This is the baseline the ≥3× acceptance
// gate measures against; keeping it in-bench (instead of diffing CI
// artifacts) makes the ratio machine-independent.
//===----------------------------------------------------------------------===//

namespace legacy {

std::vector<std::string_view> tokenize(std::string_view Line) {
  std::vector<std::string_view> Tokens;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
      ++I;
    size_t Start = I;
    while (I < Line.size() && Line[I] != ' ' && Line[I] != '\t')
      ++I;
    if (I > Start)
      Tokens.push_back(Line.substr(Start, I - Start));
  }
  return Tokens;
}

template <typename IntT>
bool parseInt(std::string_view Token, IntT &Out) {
  auto [Ptr, Ec] =
      std::from_chars(Token.data(), Token.data() + Token.size(), Out);
  return Ec == std::errc() && Ptr == Token.data() + Token.size();
}

LineEvent malformed(std::string Msg) {
  LineEvent E;
  E.Kind = LineEvent::Type::Malformed;
  E.Error = std::move(Msg);
  return E;
}

LineEvent decodeNativeLine(std::string_view Line) {
  LineEvent E;
  std::vector<std::string_view> Tok = tokenize(Line);
  if (Tok.empty() || Tok[0].front() == '#')
    return E; // Blank
  if (Tok[0] == "b") {
    E.Kind = LineEvent::Type::Begin;
    if (Tok.size() != 2 || !parseInt(Tok[1], E.Session))
      E.Error = "expected 'b <session>'";
    return E;
  }
  if (Tok[0] == "r" || Tok[0] == "w") {
    E.Kind =
        Tok[0] == "r" ? LineEvent::Type::ReadOp : LineEvent::Type::WriteOp;
    if (Tok.size() != 3 || !parseInt(Tok[1], E.K) || !parseInt(Tok[2], E.V))
      E.Error = "expected '<r|w> <key> <value>'";
    return E;
  }
  if (Tok[0] == "c" || Tok[0] == "a") {
    E.Kind = Tok[0] == "c" ? LineEvent::Type::Commit : LineEvent::Type::Abort;
    return E;
  }
  if (Tok[0] == "t") {
    E.Kind = LineEvent::Type::Clock;
    if (Tok.size() != 2 || !parseInt(Tok[1], E.Num))
      E.Error = "expected 't <ticks>'";
    return E;
  }
  return malformed("unknown directive '" + std::string(Tok[0]) + "'");
}

} // namespace legacy

//===----------------------------------------------------------------------===//
// Corpus: one mid-size c-twitter history serialized into each format and
// pre-split into lines, so the measured loop is decode and nothing else.
//===----------------------------------------------------------------------===//

struct Corpus {
  std::vector<std::string_view> Lines; // newline stripped
  uint64_t Bytes = 0;                  // stream bytes, newlines included
  std::string Text;                    // backing storage for the views
};

const History &benchHistory() {
  static const History H = [] {
    GenerateParams P;
    P.Bench = Benchmark::CTwitter;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = 32;
    P.Txns = 8192;
    P.Seed = 12345;
    return generateHistory(P);
  }();
  return H;
}

const Corpus &corpusFor(const std::string &Format) {
  static std::map<std::string, Corpus> Cache;
  auto It = Cache.find(Format);
  if (It != Cache.end())
    return It->second;
  Corpus C;
  if (Format == "plume")
    C.Text = writePlumeHistory(benchHistory());
  else if (Format == "dbcop")
    C.Text = writeDbcopHistory(benchHistory());
  else
    C.Text = writeTextHistory(benchHistory());
  std::string_view V = C.Text;
  size_t Pos = 0;
  while (Pos < V.size()) {
    size_t Nl = io::scanToNewline(V, Pos);
    C.Lines.push_back(V.substr(Pos, Nl - Pos));
    C.Bytes += (Nl - Pos) + 1;
    Pos = Nl + 1;
  }
  return Cache.emplace(Format, std::move(C)).first->second;
}

uint64_t decodeAll(LineDecoder Decode, const Corpus &C) {
  uint64_t Sink = 0;
  for (std::string_view Line : C.Lines) {
    LineEvent E = Decode(Line);
    Sink += static_cast<uint64_t>(E.Kind) + E.K + E.V + E.Num;
  }
  return Sink;
}

/// Median-of-7 wall-clock seconds for one full-corpus decode pass.
double medianDecodeSecs(LineDecoder Decode, const Corpus &C) {
  std::vector<double> Samples;
  for (int I = 0; I < 7; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(decodeAll(Decode, C));
    auto T1 = std::chrono::steady_clock::now();
    Samples.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

void decodeLineBench(benchmark::State &State, const std::string &Format,
                     bool WithSpeedup, bool ForceScalar) {
  const Corpus &C = corpusFor(Format);
  LineDecoder Decode = lineDecoderFor(Format);
  bool SimdBefore = io::simdTokenizerEnabled();
  if (ForceScalar)
    io::setSimdTokenizer(false);
  for (auto _ : State)
    benchmark::DoNotOptimize(decodeAll(Decode, C));
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(C.Bytes));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(C.Lines.size()));
  if (WithSpeedup) {
    // The acceptance ratio, measured in one process so CPU-speed noise
    // cancels: old heap-allocating decoder vs the cursor decoder.
    double Fast = medianDecodeSecs(Decode, C);
    double Slow = medianDecodeSecs(legacy::decodeNativeLine, C);
    State.counters["speedup_vs_scalar_x"] =
        Fast > 0 ? Slow / Fast : 0.0;
  }
  if (ForceScalar)
    io::setSimdTokenizer(SimdBefore);
}

void BM_DecodeLine_native(benchmark::State &State) {
  decodeLineBench(State, "native", /*WithSpeedup=*/true,
                  /*ForceScalar=*/false);
}
void BM_DecodeLine_native_scalar_tail(benchmark::State &State) {
  decodeLineBench(State, "native", /*WithSpeedup=*/false,
                  /*ForceScalar=*/true);
}
void BM_DecodeLine_plume(benchmark::State &State) {
  decodeLineBench(State, "plume", /*WithSpeedup=*/false,
                  /*ForceScalar=*/false);
}
void BM_DecodeLine_dbcop(benchmark::State &State) {
  decodeLineBench(State, "dbcop", /*WithSpeedup=*/false,
                  /*ForceScalar=*/false);
}

BENCHMARK(BM_DecodeLine_native)->Name("BM_DecodeLine/native");
BENCHMARK(BM_DecodeLine_native_scalar_tail)
    ->Name("BM_DecodeLine/native_scalar_tail");
BENCHMARK(BM_DecodeLine_plume)->Name("BM_DecodeLine/plume");
BENCHMARK(BM_DecodeLine_dbcop)->Name("BM_DecodeLine/dbcop");

//===----------------------------------------------------------------------===//
// End-to-end ingest: stream bytes through the arena reader, decode and
// apply, exactly as `awdit monitor` runs it. bytes/second is the counter
// CI floors.
//===----------------------------------------------------------------------===//

void BM_IngestBytesPerSec(benchmark::State &State) {
  const Corpus &C = corpusFor("native");
  for (auto _ : State) {
    MonitorOptions Options;
    Options.Level = IsolationLevel::CausalConsistency;
    Options.Check.MaxWitnesses = 1;
    Options.CheckIntervalTxns = 256;
    Monitor M(Options);
    ShardedMonitorIngest Ingest(M, "native", /*Threads=*/1);
    std::string_view Text = C.Text;
    constexpr size_t Chunk = 1 << 16;
    for (size_t Pos = 0; Pos < Text.size(); Pos += Chunk) {
      // Feed through the zero-copy window, the same way the CLI wraps
      // read(2): ask for a write target, copy the "wire" bytes once,
      // commit.
      std::string_view Piece = Text.substr(Pos, Chunk);
      auto [Dst, Cap] = Ingest.writeWindow(Piece.size());
      std::copy(Piece.begin(), Piece.end(), Dst);
      (void)Cap;
      if (!Ingest.commitBytes(Piece.size()))
        break;
    }
    Ingest.finishStream();
    benchmark::DoNotOptimize(M.finalize());
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(C.Bytes));
}

BENCHMARK(BM_IngestBytesPerSec)->Arg(1)->UseRealTime();

//===----------------------------------------------------------------------===//
// The Amdahl gap of parsing: the share of parseTextHistory's time that is
// line decode. Everything else is building the History through the
// Monitor's apply path.
//===----------------------------------------------------------------------===//

void BM_ParseDecodeShare(benchmark::State &State) {
  const Corpus &C = corpusFor("native");
  LineDecoder Decode = lineDecoderFor("native");
  auto Secs = [](auto T0, auto T1) {
    return std::chrono::duration<double>(T1 - T0).count();
  };
  for (auto _ : State) {
    std::optional<History> H = parseTextHistory(C.Text);
    benchmark::DoNotOptimize(H);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(C.Bytes));
  // Decode-only pass and full parse back to back, nine times: each pair
  // sees the same host speed, so the median of the pair ratios is steady
  // where either absolute time drifts.
  std::vector<double> Shares;
  for (int I = 0; I < 9; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(decodeAll(Decode, C));
    auto T1 = std::chrono::steady_clock::now();
    std::optional<History> H = parseTextHistory(C.Text);
    auto T2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(H);
    Shares.push_back(100.0 * Secs(T0, T1) / Secs(T1, T2));
  }
  std::sort(Shares.begin(), Shares.end());
  State.counters["decode_share_pct"] = Shares[Shares.size() / 2];
}

BENCHMARK(BM_ParseDecodeShare)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
