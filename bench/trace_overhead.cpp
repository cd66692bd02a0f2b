//===- bench/trace_overhead.cpp - Tracing must be near-free when off --------===//
//
// The proof bench for the observability core's headline promise: spans
// compiled in everywhere, paying ~nothing until someone turns tracing on.
//
//  - BM_TraceOverhead: the disabled-path tax at deployment granularity —
//    the measured cost of one disabled span as a fraction of the measured
//    time of the decode batch it would wrap (min-of-N absolute timings of
//    each, in one process). Reports `disabled_overhead_pct` and the gated
//    counter `disabled_overhead_headroom_pct` = 2.0 - overhead_pct: CI
//    floors it at 0 with `compare_bench.py --counter-gate`, i.e. the
//    disabled-path tax may not exceed 2%.
//  - BM_TraceSpanDisabled: the raw per-span cost with tracing off — two
//    relaxed atomic loads and nothing else; nanoseconds per span.
//  - BM_TraceSpanEnabled: the recording path (clock reads + one ring
//    slot claim); what an operator pays per span while `TRACE on`.
//
//===----------------------------------------------------------------------===//

#include "io/stream_parser.h"
#include "io/text_format.h"
#include "io/token_util.h"
#include "obs/trace.h"
#include "workload/generator.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

using namespace awdit;

namespace {

struct Corpus {
  std::vector<std::string_view> Lines; // newline stripped
  std::string Text;                    // backing storage for the views
};

const Corpus &corpus() {
  static const Corpus C = [] {
    GenerateParams P;
    P.Bench = Benchmark::CTwitter;
    P.Mode = ConsistencyMode::Causal;
    P.Sessions = 32;
    P.Txns = 8192;
    P.Seed = 12345;
    Corpus Out;
    Out.Text = writeTextHistory(generateHistory(P));
    std::string_view V = Out.Text;
    size_t Pos = 0;
    while (Pos < V.size()) {
      size_t Nl = io::scanToNewline(V, Pos);
      Out.Lines.push_back(V.substr(Pos, Nl - Pos));
      Pos = Nl + 1;
    }
    return Out;
  }();
  return C;
}

/// A conservative span size: spans in the product wrap a whole read's
/// worth of lines (`ingest.apply`) or a flush phase, never single lines,
/// and the overhead claim is about that deployment granularity.
constexpr size_t SpanBatchLines = 256;

uint64_t decodeSpanned(LineDecoder Decode, const Corpus &C) {
  uint64_t Sink = 0;
  for (size_t Base = 0; Base < C.Lines.size(); Base += SpanBatchLines) {
    AWDIT_SPAN("bench.batch");
    size_t End = std::min(Base + SpanBatchLines, C.Lines.size());
    for (size_t I = Base; I < End; ++I) {
      LineEvent E = Decode(C.Lines[I]);
      Sink += static_cast<uint64_t>(E.Kind) + E.K + E.V + E.Num;
    }
  }
  return Sink;
}

/// Wall-clock seconds of one call.
template <typename FnT> double timeSecs(FnT &&Fn) {
  auto T0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(Fn());
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

void BM_TraceOverhead(benchmark::State &State) {
  const Corpus &C = corpus();
  LineDecoder Decode = lineDecoderFor("native");
  obs::setTraceEnabled(false);
  for (auto _ : State)
    benchmark::DoNotOptimize(decodeSpanned(Decode, C));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(C.Lines.size()));
  // The acceptance ratio: what fraction of a decode batch's time the
  // disabled span machinery costs. Both factors are *absolute* minimum
  // times (min-of-N discards scheduler/cache noise, the systematic cost
  // survives), so the quotient is stable enough to gate at 2% on a
  // shared runner — unlike subtracting two separately compiled decode
  // loops, where code-layout luck alone swings the difference by more
  // than the effect being measured.
  constexpr int SpansPerTimedLoop = 1 << 20;
  auto SpanLoop = [&] {
    for (int I = 0; I < SpansPerTimedLoop; ++I) {
      AWDIT_SPAN("bench.noop");
      benchmark::ClobberMemory();
    }
    return SpansPerTimedLoop;
  };
  double SpanSecs = timeSecs(SpanLoop);
  double PassSecs = timeSecs([&] { return decodeSpanned(Decode, C); });
  for (int I = 0; I < 7; ++I) {
    SpanSecs = std::min(SpanSecs, timeSecs(SpanLoop));
    PassSecs =
        std::min(PassSecs, timeSecs([&] { return decodeSpanned(Decode, C); }));
  }
  double SecsPerSpan = SpanSecs / SpansPerTimedLoop;
  double SecsPerBatch =
      PassSecs / (static_cast<double>(C.Lines.size()) / SpanBatchLines);
  double OverheadPct =
      SecsPerBatch > 0 ? SecsPerSpan / SecsPerBatch * 100.0 : 100.0;
  State.counters["disabled_overhead_pct"] = OverheadPct;
  State.counters["disabled_overhead_headroom_pct"] = 2.0 - OverheadPct;
}
BENCHMARK(BM_TraceOverhead);

void BM_TraceSpanDisabled(benchmark::State &State) {
  obs::setTraceEnabled(false);
  for (auto _ : State) {
    AWDIT_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State &State) {
  obs::traceClear();
  obs::setTraceEnabled(true);
  for (auto _ : State) {
    AWDIT_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
  obs::setTraceEnabled(false);
  obs::traceClear();
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_TraceSpanEnabled);

} // namespace

BENCHMARK_MAIN();
