//===- perfbench/e2e.cpp - End-to-end benchmark driver binary ---------------===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the end-to-end benchmark (run.py is the other
/// half). Each subcommand does one step of one workload, makes the same
/// library calls as the CLI command it stands for, checks every verdict,
/// and prints one JSON object on stdout:
///
/// \code
///   perfbench-e2e setup <workload> --seed N --dir DIR
///   perfbench-e2e check <file> [--trace FILE]
///       (awdit batch <file> --level all: read, parseTextHistory, then
///        checkIsolation at CC, RA and RC with one thread)
///   perfbench-e2e monitor <file> [--store DIR] [--trace FILE]
///       (awdit monitor --level cc --interval 256 --threads 1
///        [--checkpoint-store DIR --checkpoint-interval 64])
///   perfbench-e2e serve-client --port P --metrics-port P --dir DIR
///       --server-threads N --seconds S [--hello-only] [--trace FILE]
///       (32 mux tenants against a running `awdit serve`)
/// \endcode
///
/// With --trace the same calls run inside spans (spans.h); the spans are
/// written to FILE and the per-layer numbers join the JSON.
///
//===----------------------------------------------------------------------===//

#include "mux.h"
#include "prom.h"
#include "spans.h"
#include "verdict.h"

#include "checker/checker.h"
#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "io/sharded_ingest.h"
#include "io/stream_parser.h"
#include "io/text_format.h"
#include "sim/anomaly_injector.h"
#include "support/serialize.h"
#include "support/socket.h"
#include "workload/generator.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

using namespace awdit;
using namespace awdit::perfbench;

namespace {

// --- Workload inputs. -------------------------------------------------------

/// check-all: one c-twitter history.
constexpr size_t CheckSessions = 64, CheckTxns = 40000;
/// monitor-exact: one random history, 50 % writes.
constexpr size_t MonitorSessions = 32, MonitorTxns = 40000;
/// serve-mux: small c-twitter histories, one per tenant.
constexpr size_t Tenants = 32, TenantSessions = 8, TenantTxns = 7000;
/// Per-tenant inbox quota (HELLO inbox-bytes=): bounds what the server
/// buffers ahead of its checkers, so its memory does not track scheduling.
constexpr size_t TenantInboxBytes = 256 << 10;
/// Nominal length of one serve round on a 4-vCPU host, with its pause.
constexpr double RoundSeconds = 3.2;

const char *tenantLevel(size_t I) {
  static const char *Levels[] = {"rc", "ra", "cc"};
  return Levels[I % 3];
}
bool tenantInjected(size_t I) { return I % 4 == 3; }
std::string tenantFile(const std::string &Dir, size_t I) {
  return Dir + "/tenant-" + std::to_string(I) + ".txt";
}

// --- Small utilities. -------------------------------------------------------

struct Args {
  std::vector<std::string> Positional;
  std::map<std::string, std::string> Flags;

  std::string get(const std::string &Name, const std::string &Def = "") const {
    auto It = Flags.find(Name);
    return It == Flags.end() ? Def : It->second;
  }
  uint64_t num(const std::string &Name, uint64_t Def) const {
    auto It = Flags.find(Name);
    return It == Flags.end() ? Def : std::stoull(It->second);
  }
  bool has(const std::string &Name) const { return Flags.count(Name) != 0; }
};

/// One flat JSON object, built key by key.
class JsonObj {
public:
  JsonObj &num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    return raw(Key, Buf);
  }
  JsonObj &strings(const std::string &Key,
                   const std::vector<std::string> &Vs) {
    std::string List = "[";
    for (const std::string &V : Vs) {
      if (List.size() > 1)
        List += ',';
      List += '"';
      appendJsonEscaped(List, V);
      List += '"';
    }
    return raw(Key, List + "]");
  }
  JsonObj &nums(const std::string &Key, const std::vector<double> &Vs) {
    std::string List = "[";
    for (double V : Vs) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%s%.9g", List.size() > 1 ? "," : "",
                    V);
      List += Buf;
    }
    return raw(Key, List + "]");
  }
  JsonObj &raw(const std::string &Key, const std::string &Json) {
    Out += Out.size() > 1 ? ",\"" : "\"";
    appendJsonEscaped(Out, Key);
    Out += "\":" + Json;
    return *this;
  }
  std::string text() const { return Out + "}"; }

private:
  std::string Out = "{";
};

double seconds(uint64_t FromNs, uint64_t ToNs) {
  return static_cast<double>(ToNs - FromNs) / 1e9;
}

/// CPU time of this process, in nanoseconds. The check and monitor
/// iterations run one thread, so their CPU time is the wall time they
/// would take on a core of their own and a device as fast as tmpfs: it
/// leaves out the time a shared host's hypervisor steals (the guest kernel
/// accounts steal apart from task time), preemption by others, and the
/// store commits' waits for msync/fsync, which track other tenants' disk
/// traffic rather than the store's own work.
uint64_t cpuNanos() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(Ts.tv_nsec);
}

bool readFile(const std::string &Path, std::string &Out) {
  // The CLI's loadHistory: an ifstream drained into a string.
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

/// The decode layer alone: decodeNativeLine over every line of \p Text.
/// Returns the number of lines that decoded to an event.
uint64_t decodePass(std::string_view Text) {
  uint64_t Events = 0;
  while (!Text.empty()) {
    size_t Eol = Text.find('\n');
    std::string_view Line = Text.substr(0, Eol);
    Events += decodeNativeLine(Line).Kind != LineEvent::Type::Blank;
    Text = Eol == std::string_view::npos ? std::string_view()
                                         : Text.substr(Eol + 1);
  }
  return Events;
}

/// Writes the spans to \p Path and adds the per-layer self-time table and
/// per-name totals to \p J.
void finishTrace(const SpanRecorder &R, const std::string &Path, JsonObj &J) {
  if (!writeFile(Path, R.json()))
    std::fprintf(stderr, "warning: cannot write spans to %s\n", Path.c_str());
  std::vector<Span> Spans = R.spans();
  JsonObj Layers, Names;
  for (auto &[Layer, Sec] : selfSecondsByLayer(Spans))
    Layers.num(Layer, Sec);
  for (auto &[Name, Total] : totalsByName(Spans))
    Names.raw(Name, JsonObj()
                        .num("total_s", Total.first)
                        .num("count", static_cast<double>(Total.second))
                        .text());
  J.raw("self_s_by_layer", Layers.text()).raw("spans", Names.text());
}

void emitVerdicts(JsonObj &J, const VerdictTally &T) {
  J.num("attempted", static_cast<double>(T.Attempted))
      .num("failed", static_cast<double>(T.Failures.size()))
      .strings("failures", T.Failures);
}

// --- setup ------------------------------------------------------------------

int cmdSetup(const Args &A) {
  if (A.Positional.empty()) {
    std::fprintf(stderr, "error: setup needs a workload name\n");
    return 2;
  }
  const std::string &Workload = A.Positional[0];
  uint64_t Seed = A.num("seed", 1);
  std::string Dir = A.get("dir", ".");
  double GenerateS = 0;

  auto Produce = [&](GenerateParams P, bool Inject,
                     const std::string &Path) -> bool {
    uint64_t T0 = nowNanos();
    History H = generateHistory(P);
    if (Inject) {
      std::string Err;
      std::optional<History> Mutated =
          injectAnomaly(H, AnomalyKind::CausalityCycle, P.Seed, &Err);
      if (!Mutated) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return false;
      }
      H = std::move(*Mutated);
    }
    GenerateS += seconds(T0, nowNanos());
    bool Ok = writeFile(Path, writeTextHistory(H));
    if (!Ok)
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return Ok;
  };

  GenerateParams P;
  P.Mode = ConsistencyMode::Causal;
  bool Ok = true;
  if (Workload == "check-all") {
    P.Bench = Benchmark::CTwitter;
    P.Sessions = CheckSessions;
    P.Txns = CheckTxns;
    P.Seed = Seed;
    Ok = Produce(P, false, Dir + "/input.txt");
  } else if (Workload == "monitor-exact") {
    P.Bench = Benchmark::Random;
    P.Sessions = MonitorSessions;
    P.Txns = MonitorTxns;
    P.Seed = Seed;
    Ok = Produce(P, false, Dir + "/input.txt");
  } else if (Workload == "serve-mux") {
    P.Bench = Benchmark::CTwitter;
    P.Sessions = TenantSessions;
    P.Txns = TenantTxns;
    for (size_t I = 0; I < Tenants && Ok; ++I) {
      P.Seed = Seed * 1000 + I;
      Ok = Produce(P, tenantInjected(I), tenantFile(Dir, I));
    }
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Workload.c_str());
    return 2;
  }
  if (!Ok)
    return 1;
  std::printf("%s\n", JsonObj().num("generate_s", GenerateS).text().c_str());
  return 0;
}

// --- check ------------------------------------------------------------------

int cmdCheck(const Args &A) {
  uint64_t MainNs = nowNanos();
  if (A.Positional.empty()) {
    std::fprintf(stderr, "error: check needs a file\n");
    return 2;
  }
  SpanRecorder R(A.has("trace"));
  VerdictTally Verdicts;
  JsonObj J;
  J.raw("t_main_ns", std::to_string(MainNs));

  uint64_t T0 = nowNanos(), C0 = cpuNanos();
  std::string Text;
  bool Read;
  {
    ScopedSpan S(R, "io.read");
    Read = readFile(A.Positional[0], Text);
  }
  uint64_t TEos = nowNanos(), CEos = cpuNanos();
  std::string Err;
  std::optional<History> H;
  if (Read) {
    ScopedSpan S(R, "io.parse");
    H = parseTextHistory(Text, &Err);
  } else {
    Err = "cannot open " + A.Positional[0];
  }
  uint64_t TParsed = nowNanos();

  uint64_t Committed = 0, Inferred = 0, GraphEdges = 0, Violations = 0;
  // `awdit batch --level all`: every level, sequentially, one thread each,
  // verdict-only (no witnesses).
  CheckOptions Options;
  Options.MaxWitnesses = 0;
  Options.Threads = 1;
  for (IsolationLevel Level : AllIsolationLevels) {
    std::string Name = isolationLevelName(Level);
    if (!H) {
      Verdicts.record(Name, Err);
      continue;
    }
    std::string SpanName = "checker.oneshot_" + Name;
    std::transform(SpanName.begin(), SpanName.end(), SpanName.begin(),
                   [](unsigned char C) { return std::tolower(C); });
    uint64_t L0 = nowNanos();
    CheckReport Report;
    {
      ScopedSpan S(R, SpanName);
      Report = checkIsolation(*H, Level, Options);
    }
    J.num(SpanName.substr(std::strlen("checker.")) + "_s",
          seconds(L0, nowNanos()));
    Verdicts.check(Name, /*Injected=*/false, Report.Consistent,
                   Report.Violations.size());
    Inferred += Report.Stats.InferredEdges;
    GraphEdges += Report.Stats.GraphEdges;
    Violations += Report.Violations.size();
  }
  uint64_t TEnd = nowNanos(), CEnd = cpuNanos();
  if (H)
    for (TxnId T = 0; T < H->numTxns(); ++T)
      Committed += H->txn(T).Committed;

  J.num("txns", static_cast<double>(Committed))
      .num("seconds", seconds(T0, TEnd))
      .num("busy_s", seconds(C0, CEnd))
      .num("eos_busy_s", seconds(CEos, CEnd))
      .num("read_s", seconds(T0, TEos))
      .num("parse_s", seconds(TEos, TParsed))
      .num("inferred_edges", static_cast<double>(Inferred))
      .num("graph_edges", static_cast<double>(GraphEdges))
      .num("violations", static_cast<double>(Violations));
  emitVerdicts(J, Verdicts);
  if (R.enabled()) {
    uint64_t D0 = nowNanos();
    {
      ScopedSpan S(R, "io.decode");
      decodePass(Text);
    }
    J.num("decode_s", seconds(D0, nowNanos()));
    finishTrace(R, A.get("trace"), J);
  }
  std::printf("%s\n", J.text().c_str());
  return 0;
}

// --- monitor ----------------------------------------------------------------

int cmdMonitor(const Args &A) {
  uint64_t MainNs = nowNanos();
  if (A.Positional.empty()) {
    std::fprintf(stderr, "error: monitor needs a file\n");
    return 2;
  }
  const std::string &Path = A.Positional[0];
  SpanRecorder R(A.has("trace"));
  VerdictTally Verdicts;
  JsonObj J;
  J.raw("t_main_ns", std::to_string(MainNs));

  // `awdit monitor --level cc --interval 256 --threads 1`, with the
  // one-shot engine of the exact-mode finalize pinned to one
  // thread as well (the CLI leaves it at one per core).
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.Check.MaxWitnesses = 4;
  Options.Check.Threads = 1;
  Options.CheckIntervalTxns = 256;
  // Violations are counted by the monitor itself (ReportedViolations).
  CallbackSink Sink([](const Violation &, const std::string &) {});
  Monitor M(Options, &Sink);

  std::unique_ptr<StoreCheckpointer> Store;
  if (A.has("store")) {
    Store = std::make_unique<StoreCheckpointer>();
    std::string Err;
    if (!Store->open(A.get("store"), &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }

  // The CLI's epoch-barrier hook (a store checkpoint every CkptInterval
  // passes) plus, when tracing, one exact flush sample per pass from
  // FlushMicros. Without a window every checkpoint holds the whole history
  // so far: at the CLI's default of 16 passes the store took half of an
  // iteration, at 64 (two commits) under a quarter.
  constexpr uint64_t CkptInterval = 64;
  uint64_t LastCkptFlush = 0, LastFlushMicros = 0;
  std::vector<double> FlushMs;
  // Store commits: wall seconds, device waits included.
  double StoreS = 0;
  std::string StoreErr;
  ShardedMonitorIngest::FlushHook Hook;
  if (Store || R.enabled()) {
    Hook = [&](const IngestFlushPoint &P) {
      if (R.enabled()) {
        uint64_t Now = nowNanos();
        uint64_t Micros = P.M.stats().FlushMicros - LastFlushMicros;
        LastFlushMicros += Micros;
        FlushMs.push_back(static_cast<double>(Micros) / 1e3);
        R.add("checker.flush", Now - Micros * 1000, Now);
      }
      if (Store && P.Flushes - LastCkptFlush >= CkptInterval) {
        CheckpointMeta Meta;
        Meta.Format = "native";
        Meta.Options = Options;
        Meta.StreamOffset = P.StreamOffset;
        Meta.LineNo = P.LineNo;
        Meta.CommittedTxns = P.CommittedTxns;
        Meta.Flushes = P.Flushes;
        std::string MBlob;
        ByteWriter MW(MBlob);
        P.Machine.saveState(MW);
        uint64_t S0 = nowNanos();
        bool Wrote;
        {
          ScopedSpan S(R, "store.commit");
          Wrote = Store->write(P.M, MBlob, Meta, &StoreErr);
        }
        StoreS += seconds(S0, nowNanos());
        if (Wrote)
          LastCkptFlush = P.Flushes;
      }
    };
  }

  ShardedMonitorIngest Ingest(M, "native", 1, std::move(Hook));
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  uint64_t T0 = nowNanos(), C0 = cpuNanos();
  bool Ok = true;
  while (Ok) {
    auto [Dst, Cap] = Ingest.writeWindow(1 << 16);
    ssize_t N;
    {
      ScopedSpan S(R, "io.read");
      N = ::read(Fd, Dst, Cap);
    }
    if (N <= 0)
      break;
    ScopedSpan S(R, "checker.ingest");
    Ok = Ingest.commitBytes(static_cast<size_t>(N));
  }
  ::close(Fd);
  uint64_t CEos = cpuNanos();
  ShardedMonitorIngest::EndState End;
  {
    ScopedSpan S(R, "checker.ingest");
    End = Ingest.finishStream();
  }
  double FlushS = static_cast<double>(M.stats().FlushMicros) / 1e6;
  uint64_t TFinal = nowNanos();
  CheckReport Report;
  {
    ScopedSpan S(R, "checker.finalize");
    Report = M.finalize();
  }
  uint64_t TEnd = nowNanos(), CEnd = cpuNanos();

  const MonitorStats &St = M.stats();
  if (End == ShardedMonitorIngest::EndState::Error)
    Verdicts.record("CC", Ingest.errorText());
  else if (!StoreErr.empty())
    Verdicts.record("CC", "checkpoint not written: " + StoreErr);
  else
    Verdicts.check("CC", /*Injected=*/false, Report.Consistent,
                   St.ReportedViolations);
  J.num("txns", static_cast<double>(St.CommittedTxns))
      .num("seconds", seconds(T0, TEnd))
      .num("busy_s", seconds(C0, CEnd))
      .num("eos_busy_s", seconds(CEos, CEnd))
      .num("finalize_s", seconds(TFinal, TEnd))
      .num("flush_s", FlushS)
      .num("flushes", static_cast<double>(St.Flushes))
      .num("inferred_edges", static_cast<double>(Report.Stats.InferredEdges))
      .num("graph_edges", static_cast<double>(Report.Stats.GraphEdges))
      .num("violations", static_cast<double>(St.ReportedViolations));
  const uint64_t *Phases = M.flushPhaseMicros();
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I)
    J.num(std::string("phase_") +
              obs::flushPhaseName(static_cast<obs::FlushPhase>(I)) + "_s",
          static_cast<double>(Phases[I]) / 1e6);
  if (Store)
    J.num("store_s", StoreS)
        .num("store_commits", static_cast<double>(Store->commits()))
        .num("store_bytes", static_cast<double>(Store->bytesAppended()));
  emitVerdicts(J, Verdicts);
  if (R.enabled()) {
    J.nums("flush_ms", FlushMs);
    std::string Text;
    readFile(Path, Text);
    uint64_t D0 = nowNanos();
    {
      ScopedSpan S(R, "io.decode");
      decodePass(Text);
    }
    J.num("decode_s", seconds(D0, nowNanos()));
    finishTrace(R, A.get("trace"), J);
  }
  std::printf("%s\n", J.text().c_str());
  return 0;
}

// --- serve-client -----------------------------------------------------------

/// Buffered line reads from a blocking socket.
class LineReader {
public:
  explicit LineReader(const Socket &S) : S(S) {}

  /// The next line without its '\n'; false on EOF or error.
  bool next(std::string &Line) {
    for (;;) {
      size_t Eol = Buf.find('\n', Pos);
      if (Eol != std::string::npos) {
        Line.assign(Buf, Pos, Eol - Pos);
        Pos = Eol + 1;
        return true;
      }
      Buf.erase(0, Pos);
      Pos = 0;
      char Chunk[1 << 16];
      long N = S.readSome(Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  const Socket &S;
  std::string Buf;
  size_t Pos = 0;
};

/// One tenant's progress through one round, written by the sender and the
/// reply reader under ServeClient::Mu.
struct TenantRound {
  std::string Stream;
  uint64_t HelloNs = 0, OkNs = 0, EndNs = 0, FinalNs = 0, ByeNs = 0;
  /// Drained: the STATS sent behind the tenant's last data line came
  /// back, so every line was applied and END can go out.
  bool Ok = false, Drained = false, Final = false, Bye = false,
       Consistent = false;
  uint64_t Violations = 0, Committed = 0;
  std::string Error;

  bool settled() const { return Bye || !Error.empty(); }
};

class ServeClient {
public:
  ServeClient(const Args &A) : A(A), R(false) {}
  int run();

private:
  bool connect(Socket &S, uint16_t Port) {
    std::string Err;
    S = tcpConnect("127.0.0.1", Port, &Err);
    if (!S.valid())
      std::fprintf(stderr, "error: connect: %s\n", Err.c_str());
    return S.valid();
  }
  void readReplies();
  void probeStats();
  /// Waits until \p Done holds for every tenant of the round, or the
  /// timeout passes; false on timeout.
  template <typename Pred> bool waitAll(Pred Done, int TimeoutSec) {
    std::unique_lock<std::mutex> Lock(Mu);
    return Cv.wait_for(Lock, std::chrono::seconds(TimeoutSec), [&] {
      return std::all_of(Round.begin(), Round.end(), Done);
    });
  }
  bool scrapeMetrics(PromSeries &Out);

  const Args &A;
  SpanRecorder R;
  std::vector<std::string> Texts;
  Socket Data, Control;

  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<TenantRound> Round;
  std::unordered_map<std::string, size_t> ByStream;
  std::vector<std::string> ConnErrors;
  bool Disconnected = false;

  std::atomic<bool> StopProbe{false};
  std::vector<double> StatsRttMs;
  std::string ProbeError;
};

void ServeClient::readReplies() {
  LineReader In(Data);
  std::string Line;
  while (In.next(Line)) {
    Reply Rep = parseReply(Line);
    uint64_t Now = nowNanos();
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = ByStream.find(Rep.Stream);
    if (It == ByStream.end()) {
      if (Rep.Verb == "ERR")
        ConnErrors.push_back(Line);
      continue;
    }
    TenantRound &T = Round[It->second];
    if (Rep.Verb == "OK" && !T.Ok) {
      T.Ok = true;
      T.OkNs = Now;
    } else if (Rep.Verb == "STATS") {
      T.Drained = true;
    } else if (Rep.Verb == "FINAL") {
      T.Final = true;
      T.FinalNs = Now;
      T.Consistent = jsonTrue(Rep.Rest, "consistent");
      T.Violations = jsonUint(Rep.Rest, "violations");
      T.Committed = jsonUint(Rep.Rest, "committed");
    } else if (Rep.Verb == "BYE") {
      T.Bye = true;
      T.ByeNs = Now;
    } else if (Rep.Verb == "ERR" && T.Error.empty()) {
      T.Error = Line;
    }
    Cv.notify_all();
  }
  std::lock_guard<std::mutex> Lock(Mu);
  for (TenantRound &T : Round)
    if (!T.settled())
      T.Error = "disconnected";
  Disconnected = true;
  Cv.notify_all();
}

void ServeClient::probeStats() {
  LineReader In(Control);
  std::string Line;
  uint64_t Next = nowNanos();
  while (!StopProbe.load()) {
    uint64_t T0 = nowNanos();
    if (!Control.writeAll("STATS\n") || !In.next(Line) ||
        Line.rfind("STATS ", 0) != 0) {
      ProbeError = "control connection: bad STATS reply '" + Line + "'";
      return;
    }
    uint64_t T1 = nowNanos();
    StatsRttMs.push_back(static_cast<double>(T1 - T0) / 1e6);
    R.add("server.stats", T0, T1);
    Next += 20'000'000;
    if (Next > T1)
      std::this_thread::sleep_for(std::chrono::nanoseconds(Next - T1));
    else
      Next = T1;
  }
}

bool ServeClient::scrapeMetrics(PromSeries &Out) {
  Socket S;
  if (!connect(S, static_cast<uint16_t>(A.num("metrics-port", 0))) ||
      !S.writeAll("GET /metrics HTTP/1.0\r\n\r\n"))
    return false;
  std::string Resp;
  char Buf[1 << 16];
  long N;
  while ((N = S.readSome(Buf, sizeof(Buf))) > 0)
    Resp.append(Buf, static_cast<size_t>(N));
  size_t Body = Resp.find("\r\n\r\n");
  if (Resp.rfind("HTTP/1.0 200", 0) != 0 || Body == std::string::npos)
    return false;
  Out = parsePromText(std::string_view(Resp).substr(Body + 4));
  return true;
}

int ServeClient::run() {
  std::string Dir = A.get("dir", ".");
  double Budget = static_cast<double>(A.num("seconds", 10));
  // A fixed amount of work per --seconds, so the server's peak RSS (which
  // grows with the rounds it has served) compares across runs; a slow host
  // is cut off at twice the budget.
  size_t MeasuredRounds =
      std::max<size_t>(2, static_cast<size_t>(Budget / RoundSeconds + 0.5));
  // At most one END awaits its FINAL per server pool thread.
  size_t ServerThreads = A.num("server-threads", 1);
  bool Trace = A.has("trace");
  R.setEnabled(false);
  JsonObj J;

  uint64_t ReadNs = nowNanos();
  Texts.resize(Tenants);
  for (size_t I = 0; I < Tenants; ++I) {
    ScopedSpan S(R, "io.read", "t" + std::to_string(I));
    if (!readFile(tenantFile(Dir, I), Texts[I])) {
      std::fprintf(stderr, "error: cannot read %s\n",
                   tenantFile(Dir, I).c_str());
      return 1;
    }
  }
  double ReadS = seconds(ReadNs, nowNanos());
  if (!connect(Data, static_cast<uint16_t>(A.num("port", 0))) ||
      !connect(Control, static_cast<uint16_t>(A.num("port", 0))))
    return 1;
  std::thread Reader([this] { readReplies(); });
  std::thread Prober;

  VerdictTally Verdicts;
  // Per measured round: committed txns and seconds, untraced and traced;
  // END -> FINAL of every tenant of every untraced round.
  std::vector<double> RoundTxns, RoundSec, TracedTxns, TracedSec, EosMs,
      HelloMs;
  uint64_t HelloDoneNs = 0, Start = 0;
  constexpr size_t ChunkBytes = 16 << 10;
  std::string Buf;
  for (size_t RoundNo = 0;; ++RoundNo) {
    // Round 0 warms the server up (heap, thread pool) and is not timed;
    // a traced run traces the second half of the measured rounds.
    bool Warmup = RoundNo == 0;
    if (Trace && RoundNo > MeasuredRounds / 2)
      R.setEnabled(true);
    // HELLO every tenant under a fresh stream id and wait for every OK.
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Round.assign(Tenants, TenantRound());
      ByStream.clear();
      for (size_t I = 0; I < Tenants; ++I) {
        Round[I].Stream = "r" + std::to_string(RoundNo) + "t" +
                          std::to_string(I);
        if (Disconnected)
          Round[I].Error = "disconnected";
        ByStream[Round[I].Stream] = I;
      }
    }
    for (size_t I = 0; I < Tenants; ++I) {
      std::string Hello = "HELLO " + Round[I].Stream + " " + tenantLevel(I) +
                          " mux=on inbox-bytes=" +
                          std::to_string(TenantInboxBytes) + "\n";
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Round[I].HelloNs = nowNanos();
      }
      if (!Data.writeAll(Hello))
        break;
    }
    waitAll([](const TenantRound &T) { return T.Ok || T.settled(); }, 60);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      for (const TenantRound &T : Round)
        if (T.Ok) {
          HelloMs.push_back(static_cast<double>(T.OkNs - T.HelloNs) / 1e6);
          R.add("server.hello", T.HelloNs, T.OkNs, T.Stream);
        }
    }
    if (Warmup) {
      HelloDoneNs = nowNanos();
      if (A.has("hello-only"))
        break;
    }

    // Replay every tenant, round-robin, one chunk of whole lines at a
    // time. Writes block, so the server's backpressure paces the sender
    // (closed loop). A tenant's last chunk carries a STATS, which its
    // session answers only after applying every line before it; END goes
    // out when that answer is back, so END -> FINAL times the verdict, not
    // the tenant's backlog.
    int RoundSpan = R.open("server.round");
    uint64_t T0 = nowNanos();
    std::vector<size_t> Off(Tenants, 0);
    std::vector<bool> EndSent(Tenants, false);
    bool WriteFailed = false;
    // Sends END for newly drained tenants, at most one per pool thread
    // awaiting its FINAL, so END -> FINAL is the verdict's own latency
    // rather than a queue of finalizes. With Wait, repeats until every
    // tenant is drained or failed (a failed tenant gets no END: it would
    // only draw an ERR).
    auto AllEnded = [&] {
      return std::all_of(EndSent.begin(), EndSent.end(),
                         [](bool B) { return B; });
    };
    auto SendEnds = [&](bool Wait) {
      do {
        std::vector<size_t> Ready;
        {
          std::unique_lock<std::mutex> Lock(Mu);
          auto Collect = [&] {
            size_t Awaiting = 0;
            for (size_t I = 0; I < Tenants; ++I)
              Awaiting += EndSent[I] && !Round[I].Final && Round[I].Error.empty();
            for (size_t I = 0; I < Tenants; ++I) {
              if (EndSent[I] || !(Round[I].Drained || Round[I].settled()))
                continue;
              if (!Round[I].Error.empty()) {
                EndSent[I] = true;
              } else if (Awaiting + Ready.size() < ServerThreads) {
                // Stamped before the write, so END -> FINAL cannot run
                // backwards when the reader sees FINAL first.
                EndSent[I] = true;
                Round[I].EndNs = nowNanos();
                Ready.push_back(I);
              }
            }
            return !Ready.empty() || AllEnded();
          };
          if (!Wait)
            Collect();
          else if (!Cv.wait_for(Lock, std::chrono::seconds(120), Collect))
            return;
        }
        for (size_t I : Ready)
          WriteFailed |= !Data.writeAll(
              server::muxFrame(Round[I].Stream, "END") + "\n");
      } while (Wait && !WriteFailed && !AllEnded());
    };
    bool Sending = true;
    while (Sending && !WriteFailed) {
      Sending = false;
      SendEnds(false);
      for (size_t I = 0; I < Tenants && !WriteFailed; ++I) {
        const std::string &Text = Texts[I];
        if (Off[I] > Text.size())
          continue;
        size_t End = std::min(Text.size(), Off[I] + ChunkBytes);
        if (End < Text.size()) {
          size_t Eol = Text.rfind('\n', End - 1);
          End = Eol == std::string::npos || Eol < Off[I] ? Text.size()
                                                         : Eol + 1;
        }
        Buf.clear();
        appendMuxChunk(Buf, Round[I].Stream,
                       std::string_view(Text).substr(Off[I], End - Off[I]));
        bool Last = End == Text.size();
        if (Last)
          Buf += server::muxFrame(Round[I].Stream, "STATS") + "\n";
        WriteFailed = !Data.writeAll(Buf);
        Off[I] = Last ? Text.size() + 1 : End;
        Sending |= !Last;
      }
    }
    if (!WriteFailed)
      SendEnds(true);
    waitAll([](const TenantRound &T) { return T.settled(); }, 120);
    R.close(RoundSpan);

    // Score the round: every tenant's FINAL against its expected verdict.
    uint64_t LastBye = T0, Committed = 0;
    std::vector<double> RoundEosMs;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      for (size_t I = 0; I < Tenants; ++I) {
        TenantRound &T = Round[I];
        std::string Name = T.Stream + "(" + tenantLevel(I) + ")";
        if (!T.Error.empty())
          Verdicts.record(Name, T.Error);
        else if (!T.Final || !T.Bye)
          Verdicts.record(Name, "no FINAL/BYE");
        else
          Verdicts.check(Name, tenantInjected(I), T.Consistent,
                         T.Violations);
        if (T.Bye)
          LastBye = std::max(LastBye, T.ByeNs);
        if (T.Final && T.EndNs) {
          RoundEosMs.push_back(static_cast<double>(T.FinalNs - T.EndNs) /
                               1e6);
          int Replay = R.addUnder(RoundSpan, "server.replay", T0, T.ByeNs,
                                  T.Stream);
          R.addUnder(Replay, "server.eos", T.EndNs, T.FinalNs, T.Stream);
        }
        Committed += T.Committed;
      }
      for (const std::string &E : ConnErrors)
        Verdicts.record("connection", E);
      ConnErrors.clear();
    }
    if (Warmup) {
      Start = nowNanos();
      Prober = std::thread([this] { probeStats(); });
    } else if (R.enabled()) {
      TracedTxns.push_back(static_cast<double>(Committed));
      TracedSec.push_back(seconds(T0, LastBye));
    } else {
      RoundTxns.push_back(static_cast<double>(Committed));
      RoundSec.push_back(seconds(T0, LastBye));
      EosMs.insert(EosMs.end(), RoundEosMs.begin(), RoundEosMs.end());
    }
    double Elapsed = seconds(Start, nowNanos());
    double Last = seconds(T0, nowNanos());
    bool Lost;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Lost = Disconnected;
    }
    if (WriteFailed || Lost || RoundNo >= MeasuredRounds ||
        Elapsed + Last > 2 * Budget)
      break;
    // The server frees ended sessions in a once-a-second sweep; without
    // this pause the next round's tenants would share the peak with the
    // previous round's, by the luck of when the sweep ran.
    std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  }

  StopProbe = true;
  if (Prober.joinable())
    Prober.join();
  PromSeries Scrape;
  bool Scraped = A.has("hello-only") || scrapeMetrics(Scrape);
  if (!Scraped)
    Verdicts.record("metrics", "scrape failed");
  if (!ProbeError.empty())
    Verdicts.record("control", ProbeError);
  // Drain the server: its tenants are all retired by now.
  Data.shutdownWrite();
  LineReader Ctl(Control);
  std::string Line;
  if (!Control.writeAll("SHUTDOWN\n") || !Ctl.next(Line) ||
      Line != "OK shutting-down")
    Verdicts.record("control", "SHUTDOWN not acknowledged: '" + Line + "'");
  Reader.join();

  J.raw("t_hello_done_ns", std::to_string(HelloDoneNs))
      .nums("round_txns", RoundTxns)
      .nums("round_s", RoundSec)
      .nums("traced_round_txns", TracedTxns)
      .nums("traced_round_s", TracedSec)
      .nums("eos_ms", EosMs)
      .num("read_s", ReadS)
      .nums("hello_ms", HelloMs)
      .nums("stats_rtt_ms", StatsRttMs)
      .num("pump_s", promValue(Scrape, "awdit_server_pump_seconds_sum"))
      .num("output_queue_s",
           promValue(Scrape, "awdit_server_output_queue_seconds_sum"))
      .num("poll_max_stall_ms",
           promValue(Scrape, "awdit_server_poll_max_stall_micros_lifetime") /
               1e3)
      .num("flush_s", promValue(Scrape, "awdit_server_flush_seconds_total"))
      .num("flushes", promValue(Scrape, "awdit_server_flushes_total"))
      .num("flush_p50_ms",
           promHistogramQuantile(Scrape, "awdit_flush_duration_seconds",
                                 0.50) *
               1e3)
      .num("flush_p99_ms",
           promHistogramQuantile(Scrape, "awdit_flush_duration_seconds",
                                 0.99) *
               1e3)
      .num("violations", promValue(Scrape, "awdit_server_violations_total"));
  for (unsigned I = 0; I < obs::NumFlushPhases; ++I) {
    std::string Phase = obs::flushPhaseName(static_cast<obs::FlushPhase>(I));
    J.num("phase_" + Phase + "_s",
          promValue(Scrape, "awdit_flush_phase_duration_seconds_sum{phase=\"" +
                                Phase + "\"}"));
  }
  emitVerdicts(J, Verdicts);
  if (Trace) {
    uint64_t D0 = nowNanos();
    {
      ScopedSpan S(R, "io.decode");
      for (const std::string &Text : Texts)
        decodePass(Text);
    }
    J.num("decode_s", seconds(D0, nowNanos()));
    finishTrace(R, A.get("trace"), J);
  }
  std::printf("%s\n", J.text().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench-e2e setup|check|monitor|"
                         "serve-client ... (see perfbench/README.md)\n");
    return 2;
  }
  Args A;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      A.Positional.push_back(Arg);
    } else if (Arg == "--hello-only") {
      A.Flags["hello-only"] = "1";
    } else if (I + 1 < Argc) {
      A.Flags[Arg.substr(2)] = Argv[++I];
    } else {
      std::fprintf(stderr, "error: flag %s needs a value\n", Arg.c_str());
      return 2;
    }
  }
  std::string Cmd = Argv[1];
  try {
    if (Cmd == "setup")
      return cmdSetup(A);
    if (Cmd == "check")
      return cmdCheck(A);
    if (Cmd == "monitor")
      return cmdMonitor(A);
    if (Cmd == "serve-client")
      return ServeClient(A).run();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd.c_str());
  return 2;
}
