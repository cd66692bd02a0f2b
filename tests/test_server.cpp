//===- tests/test_server.cpp - Multi-tenant monitoring server --------------===//
//
// The acceptance battery of `awdit serve` (server/server.h): the line
// protocol, the session registry, and the end-to-end guarantee that every
// hosted stream's violation record is byte-identical to a standalone
// Monitor run on the same stream — across concurrent mixed-level tenants,
// detach/re-attach, idle eviction with checkpoint resume, and a full
// shutdown-drain + restart + resume cycle. Runs threaded (event loop,
// pool pumps, client threads), so it is part of the CI TSan battery.
//
//===----------------------------------------------------------------------===//

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/stats_snapshot.h"
#include "checker/violation_sink.h"
#include "io/stream_parser.h"
#include "io/text_format.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sim/anomaly_injector.h"
#include "support/socket.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace awdit;
using namespace awdit::server;

namespace {

//===----------------------------------------------------------------------===//
// Protocol unit tests
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, ClassifiesVerbsAndStreamLines) {
  EXPECT_EQ(classifyLine("HELLO s cc"), Verb::Hello);
  EXPECT_EQ(classifyLine("  STATS"), Verb::Stats);
  EXPECT_EQ(classifyLine("DETACH"), Verb::Detach);
  EXPECT_EQ(classifyLine("END"), Verb::End);
  EXPECT_EQ(classifyLine("SHUTDOWN"), Verb::Shutdown);
  // Stream lines of all three formats pass through.
  EXPECT_EQ(classifyLine("b 3"), Verb::None);
  EXPECT_EQ(classifyLine("w 1 2"), Verb::None);
  EXPECT_EQ(classifyLine("sessions 4"), Verb::None);
  EXPECT_EQ(classifyLine("txn 0 1 2"), Verb::None);
  EXPECT_EQ(classifyLine("R 1 2"), Verb::None);
  EXPECT_EQ(classifyLine("0,1,r,2,3"), Verb::None);
  EXPECT_EQ(classifyLine("# HELLO in a comment"), Verb::None);
  EXPECT_EQ(classifyLine(""), Verb::None);
  // Only exact keywords are verbs.
  EXPECT_EQ(classifyLine("HELLOX s cc"), Verb::None);
  EXPECT_EQ(classifyLine("hello s cc"), Verb::None);
}

TEST(ServerProtocol, ParsesHello) {
  HelloRequest Req;
  std::string Err;
  ASSERT_TRUE(parseHello("HELLO orders cc", Req, &Err)) << Err;
  EXPECT_EQ(Req.Stream, "orders");
  EXPECT_EQ(Req.Level, IsolationLevel::CausalConsistency);
  EXPECT_EQ(Req.Format, "native");
  EXPECT_EQ(Req.Options.CheckIntervalTxns, 256u); // the CLI default
  EXPECT_TRUE(Req.Given.empty());

  ASSERT_TRUE(parseHello("HELLO t ra interval=32 window=100 format=plume "
                         "window-age=9 force-abort=5 witnesses=2",
                         Req, &Err))
      << Err;
  EXPECT_EQ(Req.Level, IsolationLevel::ReadAtomic);
  EXPECT_EQ(Req.Options.CheckIntervalTxns, 32u);
  EXPECT_EQ(Req.Options.WindowTxns, 100u);
  EXPECT_EQ(Req.Options.WindowAgeTicks, 9u);
  EXPECT_EQ(Req.Options.ForceAbortOpenTicks, 5u);
  EXPECT_EQ(Req.Options.Check.MaxWitnesses, 2u);
  EXPECT_EQ(Req.Format, "plume");
  EXPECT_EQ(Req.Given.size(), 6u);

  EXPECT_FALSE(parseHello("HELLO onlyname", Req, &Err));
  EXPECT_FALSE(parseHello("HELLO s serializable", Req, &Err));
  EXPECT_FALSE(parseHello("HELLO s cc bogus=1", Req, &Err));
  EXPECT_FALSE(parseHello("HELLO s cc interval=abc", Req, &Err));
  EXPECT_FALSE(parseHello("HELLO s cc format=xml", Req, &Err));
}

TEST(ServerProtocol, CompatibilityChecksOnlyGivenOptions) {
  HelloRequest Req;
  std::string Err;
  MonitorOptions Existing;
  Existing.Level = IsolationLevel::CausalConsistency;
  Existing.CheckIntervalTxns = 64;
  Existing.WindowTxns = 500;

  // Omitted options defer to the existing configuration.
  ASSERT_TRUE(parseHello("HELLO s cc", Req, &Err));
  EXPECT_TRUE(checkCompatible(Req, "native", Existing, &Err)) << Err;

  // A matching explicit option passes; a conflicting one fails.
  ASSERT_TRUE(parseHello("HELLO s cc interval=64", Req, &Err));
  EXPECT_TRUE(checkCompatible(Req, "native", Existing, &Err)) << Err;
  ASSERT_TRUE(parseHello("HELLO s cc interval=65", Req, &Err));
  EXPECT_FALSE(checkCompatible(Req, "native", Existing, &Err));
  EXPECT_NE(Err.find("interval"), std::string::npos);

  // The level is always checked.
  ASSERT_TRUE(parseHello("HELLO s ra", Req, &Err));
  EXPECT_FALSE(checkCompatible(Req, "native", Existing, &Err));
}

TEST(ServerProtocol, MuxFrameHelpersRoundTrip) {
  // Classification: frames start with '@'; '@@' is the payload escape.
  EXPECT_TRUE(isMuxFrame("@s b 0"));
  EXPECT_TRUE(isMuxFrame("@s"));
  EXPECT_TRUE(isMuxFrame("@"));
  EXPECT_FALSE(isMuxFrame("@@literal"));
  EXPECT_FALSE(isMuxFrame("b 0"));
  EXPECT_FALSE(isMuxFrame(""));

  std::string_view Stream, Payload;
  bool HasPayload = false;
  ASSERT_TRUE(splitMuxFrame("@s b 0", Stream, Payload, HasPayload));
  EXPECT_EQ(Stream, "s");
  EXPECT_EQ(Payload, "b 0");
  EXPECT_TRUE(HasPayload);
  // `@s` switches without routing; `@s ` routes an empty payload.
  ASSERT_TRUE(splitMuxFrame("@s", Stream, Payload, HasPayload));
  EXPECT_FALSE(HasPayload);
  ASSERT_TRUE(splitMuxFrame("@s ", Stream, Payload, HasPayload));
  EXPECT_TRUE(HasPayload);
  EXPECT_EQ(Payload, "");
  // An empty stream name is malformed.
  EXPECT_FALSE(splitMuxFrame("@", Stream, Payload, HasPayload));
  EXPECT_FALSE(splitMuxFrame("@ x", Stream, Payload, HasPayload));

  // Escaping round-trips every payload, including ones that are already
  // escaped-looking, and never produces something classified as a frame.
  for (std::string_view P :
       {std::string_view("b 0"), std::string_view("@weird"),
        std::string_view("@@already"), std::string_view(""),
        std::string_view("END")}) {
    std::string Wire = escapeMuxPayload(P);
    EXPECT_EQ(unescapeMuxPayload(Wire), P) << Wire;
    if (!P.empty() && P[0] == '@') {
      EXPECT_FALSE(isMuxFrame(Wire)) << Wire;
    }
  }
  EXPECT_EQ(escapeMuxPayload("@x"), "@@x");
  EXPECT_EQ(escapeMuxPayload("b 0"), "b 0");

  EXPECT_EQ(muxFrame("s", "END"), "@s END");
  EXPECT_TRUE(isMuxFrame(muxFrame("orders", "b 0")));
}

TEST(ServerProtocol, ParsesHelloConnectionOptions) {
  HelloRequest Req;
  std::string Err;
  ASSERT_TRUE(parseHello("HELLO s cc mux=on token=sesame inbox-bytes=1024 "
                         "outq-bytes=2048 window-bytes=4096",
                         Req, &Err))
      << Err;
  EXPECT_TRUE(Req.Mux);
  EXPECT_EQ(Req.Token, "sesame");
  EXPECT_EQ(Req.InboxBytes, 1024u);
  EXPECT_EQ(Req.OutQueueBytes, 2048u);
  EXPECT_EQ(Req.WindowBytes, 4096u);
  // Connection options never enter the compatibility fingerprint.
  EXPECT_TRUE(Req.Given.empty());

  ASSERT_TRUE(parseHello("HELLO s cc mux=off", Req, &Err));
  EXPECT_FALSE(Req.Mux);
  EXPECT_FALSE(parseHello("HELLO s cc mux=maybe", Req, &Err));
  EXPECT_FALSE(parseHello("HELLO s cc inbox-bytes=0", Req, &Err));
  EXPECT_NE(Err.find("positive byte count"), std::string::npos) << Err;
  EXPECT_FALSE(parseHello("HELLO s cc window-bytes=abc", Req, &Err));
}

TEST(ServerProtocol, SanitizeStreamNameIsInjectiveAndSafe) {
  EXPECT_EQ(sanitizeStreamName("orders-eu_1.log"), "orders-eu_1.log");
  // A leading dot is encoded (no hidden files, no ".." traversal) and
  // slashes never pass through.
  EXPECT_EQ(sanitizeStreamName("../etc/passwd"), "%2E.%2Fetc%2Fpasswd");
  EXPECT_EQ(sanitizeStreamName(".hidden"), "%2Ehidden");
  EXPECT_EQ(sanitizeStreamName("a b"), "a%20b");
  // '%' itself is encoded, so the mapping stays injective.
  EXPECT_EQ(sanitizeStreamName("a%20b"), "a%2520b");
  EXPECT_NE(sanitizeStreamName("a b"), sanitizeStreamName("a%20b"));
  EXPECT_EQ(sanitizeStreamName(""), "%");
  EXPECT_EQ(checkpointStoreDirFor("dir", "s/1"), "dir/s%2F1.store");
}

//===----------------------------------------------------------------------===//
// JSON escaping + stream-id field (the sink-hardening satellite)
//===----------------------------------------------------------------------===//

TEST(ViolationJson, EscapesControlCharactersAndQuotes) {
  Violation V;
  V.Kind = ViolationKind::ThinAirRead;
  V.T = 3;
  V.OpIndex = 1;
  std::string Desc = "key \"a\b\" read\nvalue\t<\x01>";
  std::string Json = violationToJson(V, &Desc);
  EXPECT_NE(Json.find("\\\"a\\u0008\\\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\\n"), std::string::npos);
  EXPECT_NE(Json.find("\\t"), std::string::npos);
  EXPECT_NE(Json.find("\\u0001"), std::string::npos);
  // No raw control bytes and no unescaped inner quotes survive.
  for (char C : Json)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u) << Json;
}

TEST(ViolationJson, StreamIdFieldIsEscaped) {
  Violation V;
  V.Kind = ViolationKind::AbortedRead;
  V.T = 1;
  std::string Stream = "tenant\"7\n";
  std::string Json = violationToJson(V, nullptr, &Stream);
  EXPECT_NE(Json.find("\"stream\":\"tenant\\\"7\\n\""), std::string::npos)
      << Json;

  // The JSON-lines sink carries the same tagged form.
  std::ostringstream Out;
  JsonLinesSink Sink(Out, Stream);
  Sink.onViolation(V, "desc");
  EXPECT_NE(Out.str().find("\"stream\":\"tenant\\\"7\\n\""),
            std::string::npos)
      << Out.str();
}

//===----------------------------------------------------------------------===//
// End-to-end server fixtures
//===----------------------------------------------------------------------===//

/// A blocking line-oriented protocol client over the support sockets.
class TestClient {
public:
  bool connect(uint16_t Port) {
    std::string Err;
    Sock = tcpConnect("127.0.0.1", Port, &Err);
    return Sock.valid();
  }

  bool send(const std::string &Text) { return Sock.writeAll(Text); }
  bool sendLine(const std::string &Line) {
    return Sock.writeAll(Line + "\n");
  }

  /// Next reply line; empty on EOF.
  std::string readLine() {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      char Tmp[4096];
      long N = Sock.readSome(Tmp, sizeof(Tmp));
      if (N <= 0)
        return {};
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }

  /// Reads until a line starting with \p Prefix arrives; collects every
  /// "VIOLATION " payload seen on the way into \p Violations (if given).
  std::string readUntil(const std::string &Prefix,
                        std::vector<std::string> *Violations = nullptr) {
    for (;;) {
      std::string Line = readLine();
      if (Line.empty())
        return {};
      if (Line.rfind("VIOLATION ", 0) == 0 && Violations)
        Violations->push_back(Line.substr(10));
      if (Line.rfind(Prefix, 0) == 0)
        return Line;
    }
  }

  void close() { Sock.close(); }

private:
  Socket Sock;
  std::string Buf;
};

/// Starts a Server on an ephemeral port with its own temp dirs and runs it
/// on a background thread; shuts down and joins on destruction.
class ServerHarness {
public:
  explicit ServerHarness(ServerOptions Base = {}) {
    Dir = std::filesystem::temp_directory_path() /
          ("awdit_srv_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter++));
    std::filesystem::create_directories(Dir);
    Base.Host = "127.0.0.1";
    Base.Port = 0;
    if (Base.CheckpointDir.empty())
      Base.CheckpointDir = (Dir / "ckpt").string();
    if (Base.SinkDir.empty())
      Base.SinkDir = (Dir / "sink").string();
    Options = Base;
    restart();
  }

  ~ServerHarness() {
    stop();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  /// Starts (or restarts, after stop()) the server with the same dirs.
  void restart() {
    S = std::make_unique<Server>(Options);
    std::string Err;
    ASSERT_TRUE(S->start(&Err)) << Err;
    Runner = std::thread([this] { S->run(); });
  }

  void stop() {
    if (!S)
      return;
    S->requestShutdown();
    Runner.join();
    S.reset();
  }

  uint16_t port() const { return S->port(); }
  Server &server() { return *S; }
  std::string sinkDir() const { return Options.SinkDir; }
  std::string checkpointDir() const { return Options.CheckpointDir; }

private:
  static inline std::atomic<int> Counter{0};
  std::filesystem::path Dir;
  ServerOptions Options;
  std::unique_ptr<Server> S;
  std::thread Runner;
};

History generated(int Seed, size_t Txns, bool Inject) {
  GenerateParams P;
  P.Bench = Benchmark::CTwitter;
  P.Mode = ConsistencyMode::Causal;
  P.Sessions = 5;
  P.Txns = Txns;
  P.Seed = static_cast<uint64_t>(Seed);
  History H = generateHistory(P);
  if (!Inject)
    return H;
  std::string Err;
  std::optional<History> Mutated = injectAnomaly(
      H, AnomalyKind::CausalViolation, static_cast<uint64_t>(Seed) + 1,
      &Err);
  EXPECT_TRUE(Mutated) << Err;
  return Mutated ? std::move(*Mutated) : std::move(H);
}

/// What a standalone `awdit monitor --json` run would output for this
/// stream: the violation JSON lines and the final summary line.
struct Reference {
  std::vector<std::string> ViolationLines;
  std::string Summary;
};

Reference referenceRun(const std::string &Text,
                       const MonitorOptions &Options) {
  Reference Ref;
  std::ostringstream Out;
  JsonLinesSink Sink(Out);
  Monitor M(Options, &Sink);
  StreamingTextParser Parser(M);
  std::string Err;
  EXPECT_TRUE(Parser.feed(Text, &Err)) << Err;
  EXPECT_TRUE(Parser.finish(&Err)) << Err;
  CheckReport Report = M.finalize();
  Ref.Summary = monitorSummaryJson(Report, M.stats(), Options.Level);
  std::istringstream Lines(Out.str());
  for (std::string Line; std::getline(Lines, Line);)
    Ref.ViolationLines.push_back(Line);
  return Ref;
}

/// The value of a single-valued metric series on the rendered /metrics
/// page; ~0 when absent.
uint64_t metricValue(const std::string &Page, const std::string &Name) {
  std::string Needle = Name + " ";
  for (size_t Pos = Page.find(Needle); Pos != std::string::npos;
       Pos = Page.find(Needle, Pos + 1)) {
    // Only a sample line counts — not the `# TYPE <name> ...` comment.
    if (Pos == 0 || Page[Pos - 1] == '\n')
      return std::strtoull(Page.c_str() + Pos + Needle.size(), nullptr,
                           10);
  }
  return ~0ull;
}

std::vector<std::string> fileLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// Drops the `"stream":"<name>",` tag the push channel adds, so pushed
/// payloads compare against the untagged reference lines.
std::string stripStreamTag(std::string Json, const std::string &Name) {
  std::string Tag = "\"stream\":\"";
  appendJsonEscaped(Tag, Name);
  Tag += "\",";
  size_t Pos = Json.find(Tag);
  if (Pos != std::string::npos)
    Json.erase(Pos, Tag.size());
  return Json;
}

//===----------------------------------------------------------------------===//
// End-to-end tests
//===----------------------------------------------------------------------===//

TEST(ServerEndToEnd, SingleStreamMatchesStandaloneMonitor) {
  ServerHarness H;
  History Hist = generated(11, 300, /*Inject=*/true);
  std::string Text = writeTextHistory(Hist);

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 32;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);
  ASSERT_FALSE(Ref.ViolationLines.empty());

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO t1 cc interval=32"));
  EXPECT_EQ(C.readLine(), "OK t1 new offset=0 line=0");
  ASSERT_TRUE(C.send(Text));
  ASSERT_TRUE(C.sendLine("END"));
  std::vector<std::string> Pushed;
  std::string Final = C.readUntil("FINAL ", &Pushed);
  ASSERT_FALSE(Final.empty());
  EXPECT_EQ(C.readUntil("BYE"), "BYE");

  // Pushed violations = the standalone stream, stream-tagged.
  ASSERT_EQ(Pushed.size(), Ref.ViolationLines.size());
  for (size_t I = 0; I < Pushed.size(); ++I)
    EXPECT_EQ(stripStreamTag(Pushed[I], "t1"), Ref.ViolationLines[I]);

  // The FINAL summary = the standalone summary, stream-tagged.
  EXPECT_EQ(stripStreamTag(Final.substr(6), "t1"), Ref.Summary);

  // The durable sink file is byte-identical to the standalone JSONL.
  EXPECT_EQ(fileLines(H.sinkDir() + "/t1.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(fileLines(H.sinkDir() + "/t1.summary.json"),
            std::vector<std::string>{Ref.Summary});
  H.stop();
}

TEST(ServerEndToEnd, ManyConcurrentMixedTenantsNoBleed) {
  ServerHarness H;
  // Mixed levels, cadences, windows; clean and injected histories.
  struct Tenant {
    std::string Name;
    std::string Hello;
    MonitorOptions Options;
    std::string Text;
    Reference Ref;
  };
  std::vector<Tenant> Tenants;
  IsolationLevel Levels[] = {IsolationLevel::ReadCommitted,
                             IsolationLevel::ReadAtomic,
                             IsolationLevel::CausalConsistency};
  const char *LevelNames[] = {"rc", "ra", "cc"};
  for (int I = 0; I < 8; ++I) {
    Tenant T;
    T.Name = "tenant" + std::to_string(I);
    int LevelIdx = I % 3;
    size_t Interval = (I % 2) ? 16 : 64;
    size_t Window = (I == 5) ? 200 : 0;
    T.Options.Level = Levels[LevelIdx];
    T.Options.CheckIntervalTxns = Interval;
    T.Options.WindowTxns = Window;
    T.Options.Check.MaxWitnesses = 4;
    T.Hello = "HELLO " + T.Name + " " + LevelNames[LevelIdx] +
              " interval=" + std::to_string(Interval);
    if (Window)
      T.Hello += " window=" + std::to_string(Window);
    T.Text = writeTextHistory(generated(100 + I, 250, /*Inject=*/I % 2));
    T.Ref = referenceRun(T.Text, T.Options);
    Tenants.push_back(std::move(T));
  }

  // One client thread per tenant, all concurrent.
  std::vector<std::thread> Threads;
  std::vector<std::string> Finals(Tenants.size());
  for (size_t I = 0; I < Tenants.size(); ++I)
    Threads.emplace_back([&, I] {
      TestClient C;
      ASSERT_TRUE(C.connect(H.port()));
      ASSERT_TRUE(C.sendLine(Tenants[I].Hello));
      std::string Ok = C.readLine();
      ASSERT_EQ(Ok.rfind("OK " + Tenants[I].Name + " new", 0), 0u) << Ok;
      ASSERT_TRUE(C.send(Tenants[I].Text));
      ASSERT_TRUE(C.sendLine("END"));
      Finals[I] = C.readUntil("FINAL ");
      C.readUntil("BYE");
    });
  for (std::thread &T : Threads)
    T.join();

  // Every tenant's record equals its own standalone run — no bleed.
  for (size_t I = 0; I < Tenants.size(); ++I) {
    const Tenant &T = Tenants[I];
    EXPECT_EQ(fileLines(H.sinkDir() + "/" + T.Name + ".jsonl"),
              T.Ref.ViolationLines)
        << T.Name;
    EXPECT_EQ(stripStreamTag(Finals[I].substr(6), T.Name), T.Ref.Summary)
        << T.Name;
  }
  H.stop();
}

TEST(ServerEndToEnd, StatsVerbAndMetricsEndpoint) {
  ServerOptions Base;
  Base.EnableMetrics = true;
  ServerHarness H(Base);

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  // Pre-HELLO STATS: the whole-server view.
  ASSERT_TRUE(C.sendLine("STATS"));
  std::string ServerStats = C.readLine();
  EXPECT_EQ(ServerStats.rfind("STATS {", 0), 0u) << ServerStats;
  EXPECT_NE(ServerStats.find("\"sessions_live\":0"), std::string::npos);

  ASSERT_TRUE(C.sendLine("HELLO m1 cc interval=8"));
  ASSERT_EQ(C.readLine().rfind("OK m1 new", 0), 0u);
  ASSERT_TRUE(C.send("b 0\nw 1 10\nc\nb 0\nr 1 10\nc\n"));
  ASSERT_TRUE(C.sendLine("STATS"));
  std::string Stats = C.readUntil("STATS ");
  EXPECT_NE(Stats.find("\"stream\":\"m1\""), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"txns\":2"), std::string::npos) << Stats;

  // The Prometheus page renders and carries the aggregate counters.
  std::string Page = H.server().renderMetrics();
  EXPECT_NE(Page.find("awdit_server_sessions_live 1"), std::string::npos)
      << Page;
  EXPECT_NE(Page.find("awdit_server_sessions_created_total 1"),
            std::string::npos);
  EXPECT_NE(Page.find("awdit_session_committed_txns{stream=\"m1\"} 2"),
            std::string::npos)
      << Page;
  H.stop();
}

TEST(ServerEndToEnd, StatsDeepCarriesLatencyPercentiles) {
  ServerHarness H;
  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // Pre-HELLO: the whole-server view grows the histogram-percentile
  // fields only when asked for the deep form.
  ASSERT_TRUE(C.sendLine("STATS"));
  std::string Shallow = C.readLine();
  ASSERT_EQ(Shallow.rfind("STATS {", 0), 0u) << Shallow;
  EXPECT_EQ(Shallow.find("\"server_pump\":"), std::string::npos)
      << Shallow;
  ASSERT_TRUE(C.sendLine("STATS deep"));
  std::string Deep = C.readLine();
  ASSERT_EQ(Deep.rfind("STATS {", 0), 0u) << Deep;
  EXPECT_NE(Deep.find("\"server_pump\":{\"count\":"), std::string::npos)
      << Deep;
  EXPECT_NE(Deep.find("\"flush\":{\"count\":"), std::string::npos) << Deep;
  EXPECT_NE(Deep.find("\"p99_micros\":"), std::string::npos) << Deep;

  // Session-level: a small stream with an interval small enough to force
  // real flushes, so the deep reply's flush percentiles carry samples.
  ASSERT_TRUE(C.sendLine("HELLO deep1 cc interval=2"));
  ASSERT_EQ(C.readLine().rfind("OK deep1 new", 0), 0u);
  ASSERT_TRUE(C.send("b 0\nw 1 10\nc\nb 0\nr 1 10\nc\n"
                     "b 1\nw 2 20\nc\nb 1\nr 2 20\nc\n"));
  ASSERT_TRUE(C.sendLine("STATS"));
  std::string SessShallow = C.readUntil("STATS ");
  EXPECT_NE(SessShallow.find("\"stream\":\"deep1\""), std::string::npos)
      << SessShallow;
  EXPECT_EQ(SessShallow.find("\"flush_latency\":"), std::string::npos)
      << SessShallow;

  ASSERT_TRUE(C.sendLine("STATS deep"));
  std::string SessDeep = C.readUntil("STATS ");
  EXPECT_NE(SessDeep.find("\"stream\":\"deep1\""), std::string::npos)
      << SessDeep;
  size_t LatPos = SessDeep.find("\"flush_latency\":{\"count\":");
  ASSERT_NE(LatPos, std::string::npos) << SessDeep;
  // Four committed txns at interval=2 means at least one real flush.
  EXPECT_EQ(SessDeep.find("\"flush_latency\":{\"count\":0", LatPos),
            std::string::npos)
      << SessDeep;
  EXPECT_NE(SessDeep.find("\"flush_phase_micros\":{\"delta_build\":"),
            std::string::npos)
      << SessDeep;
  H.stop();
}

TEST(ServerEndToEnd, TraceVerbRecordsAndDumps) {
  // The registry is process-wide; leave tracing the way we found it.
  struct TraceReset {
    ~TraceReset() {
      obs::setTraceEnabled(false);
      obs::traceClear();
    }
  } Reset;

  std::filesystem::path TraceDir =
      std::filesystem::temp_directory_path() /
      ("awdit_trace_" + std::to_string(::getpid()));
  std::filesystem::create_directories(TraceDir);
  ServerOptions Base;
  Base.TraceDir = TraceDir.string();
  ServerHarness H(Base);

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("TRACE on"));
  EXPECT_EQ(C.readLine(), "OK trace on");

  // Traffic while recording: the HELLO handshake and the session pump
  // must leave spans behind.
  ASSERT_TRUE(C.sendLine("HELLO tr1 cc interval=4"));
  ASSERT_EQ(C.readLine().rfind("OK tr1 new", 0), 0u);
  ASSERT_TRUE(C.send("b 0\nw 1 10\nc\nb 0\nr 1 10\nc\n"));
  ASSERT_TRUE(C.sendLine("STATS"));
  ASSERT_FALSE(C.readUntil("STATS ").empty());

  ASSERT_TRUE(C.sendLine("TRACE dump"));
  std::string DumpReply = C.readLine();
  ASSERT_EQ(DumpReply.rfind("OK trace dumped ", 0), 0u) << DumpReply;
  std::string Path = DumpReply.substr(std::strlen("OK trace dumped "));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::stringstream Body;
  Body << In.rdbuf();
  std::string Json = Body.str();
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(Json.find("\"server.hello\""), std::string::npos);
  EXPECT_NE(Json.find("\"server.pump\""), std::string::npos);

  ASSERT_TRUE(C.sendLine("TRACE off"));
  EXPECT_EQ(C.readLine(), "OK trace off");
  ASSERT_TRUE(C.sendLine("TRACE bogus"));
  EXPECT_EQ(C.readLine().rfind("ERR TRACE wants", 0), 0u);
  H.stop();
  std::error_code Ec;
  std::filesystem::remove_all(TraceDir, Ec);

  // Without --trace-dir the dump verb is refused up front.
  ServerHarness H2;
  TestClient C2;
  ASSERT_TRUE(C2.connect(H2.port()));
  ASSERT_TRUE(C2.sendLine("TRACE dump"));
  EXPECT_NE(C2.readLine().find("ERR trace dump needs"), std::string::npos);
  H2.stop();
}

TEST(ServerEndToEnd, ProtocolErrors) {
  ServerHarness H;
  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));

  // Stream data before HELLO.
  ASSERT_TRUE(C.sendLine("b 0"));
  EXPECT_EQ(C.readLine(), "ERR expected HELLO before stream data");

  ASSERT_TRUE(C.sendLine("HELLO s1 xx"));
  EXPECT_EQ(C.readLine().rfind("ERR unknown isolation level", 0), 0u);

  ASSERT_TRUE(C.sendLine("HELLO s1 cc"));
  ASSERT_EQ(C.readLine().rfind("OK s1 new", 0), 0u);

  // Double attach from a second connection.
  TestClient C2;
  ASSERT_TRUE(C2.connect(H.port()));
  ASSERT_TRUE(C2.sendLine("HELLO s1 cc"));
  EXPECT_NE(C2.readLine().find("already has an attached client"),
            std::string::npos);

  // A malformed stream line wedges the session with a line-numbered ERR.
  ASSERT_TRUE(C.send("b 0\nw 1 1\nbogus 9 9\n"));
  std::string Err = C.readUntil("ERR ");
  EXPECT_NE(Err.find("s1 line 3:"), std::string::npos) << Err;
  H.stop();
}

TEST(ServerEndToEnd, DetachReattachContinuesWithOffset) {
  ServerHarness H;
  History Hist = generated(21, 200, /*Inject=*/true);
  std::string Text = writeTextHistory(Hist);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);

  size_t Cut = Text.find('\n', Text.size() / 2);
  ASSERT_NE(Cut, std::string::npos);
  ++Cut;

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO d1 cc interval=16"));
  ASSERT_EQ(C.readLine().rfind("OK d1 new offset=0", 0), 0u);
  ASSERT_TRUE(C.send(Text.substr(0, Cut)));
  ASSERT_TRUE(C.sendLine("DETACH"));
  EXPECT_EQ(C.readUntil("OK detached"), "OK detached d1");
  C.close();

  // Re-attach on a fresh connection; the server reports how far it got.
  TestClient C2;
  ASSERT_TRUE(C2.connect(H.port()));
  ASSERT_TRUE(C2.sendLine("HELLO d1 cc"));
  std::string Ok = C2.readLine();
  ASSERT_EQ(Ok.rfind("OK d1 attached offset=" + std::to_string(Cut), 0),
            0u)
      << Ok;
  ASSERT_TRUE(C2.send(Text.substr(Cut)));
  ASSERT_TRUE(C2.sendLine("END"));
  std::string Final = C2.readUntil("FINAL ");
  C2.readUntil("BYE");

  EXPECT_EQ(fileLines(H.sinkDir() + "/d1.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(stripStreamTag(Final.substr(6), "d1"), Ref.Summary);
  H.stop();
}

TEST(ServerEndToEnd, IdleEvictionCheckpointsAndResumes) {
  ServerOptions Base;
  Base.IdleTimeoutSec = 1;
  ServerHarness H(Base);
  History Hist = generated(31, 200, /*Inject=*/true);
  std::string Text = writeTextHistory(Hist);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);

  size_t Cut = Text.find('\n', Text.size() / 2);
  ASSERT_NE(Cut, std::string::npos);
  ++Cut;

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO e1 cc interval=16"));
  ASSERT_EQ(C.readLine().rfind("OK e1 new", 0), 0u);
  ASSERT_TRUE(C.send(Text.substr(0, Cut)));
  C.close(); // vanish without DETACH

  // Wait past the idle timeout for the sweep to evict the session.
  std::string CkptPath = checkpointStoreDirFor(H.checkpointDir(), "e1");
  for (int Tries = 0; Tries < 100; ++Tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (StoreCheckpointer::isStoreDir(CkptPath) &&
        H.server().renderMetrics().find(
            "awdit_server_sessions_evicted_total 1") != std::string::npos)
      break;
  }
  EXPECT_TRUE(StoreCheckpointer::isStoreDir(CkptPath));
  EXPECT_NE(H.server().renderMetrics().find(
                "awdit_server_sessions_evicted_total 1"),
            std::string::npos);

  // A new HELLO resumes the evicted tenant from its checkpoint.
  TestClient C2;
  ASSERT_TRUE(C2.connect(H.port()));
  ASSERT_TRUE(C2.sendLine("HELLO e1 cc"));
  std::string Ok = C2.readLine();
  ASSERT_EQ(Ok.rfind("OK e1 resumed offset=" + std::to_string(Cut), 0), 0u)
      << Ok;
  ASSERT_TRUE(C2.send(Text.substr(Cut)));
  ASSERT_TRUE(C2.sendLine("END"));
  std::string Final = C2.readUntil("FINAL ");
  C2.readUntil("BYE");

  EXPECT_EQ(fileLines(H.sinkDir() + "/e1.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(stripStreamTag(Final.substr(6), "e1"), Ref.Summary);
  H.stop();
}

TEST(ServerEndToEnd, DrainRestartResumeIsExactlyOnce) {
  History Hist = generated(41, 400, /*Inject=*/true);
  std::string Text = writeTextHistory(Hist);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);
  ASSERT_FALSE(Ref.ViolationLines.empty());

  ServerOptions Base;
  Base.CheckpointIntervalFlushes = 1;
  ServerHarness H(Base);

  size_t Cut = Text.find('\n', Text.size() / 2);
  ASSERT_NE(Cut, std::string::npos);
  ++Cut;

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO r1 cc interval=16"));
  ASSERT_EQ(C.readLine().rfind("OK r1 new", 0), 0u);
  ASSERT_TRUE(C.send(Text.substr(0, Cut)));
  ASSERT_TRUE(C.sendLine("STATS"));
  C.readUntil("STATS "); // barrier: the session has applied the prefix

  // SIGTERM-equivalent: drain. The client sees DRAINING + FINAL + BYE.
  std::thread Stopper([&] { H.stop(); });
  std::string Draining = C.readUntil("DRAINING ");
  EXPECT_EQ(Draining.rfind("DRAINING r1 offset=" + std::to_string(Cut), 0),
            0u)
      << Draining;
  C.readUntil("BYE");
  Stopper.join();
  C.close();

  // Emulate a non-graceful death's leftover: a line appended after the
  // checkpoint would duplicate on resume unless the sink is reconciled.
  {
    std::ofstream Junk(H.sinkDir() + "/r1.jsonl", std::ios::app);
    Junk << "{\"kind\":\"junk past the checkpoint\"}\n";
  }

  // Restart with the same dirs; the tenant resumes and finishes.
  H.restart();
  TestClient C2;
  ASSERT_TRUE(C2.connect(H.port()));
  ASSERT_TRUE(C2.sendLine("HELLO r1 cc"));
  std::string Ok = C2.readLine();
  ASSERT_EQ(Ok.rfind("OK r1 resumed offset=" + std::to_string(Cut), 0), 0u)
      << Ok;
  ASSERT_TRUE(C2.send(Text.substr(Cut)));
  ASSERT_TRUE(C2.sendLine("END"));
  std::string Final = C2.readUntil("FINAL ");
  C2.readUntil("BYE");

  // The durable record across the restart is exactly the uninterrupted
  // standalone run: no duplicates from the drain, no gaps. (The junk
  // line emulates a non-graceful death that appended past the
  // checkpoint; resume reconciles the sink back to the checkpointed
  // violation count.)
  EXPECT_EQ(fileLines(H.sinkDir() + "/r1.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(stripStreamTag(Final.substr(6), "r1"), Ref.Summary);
  EXPECT_EQ(fileLines(H.sinkDir() + "/r1.summary.json"),
            std::vector<std::string>{Ref.Summary});

  // Mismatching options on resume are rejected.
  TestClient C3;
  ASSERT_TRUE(C3.connect(H.port()));
  ASSERT_TRUE(C3.sendLine("HELLO gone ra"));
  ASSERT_EQ(C3.readLine().rfind("OK gone new", 0), 0u);
  ASSERT_TRUE(C3.sendLine("DETACH"));
  C3.readUntil("OK detached");
  TestClient C4;
  ASSERT_TRUE(C4.connect(H.port()));
  ASSERT_TRUE(C4.sendLine("HELLO gone cc"));
  EXPECT_NE(C4.readLine().find("incompatible"), std::string::npos);
  H.stop();
}

TEST(ServerEndToEnd, ReusedStreamIdStartsAFreshRecord) {
  ServerHarness H;
  History Hist = generated(51, 150, /*Inject=*/true);
  std::string Injected = writeTextHistory(Hist);
  std::string Clean = writeTextHistory(generated(52, 150, /*Inject=*/false));

  // First run: injected history under the name, through END.
  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO reuse cc interval=16"));
  ASSERT_EQ(C.readLine().rfind("OK reuse new", 0), 0u);
  ASSERT_TRUE(C.send(Injected));
  ASSERT_TRUE(C.sendLine("END"));
  C.readUntil("BYE");
  EXPECT_FALSE(fileLines(H.sinkDir() + "/reuse.jsonl").empty());

  // Second run reuses the id for a different (clean) stream: the record
  // must be this run's alone, not an append onto the finished one.
  ASSERT_TRUE(C.sendLine("HELLO reuse cc interval=16"));
  ASSERT_EQ(C.readLine().rfind("OK reuse new offset=0", 0), 0u);
  ASSERT_TRUE(C.send(Clean));
  ASSERT_TRUE(C.sendLine("END"));
  std::string Final = C.readUntil("FINAL ");
  C.readUntil("BYE");
  EXPECT_NE(Final.find("\"consistent\":true"), std::string::npos) << Final;
  EXPECT_TRUE(fileLines(H.sinkDir() + "/reuse.jsonl").empty());
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  EXPECT_EQ(stripStreamTag(Final.substr(6), "reuse"),
            referenceRun(Clean, Options).Summary);
  H.stop();
}

//===----------------------------------------------------------------------===//
// Hot-session upgrade: a connection crossing the data-rate threshold ships
// zero-copy spans and its session's pump upgrades to the sharded ingest
// pipeline. The invariant under test: output stays byte-identical to the
// inline decoder (and to a standalone monitor) through the upgrade, every
// control verb, and reattach.
//===----------------------------------------------------------------------===//

/// Options that force the upgrade deterministically: an explicit thread
/// budget and a 1-byte/sec threshold, so the very first data read flips
/// the connection hot.
ServerOptions hotOptions() {
  ServerOptions Base;
  Base.Threads = 4;
  Base.ShardHotSessions = 3;
  Base.HotBytesPerSec = 1;
  return Base;
}

TEST(ServerEndToEnd, HotSessionUpgradeMatchesStandaloneMonitor) {
  ServerHarness H(hotOptions());
  History Hist = generated(41, 400, /*Inject=*/true);
  std::string Text = writeTextHistory(Hist);

  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 32;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);
  ASSERT_FALSE(Ref.ViolationLines.empty());

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO hot1 cc interval=32"));
  EXPECT_EQ(C.readLine(), "OK hot1 new offset=0 line=0");
  ASSERT_TRUE(C.send(Text));
  ASSERT_TRUE(C.sendLine("END"));
  std::vector<std::string> Pushed;
  std::string Final = C.readUntil("FINAL ", &Pushed);
  ASSERT_FALSE(Final.empty());
  EXPECT_EQ(C.readUntil("BYE"), "BYE");

  // Byte-identical everywhere: push channel, FINAL summary, durable sink.
  ASSERT_EQ(Pushed.size(), Ref.ViolationLines.size());
  for (size_t I = 0; I < Pushed.size(); ++I)
    EXPECT_EQ(stripStreamTag(Pushed[I], "hot1"), Ref.ViolationLines[I]);
  EXPECT_EQ(stripStreamTag(Final.substr(6), "hot1"), Ref.Summary);
  EXPECT_EQ(fileLines(H.sinkDir() + "/hot1.jsonl"), Ref.ViolationLines);

  // And the upgrade really happened (not a silently-cold run).
  std::string Metrics = H.server().renderMetrics();
  EXPECT_NE(Metrics.find("awdit_server_hot_upgrades_total 1"),
            std::string::npos)
      << Metrics;
  H.stop();
}

TEST(ServerEndToEnd, HotUpgradeDetachReattachContinuesWithOffset) {
  ServerHarness H(hotOptions());
  History Hist = generated(43, 300, /*Inject=*/true);
  std::string Text = writeTextHistory(Hist);
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);

  size_t Cut = Text.find('\n', Text.size() / 2);
  ASSERT_NE(Cut, std::string::npos);
  ++Cut;

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO hot2 cc interval=16"));
  ASSERT_EQ(C.readLine().rfind("OK hot2 new offset=0", 0), 0u);
  ASSERT_TRUE(C.send(Text.substr(0, Cut)));
  ASSERT_TRUE(C.sendLine("DETACH"));
  // DETACH quiesces the pipeline losslessly: every byte sent before it
  // must be applied, and the resume offset must be exact — not the last
  // flush barrier's.
  EXPECT_EQ(C.readUntil("OK detached"), "OK detached hot2");
  C.close();

  TestClient C2;
  ASSERT_TRUE(C2.connect(H.port()));
  ASSERT_TRUE(C2.sendLine("HELLO hot2 cc"));
  std::string Ok = C2.readLine();
  ASSERT_EQ(Ok.rfind("OK hot2 attached offset=" + std::to_string(Cut), 0),
            0u)
      << Ok;
  ASSERT_TRUE(C2.send(Text.substr(Cut)));
  ASSERT_TRUE(C2.sendLine("END"));
  std::string Final = C2.readUntil("FINAL ");
  C2.readUntil("BYE");

  EXPECT_EQ(fileLines(H.sinkDir() + "/hot2.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(stripStreamTag(Final.substr(6), "hot2"), Ref.Summary);
  H.stop();
}

TEST(ServerEndToEnd, HotUpgradeParseErrorReportsLineNumber) {
  ServerHarness H(hotOptions());
  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO hot3 cc"));
  ASSERT_EQ(C.readLine().rfind("OK hot3 new", 0), 0u);
  // Two good lines, then garbage. The pipelined decoder surfaces the
  // failure asynchronously: the ERR lands at the next quiesce point (here,
  // END) but must keep the same "ERR <stream> line N: ..." shape as the
  // inline decoder.
  ASSERT_TRUE(C.send("b 0\nw 1 1\nbogus line\nw 2 2\n"));
  ASSERT_TRUE(C.sendLine("END"));
  std::string Err = C.readUntil("ERR ");
  ASSERT_EQ(Err.rfind("ERR hot3 line 3: ", 0), 0u) << Err;
  // The wedged stream still finalizes what it checked.
  EXPECT_FALSE(C.readUntil("FINAL ").empty());
  EXPECT_EQ(C.readUntil("BYE"), "BYE");
  H.stop();
}

TEST(ServerEndToEnd, ShutdownVerbDrainsTheServer) {
  ServerHarness H;
  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO s cc"));
  ASSERT_EQ(C.readLine().rfind("OK s new", 0), 0u);
  ASSERT_TRUE(C.send("b 0\nw 1 1\nc\n"));
  ASSERT_TRUE(C.sendLine("SHUTDOWN"));
  EXPECT_EQ(C.readUntil("OK shutting-down"), "OK shutting-down");
  // The drain finalizes the session and says goodbye.
  EXPECT_EQ(C.readUntil("BYE"), "BYE");
  H.stop(); // idempotent join
}

//===----------------------------------------------------------------------===//
// Production hardening: auth, per-tenant quotas, slow-client muting, and
// multiplexed framing.
//===----------------------------------------------------------------------===//

TEST(ServerEndToEnd, AuthRejectsBeforeAnySessionStateIsCreated) {
  ServerOptions Base;
  Base.AuthToken = "sesame";
  ServerHarness H(Base);

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO a1 cc"));
  EXPECT_EQ(C.readLine(),
            "ERR auth token required (HELLO ... token=<secret>)");
  ASSERT_TRUE(C.sendLine("HELLO a1 cc token=wrong"));
  EXPECT_EQ(C.readLine(), "ERR auth bad token");

  // The operator verb is behind the same gate: an anonymous connection
  // must not toggle process-wide tracing (which clears the rings) or
  // write dump files.
  ASSERT_TRUE(C.sendLine("TRACE on"));
  EXPECT_EQ(C.readLine().rfind("ERR auth TRACE", 0), 0u);
  ASSERT_TRUE(C.sendLine("TRACE dump"));
  EXPECT_EQ(C.readLine().rfind("ERR auth TRACE", 0), 0u);
  EXPECT_FALSE(obs::traceEnabled());

  // Rejected HELLOs created nothing: no session, no sink, no checkpoint.
  std::string Page = H.server().renderMetrics();
  EXPECT_EQ(metricValue(Page, "awdit_server_sessions_created_total"), 0u)
      << Page;
  EXPECT_EQ(metricValue(Page, "awdit_server_auth_failures_total"), 4u);
  EXPECT_FALSE(std::filesystem::exists(H.sinkDir() + "/a1.jsonl"));
  std::string RejectedStore = checkpointStoreDirFor(H.checkpointDir(), "a1");
  EXPECT_FALSE(StoreCheckpointer::isStoreDir(RejectedStore));
  EXPECT_FALSE(std::filesystem::exists(RejectedStore));

  // The right token attaches normally on the same connection.
  ASSERT_TRUE(C.sendLine("HELLO a1 cc token=sesame"));
  ASSERT_EQ(C.readLine().rfind("OK a1 new", 0), 0u);
  ASSERT_TRUE(C.send("b 0\nw 1 1\nc\n"));
  ASSERT_TRUE(C.sendLine("END"));
  EXPECT_FALSE(C.readUntil("FINAL ").empty());
  EXPECT_EQ(C.readUntil("BYE"), "BYE");
  EXPECT_EQ(metricValue(H.server().renderMetrics(),
                        "awdit_server_sessions_created_total"),
            1u);
  H.stop();
}

TEST(ServerEndToEnd, QuotaRequestsAboveTheServerCapAreRefused) {
  ServerOptions Base;
  Base.MaxInboxBytes = 1 << 20;
  Base.MaxOutQueueBytes = 1 << 20;
  Base.MaxWindowBytes = 1 << 20;
  ServerHarness H(Base);

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  ASSERT_TRUE(C.sendLine("HELLO q1 cc inbox-bytes=2097152"));
  EXPECT_EQ(C.readLine(),
            "ERR quota inbox-bytes=2097152 exceeds server cap 1048576");
  ASSERT_TRUE(C.sendLine("HELLO q1 cc outq-bytes=2097152"));
  EXPECT_EQ(C.readLine(),
            "ERR quota outq-bytes=2097152 exceeds server cap 1048576");
  ASSERT_TRUE(C.sendLine("HELLO q1 cc window-bytes=2097152"));
  EXPECT_EQ(C.readLine(),
            "ERR quota window-bytes=2097152 exceeds server cap 1048576");

  // Refused before any state was created.
  std::string Page = H.server().renderMetrics();
  EXPECT_EQ(metricValue(Page, "awdit_server_quota_rejects_total"), 3u);
  EXPECT_EQ(metricValue(Page, "awdit_server_sessions_created_total"), 0u);

  // Requests at or under the caps attach normally.
  ASSERT_TRUE(C.sendLine("HELLO q1 cc inbox-bytes=1024 outq-bytes=65536 "
                         "window-bytes=1048576"));
  ASSERT_EQ(C.readLine().rfind("OK q1 new", 0), 0u);
  ASSERT_TRUE(C.sendLine("END"));
  EXPECT_FALSE(C.readUntil("FINAL ").empty());
  EXPECT_EQ(C.readUntil("BYE"), "BYE");
  H.stop();
}

TEST(ServerEndToEnd, WindowQuotaTripIsTypedAndDoesNotDisturbNeighbors) {
  ServerHarness H;
  std::string Text = writeTextHistory(generated(61, 250, /*Inject=*/true));
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);

  // The quota-doomed tenant: any live transaction state exceeds a 1-byte
  // self-imposed window quota.
  TestClient A;
  ASSERT_TRUE(A.connect(H.port()));
  ASSERT_TRUE(A.sendLine("HELLO w1 cc interval=16 window-bytes=1"));
  ASSERT_EQ(A.readLine().rfind("OK w1 new", 0), 0u);
  ASSERT_TRUE(A.send(Text));
  ASSERT_TRUE(A.sendLine("END"));

  // A healthy neighbor runs to completion concurrently.
  TestClient B;
  ASSERT_TRUE(B.connect(H.port()));
  ASSERT_TRUE(B.sendLine("HELLO n1 cc interval=16"));
  ASSERT_EQ(B.readLine().rfind("OK n1 new", 0), 0u);
  ASSERT_TRUE(B.send(Text));
  ASSERT_TRUE(B.sendLine("END"));
  std::string FinalB = B.readUntil("FINAL ");
  B.readUntil("BYE");

  // The doomed tenant got the typed refusal, then still finalized.
  std::string Err = A.readUntil("ERR quota ");
  ASSERT_FALSE(Err.empty());
  EXPECT_NE(Err.find("window-bytes"), std::string::npos) << Err;
  EXPECT_NE(Err.find("exceeds quota 1"), std::string::npos) << Err;
  EXPECT_FALSE(A.readUntil("FINAL ").empty());
  EXPECT_EQ(A.readUntil("BYE"), "BYE");

  // The neighbor's record is the standalone one, untouched by the trip.
  EXPECT_EQ(fileLines(H.sinkDir() + "/n1.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(stripStreamTag(FinalB.substr(6), "n1"), Ref.Summary);
  EXPECT_GE(metricValue(H.server().renderMetrics(),
                        "awdit_server_quota_trips_total"),
            1u);
  H.stop();
}

TEST(ServerEndToEnd, SlowReaderIsMutedWithoutDisturbingNeighbors) {
  ServerOptions Base;
  Base.SockSndBuf = 4096; // make the userspace output queue binding
  ServerHarness H(Base);

  // The slow client: a tiny output quota, a flood of STATS requests, and
  // a reader that never reads. Its replies overflow the queue and the
  // server mutes it — a counted disconnect, not a blocked write(2).
  TestClient A;
  ASSERT_TRUE(A.connect(H.port()));
  ASSERT_TRUE(A.sendLine("HELLO slow cc outq-bytes=1024"));
  ASSERT_EQ(A.readLine().rfind("OK slow new", 0), 0u);
  std::string Flood;
  for (int I = 0; I < 4000; ++I)
    Flood += "STATS\n";
  ASSERT_TRUE(A.send(Flood));

  // Meanwhile a neighbor completes a full byte-identical run.
  std::string Text = writeTextHistory(generated(62, 250, /*Inject=*/true));
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref = referenceRun(Text, Options);
  TestClient B;
  ASSERT_TRUE(B.connect(H.port()));
  ASSERT_TRUE(B.sendLine("HELLO live cc interval=16"));
  ASSERT_EQ(B.readLine().rfind("OK live new", 0), 0u);
  ASSERT_TRUE(B.send(Text));
  ASSERT_TRUE(B.sendLine("END"));
  std::string Final = B.readUntil("FINAL ");
  B.readUntil("BYE");
  EXPECT_EQ(fileLines(H.sinkDir() + "/live.jsonl"), Ref.ViolationLines);
  EXPECT_EQ(stripStreamTag(Final.substr(6), "live"), Ref.Summary);

  // The slow client was muted (counted), and the event loop never sat in
  // a blocked write: the old SO_SNDTIMEO path would show multi-second
  // stalls here.
  uint64_t Drops = 0;
  for (int Tries = 0; Tries < 100 && Drops == 0; ++Tries) {
    Drops = metricValue(H.server().renderMetrics(),
                        "awdit_server_slow_client_disconnects_total");
    if (Drops == 0 || Drops == ~0ull)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::string Page = H.server().renderMetrics();
  EXPECT_GE(metricValue(Page, "awdit_server_slow_client_disconnects_total"),
            1u)
      << Page;
  EXPECT_LT(metricValue(Page, "awdit_server_poll_max_stall_micros"),
            2000000u)
      << Page;
  H.stop();
}

TEST(ServerEndToEnd, MuxConnectionHostsManyTenantsByteIdentical) {
  ServerHarness H;
  std::string T1 = writeTextHistory(generated(71, 250, /*Inject=*/true));
  std::string T2 = writeTextHistory(generated(72, 250, /*Inject=*/false));
  MonitorOptions Options;
  Options.Level = IsolationLevel::CausalConsistency;
  Options.CheckIntervalTxns = 16;
  Options.Check.MaxWitnesses = 4;
  Reference Ref1 = referenceRun(T1, Options);
  Reference Ref2 = referenceRun(T2, Options);
  ASSERT_FALSE(Ref1.ViolationLines.empty());

  TestClient C;
  ASSERT_TRUE(C.connect(H.port()));
  // HELLO is unframed (it names its stream); its reply carries the tag.
  ASSERT_TRUE(C.sendLine("HELLO m1 cc interval=16 mux=on"));
  EXPECT_EQ(C.readLine(), "@m1 OK m1 new offset=0 line=0");
  ASSERT_TRUE(C.sendLine("HELLO m2 cc interval=16 mux=on"));
  EXPECT_EQ(C.readLine(), "@m2 OK m2 new offset=0 line=0");

  // Interleave the two streams in line-aligned halves via switch frames.
  size_t Cut1 = T1.find('\n', T1.size() / 2) + 1;
  size_t Cut2 = T2.find('\n', T2.size() / 2) + 1;
  ASSERT_TRUE(C.send("@m1\n" + T1.substr(0, Cut1)));
  ASSERT_TRUE(C.send("@m2\n" + T2.substr(0, Cut2)));
  ASSERT_TRUE(C.send("@m1\n" + T1.substr(Cut1)));
  ASSERT_TRUE(C.send("@m2\n" + T2.substr(Cut2)));

  // An explicitly-routed verb replies under that stream's tag.
  ASSERT_TRUE(C.sendLine("@m1 STATS"));
  std::string Stats = C.readUntil("@m1 STATS ");
  EXPECT_NE(Stats.find("\"stream\":\"m1\""), std::string::npos) << Stats;
  // Routing to a stream this connection never attached is refused.
  ASSERT_TRUE(C.sendLine("@nosuch b 0"));
  EXPECT_EQ(C.readUntil("ERR mux: unknown"),
            "ERR mux: unknown stream 'nosuch'");

  ASSERT_TRUE(C.sendLine("@m1 END"));
  ASSERT_TRUE(C.sendLine("@m2 END"));
  std::string Final1, Final2;
  int ByesLeft = 2;
  while (ByesLeft > 0) {
    std::string Line = C.readLine();
    ASSERT_FALSE(Line.empty());
    if (Line.rfind("@m1 FINAL ", 0) == 0)
      Final1 = Line.substr(10);
    else if (Line.rfind("@m2 FINAL ", 0) == 0)
      Final2 = Line.substr(10);
    else if (Line == "@m1 BYE" || Line == "@m2 BYE")
      --ByesLeft;
  }

  // Each multiplexed tenant's record equals its standalone run.
  EXPECT_EQ(stripStreamTag(Final1, "m1"), Ref1.Summary);
  EXPECT_EQ(stripStreamTag(Final2, "m2"), Ref2.Summary);
  EXPECT_EQ(fileLines(H.sinkDir() + "/m1.jsonl"), Ref1.ViolationLines);
  EXPECT_EQ(fileLines(H.sinkDir() + "/m2.jsonl"), Ref2.ViolationLines);
  EXPECT_NE(Final2.find("\"consistent\":true"), std::string::npos);
  H.stop();
}

TEST(ServerEndToEnd, MuxFramingEdgeCases) {
  ServerHarness H;

  // Plain and mux framing cannot mix on one connection.
  TestClient P;
  ASSERT_TRUE(P.connect(H.port()));
  ASSERT_TRUE(P.sendLine("HELLO p1 cc"));
  ASSERT_EQ(P.readLine().rfind("OK p1 new", 0), 0u);
  ASSERT_TRUE(P.sendLine("HELLO p2 cc mux=on"));
  EXPECT_EQ(P.readLine(),
            "ERR cannot mix mux and plain framing on one connection");

  TestClient M;
  ASSERT_TRUE(M.connect(H.port()));
  ASSERT_TRUE(M.sendLine("HELLO x1 cc mux=on"));
  ASSERT_EQ(M.readLine().rfind("@x1 OK x1 new", 0), 0u);
  // Bare lines go to the current stream; an escaped `@@` line reaches the
  // session as a literal `@...` data line — which the parser rejects with
  // the stream's own tagged, line-numbered ERR (proof the unescape
  // happened and landed on the right tenant).
  ASSERT_TRUE(M.sendLine("b 0"));
  ASSERT_TRUE(M.sendLine("@@oops"));
  ASSERT_TRUE(M.sendLine("@x1 END"));
  std::string Err = M.readUntil("@x1 ERR ");
  EXPECT_NE(Err.find("x1 line 2:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("@oops"), std::string::npos) << Err;
  M.readUntil("@x1 BYE");

  TestClient M2;
  ASSERT_TRUE(M2.connect(H.port()));
  ASSERT_TRUE(M2.sendLine("HELLO z1 cc mux=on"));
  ASSERT_EQ(M2.readLine().rfind("@z1 OK z1 new", 0), 0u);
  // HELLO must stay unframed; a frame with no stream name is malformed;
  // a duplicate attach on the same connection is refused under its tag.
  ASSERT_TRUE(M2.sendLine("@z1 HELLO other cc"));
  EXPECT_EQ(M2.readLine(),
            "ERR mux: send HELLO unframed (it names its stream)");
  ASSERT_TRUE(M2.sendLine("@"));
  EXPECT_EQ(M2.readLine(),
            "ERR mux: malformed frame (want '@<stream> [line]')");
  ASSERT_TRUE(M2.sendLine("HELLO z1 cc mux=on"));
  EXPECT_EQ(M2.readLine(),
            "@z1 ERR already attached to stream 'z1' on this connection");
  // Ending the only stream clears the current-stream cursor: bare data
  // needs an explicit switch again.
  ASSERT_TRUE(M2.sendLine("@z1 END"));
  M2.readUntil("@z1 BYE");
  ASSERT_TRUE(M2.sendLine("b 0"));
  EXPECT_EQ(M2.readLine(),
            "ERR mux: no current stream (switch with '@<stream>')");
  H.stop();
}

} // namespace
