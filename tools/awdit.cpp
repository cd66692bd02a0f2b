//===- tools/awdit.cpp - The AWDIT command-line tester ----------------------===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The awdit command-line tool: check history files against weak isolation
/// levels, print history statistics, generate benchmark histories with the
/// database simulator, and emit §4 reduction histories.
///
/// \code
///   awdit check <file> --level rc|ra|cc [--format native|plume|dbcop]
///   awdit monitor <file|-> --level rc|ra|cc [--format native|plume|dbcop]
///       [--interval N] [--window N] [--window-age T] [--force-abort T]
///   awdit stats <file> [--format ...]
///   awdit generate --bench c-twitter --sessions 50 --txns 1000 ...
///       --mode causal --seed 7 --out history.txt [--inject <anomaly>]
///   awdit reduce --nodes 64 --edge-prob 0.1 --variant general --out h.txt
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "checker/checker.h"
#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/shrinker.h"
#include "checker/stats_snapshot.h"
#include "checker/violation_sink.h"
#include "history/history_stats.h"
#include "io/dbcop_format.h"
#include "io/plume_format.h"
#include "io/sharded_ingest.h"
#include "io/stream_parser.h"
#include "io/text_format.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "reduction/reductions.h"
#include "server/server.h"
#include "sim/anomaly_injector.h"
#include "support/serialize.h"
#include "support/thread_pool.h"
#include "workload/generator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace awdit;

namespace {

/// The flags each command reads. Anything else is refused up front, so a
/// misspelled or retired flag cannot silently change what a run does.
const std::map<std::string, std::set<std::string>> CommandFlags = {
    {"check", {"level", "format", "witnesses", "threads", "json"}},
    {"batch", {"level", "format", "witnesses", "jobs", "json"}},
    {"monitor",
     {"level", "format", "interval", "window", "window-edges", "window-age",
      "force-abort", "witnesses", "threads", "checkpoint-store",
      "checkpoint-interval", "resume", "kill-after-flushes",
      "stats-interval", "trace", "json"}},
    {"serve",
     {"host", "port", "metrics-port", "checkpoint-store-dir", "sink-dir",
      "trace-dir", "threads", "shard-hot-sessions", "hot-bytes-per-sec",
      "idle-timeout", "checkpoint-interval", "auth-token",
      "max-inbox-bytes", "max-outq-bytes", "max-window-bytes",
      "sock-sndbuf"}},
    {"stats", {"format"}},
    {"generate",
     {"bench", "sessions", "txns", "seed", "abort-prob", "mode", "inject",
      "out", "format"}},
    {"reduce", {"nodes", "edge-prob", "seed", "variant", "out", "format"}},
    {"shrink", {"level", "out", "format", "max-checks"}},
};

/// Parsed command-line flags: everything after the positional arguments.
struct Flags {
  std::map<std::string, std::string> Values;

  const std::string *get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? nullptr : &It->second;
  }

  std::string getOr(const std::string &Name, const std::string &Def) const {
    const std::string *V = get(Name);
    return V ? *V : Def;
  }
};

/// Parses flag --\p Name as an unsigned integer, exiting with a clean
/// message (instead of an uncaught std::stoul throw) on garbage input.
uint64_t numFlag(const Flags &F, const std::string &Name,
                 const std::string &Def) {
  std::string Text = F.getOr(Name, Def);
  uint64_t Value = 0;
  size_t Used = 0;
  try {
    // stoull would silently wrap negatives ("-1" -> 2^64-1); require a
    // plain digit string.
    if (!Text.empty() && Text.find_first_not_of("0123456789") ==
                             std::string::npos)
      Value = std::stoull(Text, &Used);
  } catch (...) {
  }
  if (Used == 0 || Used != Text.size()) {
    std::fprintf(stderr, "error: --%s expects a number, got '%s'\n",
                 Name.c_str(), Text.c_str());
    std::exit(2);
  }
  return Value;
}

/// Parses flag --\p Name as a floating-point number, with the same clean
/// failure mode as numFlag.
double floatFlag(const Flags &F, const std::string &Name,
                 const std::string &Def) {
  std::string Text = F.getOr(Name, Def);
  double Value = 0;
  size_t Used = 0;
  try {
    Value = std::stod(Text, &Used);
  } catch (...) {
  }
  if (Used == 0 || Used != Text.size()) {
    std::fprintf(stderr, "error: --%s expects a number, got '%s'\n",
                 Name.c_str(), Text.c_str());
    std::exit(2);
  }
  return Value;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  awdit check <file> --level rc|ra|cc [--format native|plume|dbcop]"
      " [--witnesses N]\n"
      "                 [--threads N (0 = all cores, 1 = sequential)]"
      " [--json]\n"
      "  awdit batch <file>... --level rc|ra|cc|all [--format F]"
      " [--jobs N] [--witnesses N] [--json]\n"
      "  awdit monitor <file|-> --level rc|ra|cc"
      " [--format native|plume|dbcop]\n"
      "                 [--interval N] [--window N] [--window-edges N]\n"
      "                 [--window-age TICKS] [--force-abort TICKS]"
      " [--witnesses N] [--json]\n"
      "                 [--threads N (0 = auto, 1 = the legacy"
      " single-threaded path;\n"
      "                  N >= 2 shards parsing across N-1 workers +"
      " 1 applier)]\n"
      "                 [--checkpoint-store DIR (checkpoint the monitor"
      " every K checking\n"
      "                  passes into an append-only segment store; each"
      " checkpoint writes\n"
      "                  only the chunks that changed — O(delta), not"
      " O(state); K set by\n"
      "                  --checkpoint-interval, default 16)]\n"
      "                 [--resume DIR (restart from the checkpoint store"
      " DIR: seeks the\n"
      "                  stream, restores all state, emits exactly the"
      " violations an\n"
      "                  uninterrupted run would emit from the checkpoint"
      " on; other\n"
      "                  flags must match the checkpoint or be"
      " omitted)]\n"
      "                 [--kill-after-flushes N (testing aid: SIGKILL"
      " self after N\n"
      "                  checking passes, for kill/resume drills)]\n"
      "                 [--stats-interval SEC (print a one-line stats"
      " summary — counters\n"
      "                  plus p50/p99 flush latency over the interval —"
      " to stderr every\n"
      "                  SEC seconds, at checking-pass boundaries)]\n"
      "                 [--trace FILE (record spans for the whole run and"
      " write a\n"
      "                  Chrome-trace JSON file at the end; open it in"
      " Perfetto)]\n"
      "  awdit serve --port P [--host ADDR (default 127.0.0.1)]"
      " [--metrics-port P]\n"
      "                 [--checkpoint-store-dir DIR (persist one"
      " checkpoint store per\n"
      "                  stream; a restarted server resumes every"
      " tenant)]\n"
      "                 [--sink-dir DIR"
      " (per-stream JSONL\n"
      "                  violation logs)] [--threads N] [--idle-timeout"
      " SEC (default 300)]\n"
      "                 [--checkpoint-interval FLUSHES (default 16)]\n"
      "                 [--shard-hot-sessions N (threads per hot session;"
      " 0 off,\n"
      "                  default auto: 4 when the pool has >= 4)]"
      " [--hot-bytes-per-sec B]\n"
      "                 [--auth-token SECRET (require HELLO ..."
      " token=SECRET; rejected\n"
      "                  sessions never create state)]\n"
      "                 [--max-inbox-bytes B (per-session inbox"
      " backpressure quota;\n"
      "                  default/cap for HELLO inbox-bytes=,"
      " default 4MiB)]\n"
      "                 [--max-outq-bytes B (per-connection output-queue"
      " quota; a client\n"
      "                  not reading past this is disconnected;"
      " default 8MiB)]\n"
      "                 [--max-window-bytes B (per-tenant window-memory"
      " quota; over-quota\n"
      "                  streams get 'ERR quota' and wedge;"
      " default unlimited)]\n"
      "                 [--sock-sndbuf B (SO_SNDBUF for client sockets;"
      " testing/tuning)]\n"
      "                 [--trace-dir DIR (where the TRACE dump verb writes"
      " Chrome-trace\n"
      "                  JSON files; without it TRACE dump is rejected)]\n"
      "                 (wire protocol: docs/PROTOCOL.md; operations:"
      " docs/OPERATIONS.md)\n"
      "  awdit stats <file> [--format native|plume|dbcop]\n"
      "  awdit generate --bench random|c-twitter|tpc-c|rubis"
      " [--sessions N] [--txns N]\n"
      "                 [--mode serializable|causal|read-atomic|"
      "read-committed]\n"
      "                 [--seed S] [--abort-prob P] [--inject ANOMALY]"
      " --out FILE [--format F]\n"
      "  awdit reduce --nodes N [--edge-prob P] [--seed S]"
      " [--variant general|ra2|rc1] --out FILE\n"
      "  awdit shrink <file> --level rc|ra|cc --out FILE"
      " [--format F] [--max-checks N]\n");
  return 2;
}

std::optional<History> loadHistory(const std::string &Path,
                                   const std::string &Format,
                                   std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot open '" + Path + "'";
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  if (Format == "native")
    return parseTextHistory(Text, Err);
  if (Format == "plume")
    return parsePlumeHistory(Text, Err);
  if (Format == "dbcop")
    return parseDbcopHistory(Text, Err);
  *Err = "unknown format '" + Format + "'";
  return std::nullopt;
}

bool saveHistory(const History &H, const std::string &Path,
                 const std::string &Format, std::string *Err) {
  std::string Text;
  if (Format == "native")
    Text = writeTextHistory(H);
  else if (Format == "plume")
    Text = writePlumeHistory(H);
  else if (Format == "dbcop")
    Text = writeDbcopHistory(H);
  else {
    *Err = "unknown format '" + Format + "'";
    return false;
  }
  std::ofstream Out(Path);
  if (!Out) {
    *Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << Text;
  return true;
}

std::optional<AnomalyKind> parseAnomaly(const std::string &Name) {
  if (Name == "thin-air")
    return AnomalyKind::ThinAirRead;
  if (Name == "aborted-read")
    return AnomalyKind::AbortedRead;
  if (Name == "future-read")
    return AnomalyKind::FutureRead;
  if (Name == "fractured-read")
    return AnomalyKind::FracturedRead;
  if (Name == "non-monotonic-read")
    return AnomalyKind::NonMonotonicRead;
  if (Name == "causal-violation")
    return AnomalyKind::CausalViolation;
  if (Name == "causality-cycle")
    return AnomalyKind::CausalityCycle;
  return std::nullopt;
}

/// Serializes one file's check result as a single JSON object (one line):
/// verdict, violations with kinds/witness cycles/descriptions, and stats.
/// Shares the violation serializer with the monitor's JSON-lines sink.
std::string reportToJson(const std::string &Path, IsolationLevel Level,
                         const CheckReport &Report, const History &H) {
  std::string Out = "{\"file\":\"";
  appendJsonEscaped(Out, Path);
  Out += "\",\"level\":\"";
  appendJsonEscaped(Out, isolationLevelName(Level));
  Out += "\",\"consistent\":";
  Out += Report.Consistent ? "true" : "false";
  Out += ",\"violations\":[";
  for (size_t I = 0; I < Report.Violations.size(); ++I) {
    if (I)
      Out += ',';
    std::string Desc = Report.Violations[I].describe(H);
    Out += violationToJson(Report.Violations[I], &Desc);
  }
  Out += "],\"stats\":{\"inferred_edges\":" +
         std::to_string(Report.Stats.InferredEdges) +
         ",\"graph_edges\":" + std::to_string(Report.Stats.GraphEdges) +
         ",\"used_fast_path\":";
  Out += Report.Stats.UsedFastPath ? "true" : "false";
  Out += "}}";
  return Out;
}

int cmdCheck(const std::string &Path, const Flags &F) {
  std::optional<IsolationLevel> Level =
      parseIsolationLevel(F.getOr("level", ""));
  if (!Level) {
    std::fprintf(stderr, "error: --level rc|ra|cc is required\n");
    return 2;
  }
  std::string Err;
  std::optional<History> H =
      loadHistory(Path, F.getOr("format", "native"), &Err);
  if (!H) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }

  CheckOptions Options;
  Options.MaxWitnesses =
      static_cast<size_t>(numFlag(F, "witnesses", "16"));
  Options.Threads =
      static_cast<unsigned>(numFlag(F, "threads", "0"));
  CheckReport Report = checkIsolation(*H, *Level, Options);
  if (F.get("json")) {
    std::printf("%s\n", reportToJson(Path, *Level, Report, *H).c_str());
    return Report.Consistent ? 0 : 1;
  }
  if (Report.Consistent) {
    std::printf("consistent: history satisfies %s\n",
                isolationLevelName(*Level));
    return 0;
  }
  std::printf("INCONSISTENT: history violates %s (%zu violation%s)\n",
              isolationLevelName(*Level), Report.Violations.size(),
              Report.Violations.size() == 1 ? "" : "s");
  for (const Violation &V : Report.Violations)
    std::printf("  %s\n", V.describe(*H).c_str());
  return 1;
}

/// Checks many histories (and possibly all levels) concurrently: one pool
/// task per file, each loading once and checking every requested level
/// sequentially. Results print in input order, so output is deterministic
/// regardless of scheduling. Exit code: 2 on any load error, else 1 if any
/// check was inconsistent, else 0.
int cmdBatch(const std::vector<std::string> &Paths, const Flags &F) {
  std::string LevelName = F.getOr("level", "all");
  std::vector<IsolationLevel> Levels;
  if (LevelName == "all") {
    Levels.assign(std::begin(AllIsolationLevels),
                  std::end(AllIsolationLevels));
  } else {
    std::optional<IsolationLevel> Level = parseIsolationLevel(LevelName);
    if (!Level) {
      std::fprintf(stderr, "error: --level rc|ra|cc|all is required\n");
      return 2;
    }
    Levels.push_back(*Level);
  }

  CheckOptions Options;
  Options.MaxWitnesses =
      static_cast<size_t>(numFlag(F, "witnesses", "0"));
  // Concurrency across histories; each individual check stays sequential
  // so the batch scales with the number of files, not inside one file.
  Options.Threads = 1;
  std::string Format = F.getOr("format", "native");

  bool Json = F.get("json") != nullptr;
  struct FileResult {
    std::string Error;
    std::vector<CheckReport> Reports; // parallel to Levels
    std::vector<std::string> JsonLines;
  };
  std::vector<FileResult> Results(Paths.size());

  size_t Jobs = numFlag(F, "jobs", "0");
  ThreadPool Pool(Jobs);
  Pool.parallelFor(0, Paths.size(), 1, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      std::optional<History> H =
          loadHistory(Paths[I], Format, &Results[I].Error);
      if (!H)
        continue;
      for (IsolationLevel Level : Levels) {
        Results[I].Reports.push_back(checkIsolation(*H, Level, Options));
        if (Json)
          Results[I].JsonLines.push_back(reportToJson(
              Paths[I], Level, Results[I].Reports.back(), *H));
      }
    }
  });

  bool AnyError = false, AnyInconsistent = false;
  for (size_t I = 0; I < Paths.size(); ++I) {
    const FileResult &R = Results[I];
    if (!R.Error.empty()) {
      if (Json) {
        std::string Line = "{\"file\":\"";
        appendJsonEscaped(Line, Paths[I]);
        Line += "\",\"error\":\"";
        appendJsonEscaped(Line, R.Error);
        Line += "\"}";
        std::printf("%s\n", Line.c_str());
      } else {
        std::printf("%s: error: %s\n", Paths[I].c_str(), R.Error.c_str());
      }
      AnyError = true;
      continue;
    }
    for (size_t L = 0; L < Levels.size(); ++L) {
      const CheckReport &Report = R.Reports[L];
      if (!Report.Consistent)
        AnyInconsistent = true;
      if (Json) {
        std::printf("%s\n", R.JsonLines[L].c_str());
      } else if (Report.Consistent) {
        std::printf("%s %s: consistent\n", Paths[I].c_str(),
                    isolationLevelName(Levels[L]));
      } else {
        std::printf("%s %s: INCONSISTENT (%zu violation%s)\n",
                    Paths[I].c_str(), isolationLevelName(Levels[L]),
                    Report.Violations.size(),
                    Report.Violations.size() == 1 ? "" : "s");
      }
    }
  }
  return AnyError ? 2 : AnyInconsistent ? 1 : 0;
}

/// Set by the SIGINT handler of `awdit monitor`: stop reading, flush what
/// we have, emit final stats. Installed without SA_RESTART so a blocking
/// stdin read is interrupted instead of resumed.
volatile std::sig_atomic_t MonitorInterrupted = 0;

extern "C" void monitorSigintHandler(int) { MonitorInterrupted = 1; }

/// Compatibility check for `--resume`: an explicitly given flag that
/// contradicts the checkpoint is an error (the snapshot only continues the
/// exact run it was taken from). Diagnostics follow the parse-error style:
/// the offending file, what it holds, what the command line said.
bool resumeFlagConflict(const std::string &CkptFile, const Flags &F,
                        const char *Flag, const std::string &InCheckpoint) {
  const std::string *Given = F.get(Flag);
  if (!Given || *Given == InCheckpoint)
    return false;
  std::fprintf(stderr,
               "error: %s: checkpoint was written with --%s %s, "
               "incompatible with --%s %s\n",
               CkptFile.c_str(), Flag, InCheckpoint.c_str(), Flag,
               Given->c_str());
  return true;
}

/// Tails a history stream (native, plume, or dbcop format) from a file or
/// stdin ("-"), feeding a streaming Monitor that emits violations live —
/// human one-liners or JSON lines — while a window bounds memory if
/// requested. `--threads N` shards the parsing work across cores
/// (io/sharded_ingest.h) with bit-identical output; `--checkpoint-store
/// DIR` checkpoints the full monitor state at flush boundaries so
/// `--resume DIR` can restart mid-stream after a crash. EOF and SIGINT
/// both finalize: trailing violations are flushed to the sink and the
/// final stats line is emitted, so tail mode never drops what it already
/// saw.
int cmdMonitor(const std::string &Path, const Flags &F) {
  std::string Format = F.getOr("format", "native");
  MonitorOptions Options;

  const std::string *ResumeDir = F.get("resume");
  CheckpointMeta ResumeMeta;
  std::unique_ptr<StoreCheckpointer> StoreCkpt;
  if (ResumeDir) {
    const std::string &CkptFile = *ResumeDir;
    // Only a checkpoint store resumes; opening anything else would create
    // an empty store in its place.
    if (!StoreCheckpointer::isStoreDir(CkptFile)) {
      std::fprintf(stderr,
                   "error: %s: not a checkpoint store (--resume takes a "
                   "directory written by --checkpoint-store)\n",
                   CkptFile.c_str());
      return 2;
    }
    std::string Err;
    StoreCkpt = std::make_unique<StoreCheckpointer>();
    if (!StoreCkpt->open(CkptFile, &Err) ||
        !StoreCkpt->readMeta(ResumeMeta, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", CkptFile.c_str(), Err.c_str());
      return 2;
    }
    // The checkpoint dictates the configuration; explicitly given flags must
    // agree with it or the resumed run would not continue the same check.
    // The level compares as a parsed value, not as text — the display name
    // ("CC") and the flag spelling ("cc") differ in case.
    if (const std::string *GivenLevel = F.get("level")) {
      std::optional<IsolationLevel> Parsed =
          parseIsolationLevel(*GivenLevel);
      if (!Parsed || *Parsed != ResumeMeta.Options.Level) {
        std::fprintf(stderr,
                     "error: %s: checkpoint was written with --level %s, "
                     "incompatible with --level %s\n",
                     CkptFile.c_str(),
                     isolationLevelName(ResumeMeta.Options.Level),
                     GivenLevel->c_str());
        return 2;
      }
    }
    if (resumeFlagConflict(CkptFile, F, "format", ResumeMeta.Format) ||
        resumeFlagConflict(
            CkptFile, F, "interval",
            std::to_string(ResumeMeta.Options.CheckIntervalTxns)) ||
        resumeFlagConflict(CkptFile, F, "window",
                           std::to_string(ResumeMeta.Options.WindowTxns)) ||
        resumeFlagConflict(CkptFile, F, "window-edges",
                           std::to_string(ResumeMeta.Options.WindowEdges)) ||
        resumeFlagConflict(
            CkptFile, F, "window-age",
            std::to_string(ResumeMeta.Options.WindowAgeTicks)) ||
        resumeFlagConflict(
            CkptFile, F, "force-abort",
            std::to_string(ResumeMeta.Options.ForceAbortOpenTicks)) ||
        resumeFlagConflict(
            CkptFile, F, "witnesses",
            std::to_string(ResumeMeta.Options.Check.MaxWitnesses)))
      return 2;
    Options = ResumeMeta.Options;
    Format = ResumeMeta.Format;
  } else {
    std::optional<IsolationLevel> Level =
        parseIsolationLevel(F.getOr("level", ""));
    if (!Level) {
      std::fprintf(stderr, "error: --level rc|ra|cc is required\n");
      return 2;
    }
    Options.Level = *Level;
    Options.Check.MaxWitnesses =
        static_cast<size_t>(numFlag(F, "witnesses", "4"));
    Options.CheckIntervalTxns =
        static_cast<size_t>(numFlag(F, "interval", "256"));
    Options.WindowTxns = static_cast<size_t>(numFlag(F, "window", "0"));
    Options.WindowEdges =
        static_cast<size_t>(numFlag(F, "window-edges", "0"));
    Options.WindowAgeTicks = numFlag(F, "window-age", "0");
    Options.ForceAbortOpenTicks = numFlag(F, "force-abort", "0");
  }

  unsigned Threads = static_cast<unsigned>(numFlag(F, "threads", "0"));
  if (Threads == 0) {
    // Auto: one applier plus enough parsing shards to keep it fed; more
    // than a handful of tokenizers just contend on the deal.
    unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
    Threads = std::min(Hw, 8u);
  }

  // A resumed run keeps checkpointing into its own store unless told
  // otherwise — restartability should survive the restart.
  const std::string *StoreDir = F.get("checkpoint-store");
  if (!StoreDir)
    StoreDir = ResumeDir;
  uint64_t CkptInterval = numFlag(F, "checkpoint-interval", "16");
  if (CkptInterval == 0) {
    std::fprintf(stderr,
                 "error: --checkpoint-interval expects a positive number "
                 "of checking passes, got '%s'\n",
                 F.getOr("checkpoint-interval", "16").c_str());
    return 2;
  }
  uint64_t KillAfter = numFlag(F, "kill-after-flushes", "0");
  uint64_t StatsIntervalSec = numFlag(F, "stats-interval", "0");
  const std::string *TracePath = F.get("trace");
  if (TracePath) {
    // Record the whole run: clear any stale rings, flip the flag before
    // the first byte is read, and name the main thread for the viewer.
    obs::traceClear();
    obs::setTraceThreadName("reader");
    obs::setTraceEnabled(true);
  }

  bool Json = F.get("json") != nullptr;
  JsonLinesSink JsonSink(std::cout);
  CallbackSink TextSink([](const Violation &, const std::string &Desc) {
    std::printf("VIOLATION %s\n", Desc.c_str());
    std::fflush(stdout);
  });
  Monitor M(Options, Json ? static_cast<ViolationSink *>(&JsonSink)
                          : static_cast<ViolationSink *>(&TextSink));

  std::string MachineState;
  if (ResumeDir) {
    std::string Err;
    if (!StoreCkpt->restore(M, MachineState, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", ResumeDir->c_str(),
                   Err.c_str());
      return 2;
    }
  }
  // The write store: usually the one just restored from, but an explicit
  // --checkpoint-store may point elsewhere.
  if (StoreDir && (!StoreCkpt || *StoreDir != *ResumeDir)) {
    StoreCkpt = std::make_unique<StoreCheckpointer>();
    std::string Err;
    if (!StoreCkpt->open(*StoreDir, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", StoreDir->c_str(),
                   Err.c_str());
      return 2;
    }
  }

  // Epoch-barrier hook, run on the applier thread after every completed
  // checking pass: write a checkpoint every CkptInterval flushes, then
  // (testing aid) kill the process when asked to rehearse a crash.
  uint64_t LastCkptFlush = ResumeDir ? ResumeMeta.Flushes : 0;
  auto LastStatsPrint = std::chrono::steady_clock::now();
  obs::HistogramSnapshot LastFlushSnap;
  ShardedMonitorIngest::FlushHook Hook;
  if (StoreDir || KillAfter || StatsIntervalSec) {
    Hook = [&, StoreDir, CkptInterval, KillAfter, StatsIntervalSec,
            Format](const IngestFlushPoint &P) mutable {
      // Periodic one-line stats (stderr, at checking-pass boundaries):
      // the same counters the server's /metrics endpoint exports, plus
      // per-interval flush-latency quantiles (the cumulative histogram
      // minus its previous snapshot — fresh numbers every line, not a
      // since-startup average).
      if (StatsIntervalSec) {
        auto Now = std::chrono::steady_clock::now();
        if (Now - LastStatsPrint >=
            std::chrono::seconds(StatsIntervalSec)) {
          LastStatsPrint = Now;
          obs::HistogramSnapshot Snap = P.M.flushLatency().snapshot();
          obs::HistogramSnapshot Delta = Snap;
          Delta.minus(LastFlushSnap);
          LastFlushSnap = std::move(Snap);
          std::fprintf(
              stderr,
              "stats: %s flush_p50_us=%llu flush_p99_us=%llu\n",
              StatsSnapshot::of(P.M.stats()).toLine().c_str(),
              static_cast<unsigned long long>(Delta.percentile(0.50)),
              static_cast<unsigned long long>(Delta.percentile(0.99)));
        }
      }
      if (StoreDir && P.Flushes - LastCkptFlush >= CkptInterval) {
        CheckpointMeta Meta;
        Meta.Format = Format;
        Meta.Options = Options;
        Meta.StreamOffset = P.StreamOffset;
        Meta.LineNo = P.LineNo;
        Meta.CommittedTxns = P.CommittedTxns;
        Meta.Flushes = P.Flushes;
        std::string MBlob;
        ByteWriter MW(MBlob);
        P.Machine.saveState(MW);
        std::string Err;
        if (!StoreCkpt->write(P.M, MBlob, Meta, &Err))
          std::fprintf(stderr, "warning: checkpoint not written: %s\n",
                       Err.c_str());
        else
          LastCkptFlush = P.Flushes;
      }
      if (KillAfter && P.Flushes >= KillAfter) {
        // Rehearse the crash the checkpoints exist for: no cleanup, no
        // flush, the hard way.
        raise(SIGKILL);
      }
    };
  }

  ShardedMonitorIngest Ingest(M, Format, Threads, std::move(Hook));
  if (!Ingest.valid()) {
    std::fprintf(stderr, "error: unknown format '%s'\n", Format.c_str());
    return 2;
  }
  if (ResumeDir) {
    ByteReader MR(MachineState);
    if (!Ingest.machine().loadState(MR)) {
      std::fprintf(stderr, "error: %s: corrupted checkpoint (parser state)\n",
                   ResumeDir->c_str());
      return 2;
    }
    Ingest.primeResume(ResumeMeta.StreamOffset, ResumeMeta.LineNo);
  }

  std::FILE *In = Path == "-" ? stdin : std::fopen(Path.c_str(), "rb");
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 2;
  }

  MonitorInterrupted = 0;
  struct sigaction Action = {};
  struct sigaction OldAction = {};
  Action.sa_handler = monitorSigintHandler;
  sigemptyset(&Action.sa_mask);
  Action.sa_flags = 0; // no SA_RESTART: interrupt the blocking read
  sigaction(SIGINT, &Action, &OldAction);

  // Raw-fd reads, not stdio: read(2) returns whatever a pipe has right
  // now, so a trickling `tail -f` stream reaches the checker (and emits
  // its violations) line by line — fread would block until a full buffer
  // accumulated, stalling live monitoring.
  int Fd = fileno(In);
  char Buffer[1 << 16];
  bool Ok = true;
  if (ResumeDir && ResumeMeta.StreamOffset > 0) {
    // Skip what the checkpoint already applied: seek a real file, read and
    // discard on a pipe.
    if (lseek(Fd, static_cast<off_t>(ResumeMeta.StreamOffset), SEEK_SET) <
        0) {
      uint64_t Left = ResumeMeta.StreamOffset;
      while (Left > 0 && !MonitorInterrupted) {
        size_t Want = std::min<uint64_t>(Left, sizeof(Buffer));
        ssize_t N = read(Fd, Buffer, Want);
        if (N < 0 && errno == EINTR)
          continue; // SIGINT sets the flag; the loop condition sees it
        if (N <= 0)
          break;
        Left -= static_cast<uint64_t>(N);
      }
    }
  }
  // Zero-copy ingest: read(2) lands directly in the pipeline's arena
  // pages, where the shard workers decode in place — no byte is copied
  // after it leaves the kernel.
  while (Ok && !MonitorInterrupted) {
    auto [Dst, Cap] = Ingest.writeWindow(sizeof(Buffer));
    ssize_t N = read(Fd, Dst, Cap);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Ok = Ingest.commitBytes(static_cast<size_t>(N));
  }

  bool ParseError = false;
  if (MonitorInterrupted) {
    Ingest.abortStream();
    ParseError = !Ingest.errorText().empty();
  } else {
    switch (Ingest.finishStream()) {
    case ShardedMonitorIngest::EndState::Clean:
      break;
    case ShardedMonitorIngest::EndState::OpenTxn:
      // A tailed stream can end mid-transaction; finalize() treats the
      // open transaction as aborted instead of dropping the session.
      std::fprintf(stderr,
                   "note: input ended inside an open transaction "
                   "(line %llu); treating it as aborted\n",
                   static_cast<unsigned long long>(Ingest.lineNumber()));
      break;
    case ShardedMonitorIngest::EndState::Error:
      ParseError = true;
      break;
    }
  }
  sigaction(SIGINT, &OldAction, nullptr);
  if (In != stdin)
    std::fclose(In);
  if (ParseError)
    std::fprintf(stderr, "error: %s\n", Ingest.errorText().c_str());
  if (MonitorInterrupted)
    std::fprintf(stderr, "interrupted: finalizing after %llu committed "
                         "transactions\n",
                 static_cast<unsigned long long>(Ingest.committedTxns()));

  // Always finalize: the sink gets every remaining detectable violation
  // and the stats line reflects what was actually checked.
  CheckReport Report = M.finalize();
  const MonitorStats &S = M.stats();
  if (Json) {
    std::printf("%s\n",
                monitorSummaryJson(Report, S, Options.Level).c_str());
  } else {
    std::printf("%s: %s after %llu txns (%llu ops, %llu violations, "
                "%llu checking passes)\n",
                Report.Consistent ? "consistent" : "INCONSISTENT",
                isolationLevelName(Options.Level),
                static_cast<unsigned long long>(S.IngestedTxns),
                static_cast<unsigned long long>(S.IngestedOps),
                static_cast<unsigned long long>(S.ReportedViolations),
                static_cast<unsigned long long>(S.Flushes));
    if (S.EvictedTxns)
      std::printf("window: evicted %llu txns in %llu compactions "
                  "(%llu unresolved + %llu resolved reads crossed the "
                  "horizon, %llu aged out)\n",
                  static_cast<unsigned long long>(S.EvictedTxns),
                  static_cast<unsigned long long>(S.Compactions),
                  static_cast<unsigned long long>(S.EvictedUnresolvedReads),
                  static_cast<unsigned long long>(S.EvictedWriterReads),
                  static_cast<unsigned long long>(S.AgeEvictedTxns));
    if (S.ForcedAborts)
      std::printf("force-abort: %llu hung transactions closed after "
                  "%llu ticks\n",
                  static_cast<unsigned long long>(S.ForcedAborts),
                  static_cast<unsigned long long>(
                      Options.ForceAbortOpenTicks));
  }
  std::fflush(stdout);
  if (TracePath) {
    // After finalize(), so the last flush's spans are in the rings.
    obs::setTraceEnabled(false);
    std::string TraceErr;
    if (!obs::writeTraceFile(*TracePath, &TraceErr))
      std::fprintf(stderr, "warning: trace not written: %s\n",
                   TraceErr.c_str());
  }
  if (ParseError)
    return 2;
  return Report.Consistent ? 0 : 1;
}

/// The active server, for the SIGTERM/SIGINT graceful-drain handler.
/// requestShutdown() is async-signal-safe (an atomic store plus a
/// self-pipe write).
server::Server *ActiveServer = nullptr;

extern "C" void serveSignalHandler(int) {
  if (ActiveServer)
    ActiveServer->requestShutdown();
}

/// Hosts many concurrent monitoring sessions in one process: a TCP line
/// protocol (HELLO/STATS/DETACH/END/SHUTDOWN plus the stream formats), a
/// per-stream Monitor pinned to single-writer pump tasks on a shared
/// thread pool, per-stream checkpoints so a restart resumes every tenant,
/// per-stream JSONL sinks, and a Prometheus-style /metrics endpoint.
int cmdServe(const Flags &F) {
  server::ServerOptions Options;
  Options.Host = F.getOr("host", "127.0.0.1");
  Options.Port = static_cast<uint16_t>(numFlag(F, "port", "4519"));
  if (F.get("metrics-port")) {
    Options.EnableMetrics = true;
    Options.MetricsPort =
        static_cast<uint16_t>(numFlag(F, "metrics-port", "0"));
  }
  Options.CheckpointDir = F.getOr("checkpoint-store-dir", "");
  Options.SinkDir = F.getOr("sink-dir", "");
  Options.TraceDir = F.getOr("trace-dir", "");
  Options.Threads = static_cast<unsigned>(numFlag(F, "threads", "0"));
  if (F.get("shard-hot-sessions"))
    Options.ShardHotSessions =
        static_cast<int>(numFlag(F, "shard-hot-sessions", "0"));
  if (F.get("hot-bytes-per-sec"))
    Options.HotBytesPerSec = numFlag(F, "hot-bytes-per-sec", "8388608");
  Options.IdleTimeoutSec = numFlag(F, "idle-timeout", "300");
  Options.CheckpointIntervalFlushes =
      numFlag(F, "checkpoint-interval", "16");
  if (Options.CheckpointIntervalFlushes == 0) {
    std::fprintf(stderr,
                 "error: --checkpoint-interval expects a positive number "
                 "of checking passes, got '%s'\n",
                 F.getOr("checkpoint-interval", "16").c_str());
    return 2;
  }
  if (const std::string *Token = F.get("auth-token")) {
    // An empty token would accept every HELLO that types `token=` — the
    // opposite of what the flag promises. Contradictory; refuse.
    if (Token->empty()) {
      std::fprintf(stderr,
                   "error: --auth-token: the token must be non-empty "
                   "(omit the flag to disable authentication)\n");
      return 2;
    }
    Options.AuthToken = *Token;
  }
  auto PositiveBytes = [&](const char *Name, const char *Def,
                           size_t &Out) {
    uint64_t V = numFlag(F, Name, Def);
    if (V == 0) {
      std::fprintf(stderr,
                   "error: --%s expects a positive byte count, got '0' "
                   "(quotas cannot be disabled, only raised)\n",
                   Name);
      return false;
    }
    Out = static_cast<size_t>(V);
    return true;
  };
  if (!PositiveBytes("max-inbox-bytes", "4194304", Options.MaxInboxBytes) ||
      !PositiveBytes("max-outq-bytes", "8388608", Options.MaxOutQueueBytes))
    return 2;
  Options.MaxWindowBytes = numFlag(F, "max-window-bytes", "0");
  if (F.get("sock-sndbuf")) {
    uint64_t Buf = numFlag(F, "sock-sndbuf", "0");
    if (Buf == 0 || Buf > (1u << 30)) {
      std::fprintf(stderr,
                   "error: --sock-sndbuf expects a byte count in "
                   "[1, 2^30], got '%s'\n",
                   F.getOr("sock-sndbuf", "0").c_str());
      return 2;
    }
    Options.SockSndBuf = static_cast<int>(Buf);
  }

  server::Server S(Options);
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  // The actual ports (meaningful with --port 0), parseable by scripts.
  std::printf("listening on %s:%u\n", Options.Host.c_str(),
              static_cast<unsigned>(S.port()));
  if (Options.EnableMetrics)
    std::printf("metrics on %s:%u\n", Options.Host.c_str(),
                static_cast<unsigned>(S.metricsPort()));
  std::fflush(stdout);

  ActiveServer = &S;
  struct sigaction Action = {};
  Action.sa_handler = serveSignalHandler;
  sigemptyset(&Action.sa_mask);
  Action.sa_flags = 0;
  struct sigaction OldTerm = {}, OldInt = {};
  sigaction(SIGTERM, &Action, &OldTerm);
  sigaction(SIGINT, &Action, &OldInt);

  S.run();

  sigaction(SIGTERM, &OldTerm, nullptr);
  sigaction(SIGINT, &OldInt, nullptr);
  ActiveServer = nullptr;
  std::printf("drained\n");
  return 0;
}

int cmdStats(const std::string &Path, const Flags &F) {
  std::string Err;
  std::optional<History> H =
      loadHistory(Path, F.getOr("format", "native"), &Err);
  if (!H) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::printf("%s\n", computeStats(*H).toString().c_str());
  return 0;
}

int cmdGenerate(const Flags &F) {
  GenerateParams P;
  std::optional<Benchmark> Bench = parseBenchmark(F.getOr("bench", ""));
  if (!Bench) {
    std::fprintf(stderr, "error: --bench is required\n");
    return 2;
  }
  P.Bench = *Bench;
  P.Sessions = numFlag(F, "sessions", "50");
  P.Txns = numFlag(F, "txns", "1000");
  P.Seed = numFlag(F, "seed", "1");
  P.AbortProbability = floatFlag(F, "abort-prob", "0");
  std::string ModeName = F.getOr("mode", "causal");
  if (ModeName == "serializable")
    P.Mode = ConsistencyMode::Serializable;
  else if (ModeName == "causal")
    P.Mode = ConsistencyMode::Causal;
  else if (ModeName == "read-atomic")
    P.Mode = ConsistencyMode::ReadAtomic;
  else if (ModeName == "read-committed")
    P.Mode = ConsistencyMode::ReadCommitted;
  else {
    std::fprintf(stderr, "error: unknown mode '%s'\n", ModeName.c_str());
    return 2;
  }
  const std::string *OutPath = F.get("out");
  if (!OutPath) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }

  History H = generateHistory(P);
  if (const std::string *Inject = F.get("inject")) {
    std::optional<AnomalyKind> Kind = parseAnomaly(*Inject);
    if (!Kind) {
      std::fprintf(stderr, "error: unknown anomaly '%s'\n", Inject->c_str());
      return 2;
    }
    std::string Err;
    std::optional<History> Mutated = injectAnomaly(H, *Kind, P.Seed, &Err);
    if (!Mutated) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    H = std::move(*Mutated);
  }

  std::string Err;
  if (!saveHistory(H, *OutPath, F.getOr("format", "native"), &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::printf("wrote %s (%s)\n", OutPath->c_str(),
              computeStats(H).toString().c_str());
  return 0;
}

int cmdReduce(const Flags &F) {
  size_t Nodes = numFlag(F, "nodes", "16");
  double EdgeProb = floatFlag(F, "edge-prob", "0.2");
  uint64_t Seed = numFlag(F, "seed", "1");
  std::string Variant = F.getOr("variant", "general");
  const std::string *OutPath = F.get("out");
  if (!OutPath) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }

  if (Variant != "general" && Variant != "ra2" && Variant != "rc1") {
    std::fprintf(stderr, "error: unknown variant '%s'\n", Variant.c_str());
    return 2;
  }
  Rng Rand(Seed);
  UGraph G = randomGraph(Nodes, EdgeProb, Rand);
  History H = Variant == "ra2"   ? reduceRaTwoSessions(G)
              : Variant == "rc1" ? reduceRcSingleSession(G)
                                 : reduceGeneral(G);

  std::string Err;
  if (!saveHistory(H, *OutPath, F.getOr("format", "native"), &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::printf("wrote %s: graph n=%zu m=%zu -> %s\n", OutPath->c_str(),
              G.numNodes(), G.numEdges(),
              computeStats(H).toString().c_str());
  return 0;
}

int cmdShrink(const std::string &Path, const Flags &F) {
  std::optional<IsolationLevel> Level =
      parseIsolationLevel(F.getOr("level", ""));
  if (!Level) {
    std::fprintf(stderr, "error: --level rc|ra|cc is required\n");
    return 2;
  }
  const std::string *OutPath = F.get("out");
  if (!OutPath) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }
  std::string Err;
  std::optional<History> H =
      loadHistory(Path, F.getOr("format", "native"), &Err);
  if (!H) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  if (checkIsolation(*H, *Level).Consistent) {
    std::fprintf(stderr,
                 "error: history already satisfies %s; nothing to shrink\n",
                 isolationLevelName(*Level));
    return 2;
  }

  ShrinkOptions Options;
  Options.MaxChecks =
      static_cast<size_t>(numFlag(F, "max-checks", "2000"));
  ShrinkResult R = shrinkViolation(*H, *Level, Options);
  if (!saveHistory(R.Shrunk, *OutPath, F.getOr("format", "native"), &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::printf("shrunk %zu -> %zu txns (%zu checks); wrote %s\n",
              R.TxnsBefore, R.TxnsAfter, R.ChecksUsed, OutPath->c_str());
  CheckReport Report = checkIsolation(R.Shrunk, *Level);
  for (const Violation &V : Report.Violations)
    std::printf("  %s\n", V.describe(R.Shrunk).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];

  // Collect positionals and --flag value pairs (--json is valueless). Only
  // batch takes more than one positional.
  Flags F;
  std::vector<std::string> Positionals;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) == 0) {
      if (Arg == "--json") {
        F.Values["json"] = "1";
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag %s needs a value\n", Arg.c_str());
        return 2;
      }
      F.Values[Arg.substr(2)] = Argv[++I];
    } else {
      Positionals.push_back(Arg);
    }
  }
  if (Positionals.size() > 1 && Cmd != "batch")
    return usage();
  auto Known = CommandFlags.find(Cmd);
  if (Known == CommandFlags.end())
    return usage();
  for (const auto &Flag : F.Values) {
    if (!Known->second.count(Flag.first)) {
      std::fprintf(stderr, "error: unknown flag --%s for 'awdit %s'\n",
                   Flag.first.c_str(), Cmd.c_str());
      return 2;
    }
  }

  if (Cmd == "check" && Positionals.size() == 1)
    return cmdCheck(Positionals[0], F);
  if (Cmd == "batch" && !Positionals.empty())
    return cmdBatch(Positionals, F);
  if (Cmd == "monitor" && Positionals.size() <= 1)
    return cmdMonitor(Positionals.empty() ? "-" : Positionals[0], F);
  if (Cmd == "serve" && Positionals.empty())
    return cmdServe(F);
  if (Cmd == "stats" && Positionals.size() == 1)
    return cmdStats(Positionals[0], F);
  if (Cmd == "generate")
    return cmdGenerate(F);
  if (Cmd == "reduce")
    return cmdReduce(F);
  if (Cmd == "shrink" && Positionals.size() == 1)
    return cmdShrink(Positionals[0], F);
  return usage();
}
