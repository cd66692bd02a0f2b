#!/usr/bin/env python3
"""End-to-end benchmark of awdit: bytes in to verdict out.

Runs one workload at one seed, from the root of a source checkout:

    python3 perfbench/run.py --workload check-all --seed 1 --seconds 30 --trace 0

It builds the library, the CLI and perfbench/e2e.cpp into
.bench_build/perfbench, generates the workload's inputs from the seed,
measures for --seconds, checks every verdict, and prints each metric with
its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics
are the per-layer ones of one traced iteration (see README.md).

Repeat mode runs every workload round-robin and prints each metric's
median, quartiles and range:

    python3 perfbench/run.py --repeat 5 --seed 1
"""

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")

SETUP_REPEATS = 3
MIN_ITERATIONS = 4  # so the interquartile mean drops the extremes
CHILD_TIMEOUT_S = 150
SERVE_THREADS = 2

# Workloads and metrics (name, unit) as BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


class BenchError(Exception):
    """A failure of the benchmark itself: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def midmean(values):
    """Mean of the middle half: a quarter of the samples (rounded down) is
    dropped from each end. Steadier than the median on the few, often
    bimodal samples of one run, and as robust to a stalled iteration."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k]) if v else 0.0


def quantile(values, q):
    """The nearest-rank quantile q in [0, 1]: the smallest sample with at
    least a share q of the samples at or below it; 0 when empty."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = math.ceil(q * len(v))
    return v[min(max(rank, 1), len(v)) - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# --- Host context -----------------------------------------------------------

def read_cpu_ticks():
    """(total, steal) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
        ticks = [int(x) for x in fields]
        return sum(ticks[:8]), ticks[7] if len(ticks) > 7 else 0
    except (OSError, ValueError):
        return 0, 0


def read_loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except (OSError, ValueError):
        return []


class HostContext:
    """nproc, load average and steal ticks over the timed phase."""

    def __init__(self):
        self.load_start = read_loadavg()
        self.ticks_start = read_cpu_ticks()

    def finish(self):
        total, steal = read_cpu_ticks()
        return {
            "nproc": os.cpu_count(),
            "loadavg_start": self.load_start,
            "loadavg_end": read_loadavg(),
            "steal_ticks": steal - self.ticks_start[1],
            "total_ticks": total - self.ticks_start[0],
        }


# --- Building and child processes -------------------------------------------

def build():
    """Configures and builds the benchmark; returns the binary paths."""
    jobs = str(os.cpu_count() or 2)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        r = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode == 0:
            break
        if attempt == 0 and os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            shutil.rmtree(BUILD, ignore_errors=True)  # a stale cache; retry
            continue
        raise BenchError("cmake configure failed")
    r = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench-e2e",
         "awdit-tool"], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(BUILD, "perfbench-e2e"), os.path.join(BUILD, "awdit",
                                                              "awdit")


class Child:
    """A child process whose stdout is collected and whose own peak RSS and
    CPU time are read from wait4 when it exits."""

    def __init__(self, cmd, timeout=CHILD_TIMEOUT_S):
        self.cmd = cmd
        self.spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()
        self.pending = b""  # stdout read by readline() but not returned yet

    def readline(self, timeout):
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self.pending:
            left = deadline - time.monotonic()
            chunk = (os.read(fd, 4096)
                     if left > 0 and select.select([fd], [], [], left)[0]
                     else b"")
            if not chunk:
                raise BenchError("no output from %s" % self.cmd[0])
            self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return line.decode()

    def finish(self):
        """Waits for exit; returns its stdout. Sets rss_mb (peak RSS) and
        cpu_s (user plus system seconds)."""
        out = (self.pending + self.proc.stdout.read()).decode()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise BenchError("%s exited with %d" % (" ".join(self.cmd[:2]),
                                                    self.proc.returncode))
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        return out

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.timer.cancel()


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def run_json(cmd):
    """Runs a child to completion; returns (its JSON, the finished Child)."""
    child = Child(cmd)
    try:
        out = child.finish()
    finally:
        child.kill()
    return last_json(out), child


# --- Workloads --------------------------------------------------------------

class Run:
    """One workload at one seed: its setup, timed iterations and result."""

    def __init__(self, binary, awdit, workload, seed, seconds, trace, work):
        self.binary, self.awdit = binary, awdit
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = work
        self.input = os.path.join(work, "input.txt")
        self.spans = os.path.join(work, "spans.json")
        self.setup_cpu, self.generate_s, self.start_s = [], [], []
        self.iters = []          # untraced iteration JSONs
        self.rss = []            # peak RSS (MB) per measured process
        self.traced = None       # the traced iteration's JSON
        self.attempted = 0
        self.failures = []

    def setup_once(self):
        # Timed by the set-up process's CPU seconds, like the iterations'
        # busy seconds: deterministic work, without steal or disk waits.
        res, child = run_json([self.binary, "setup", self.workload, "--seed",
                               str(self.seed), "--dir", self.work])
        self.setup_cpu.append(child.cpu_s)
        self.generate_s.append(res["generate_s"])

    def score(self, res):
        self.attempted += int(res["attempted"])
        self.failures += res["failures"]

    # check-all, monitor-exact: each iteration is a fresh process started
    # after the inputs exist.
    def iteration_cmd(self, traced):
        if self.workload == "check-all":
            cmd = [self.binary, "check", self.input]
        else:
            store = os.path.join(self.work, "store")
            shutil.rmtree(store, ignore_errors=True)
            cmd = [self.binary, "monitor", self.input, "--store", store]
        return cmd + (["--trace", self.spans] if traced else [])

    def measure_process(self):
        # One set-up before each equal part of the budget: the host's speed
        # drifts over tens of seconds, so set-ups spread over the run see
        # the same host as its iterations, not one moment of it.
        budget = self.seconds / 2 if self.trace else self.seconds
        host = HostContext()
        measured, walls = 0.0, []
        for part in range(1, SETUP_REPEATS + 1):
            self.setup_once()
            while (len(walls) < MIN_ITERATIONS * part // SETUP_REPEATS
                   or measured + median(walls) <= budget * part / SETUP_REPEATS):
                i0 = time.monotonic()
                res, child = run_json(self.iteration_cmd(False))
                walls.append(time.monotonic() - i0)
                measured += walls[-1]
                self.iters.append(res)
                self.rss.append(child.rss_mb)
                self.start_s.append((res["t_main_ns"] - child.spawn_ns) / 1e9)
                self.score(res)
        if self.trace:
            self.traced, _ = run_json(self.iteration_cmd(True))
            self.score(self.traced)
        self.host = host.finish()

    def measure_serve(self):
        for rep in range(SETUP_REPEATS):
            self.setup_once()
            last = rep == SETUP_REPEATS - 1
            server = Child([self.awdit, "serve", "--port", "0",
                            "--metrics-port", "0", "--threads",
                            str(SERVE_THREADS)])
            try:
                ports = {}
                while len(ports) < 2:
                    words = server.readline(30).split()
                    if len(words) < 3:
                        raise BenchError("awdit serve did not start")
                    ports[words[0]] = words[-1].rsplit(":", 1)[1]
                cmd = [self.binary, "serve-client", "--port", ports["listening"],
                       "--metrics-port", ports["metrics"], "--dir", self.work,
                       "--server-threads", str(SERVE_THREADS),
                       "--seconds", "%d" % self.seconds]
                if not last:
                    cmd.append("--hello-only")
                elif self.trace:
                    cmd += ["--trace", self.spans]
                host = HostContext()
                res, _ = run_json(cmd)
                server.finish()
            finally:
                server.kill()
            self.start_s.append((res["t_hello_done_ns"] - server.spawn_ns) / 1e9)
            if last:
                self.host = host.finish()
                self.score(res)
                self.iters.append(res)
                self.rss.append(server.rss_mb)
                if self.trace:
                    self.traced = res

    def measure(self):
        if self.workload == "serve-mux":
            self.measure_serve()
        else:
            self.measure_process()

    # --- Metrics ---

    def setup_s(self):
        """Set-up CPU seconds plus the wall time to start the system."""
        if self.workload == "serve-mux":
            return median([c + s for c, s in zip(self.setup_cpu, self.start_s)])
        return median(self.setup_cpu) + median(self.start_s)

    def txns_per_s(self):
        if self.workload == "serve-mux":
            res = self.iters[0]
            return sum(res["round_txns"]) / sum(res["round_s"])
        return midmean([r["txns"] / r["busy_s"] for r in self.iters])

    def eos_verdict_ms(self):
        if self.workload == "serve-mux":
            return median(self.iters[0]["eos_ms"])
        return midmean([r["eos_busy_s"] * 1e3 for r in self.iters])

    def end_to_end(self):
        return {
            "setup_s": self.setup_s(),
            "txns_per_s": self.txns_per_s(),
            "eos_verdict_ms": self.eos_verdict_ms(),
            "peak_rss_mb": midmean(self.rss),
        }

    def per_layer(self):
        t = self.traced
        m = {name: 0.0 for name, _ in PER_LAYER}
        spans = t.get("spans", {})

        def span_s(name):
            return spans.get(name, {}).get("total_s", 0.0)

        m["io.decode_s"] = t["decode_s"]
        m["checker.violations"] = t["violations"]
        if self.workload == "check-all":
            m["io.read_s"] = t["read_s"]
            m["io.parse_s"] = t["parse_s"]
            m["checker.apply_s"] = t["parse_s"] - t["decode_s"]
            for level in ("cc", "ra", "rc"):
                m["checker.oneshot_%s_s" % level] = t["oneshot_%s_s" % level]
            m["checker.inferred_edges"] = t["inferred_edges"]
            m["checker.graph_edges"] = t["graph_edges"]
        else:
            m["checker.flush_s"] = t["flush_s"]
            m["checker.flushes"] = t["flushes"]
            m["checker.flush.delta_s"] = t["phase_delta_build_s"]
            m["checker.flush.merge_s"] = t["phase_merge_s"]
            m["checker.flush.pk_s"] = t["phase_pk_s"]
            m["checker.flush.finalize_s"] = t["phase_finalize_s"]
        if self.workload == "monitor-exact":
            m["io.read_s"] = span_s("io.read")
            m["checker.apply_s"] = (span_s("checker.ingest") - span_s("checker.flush")
                                    - span_s("store.commit") - t["decode_s"])
            # Exact per-pass samples.
            m["checker.flush_p50_ms"] = quantile(t["flush_ms"], 0.50)
            m["checker.flush_p99_ms"] = quantile(t["flush_ms"], 0.99)
            m["checker.finalize_ms"] = t["finalize_s"] * 1e3
            m["checker.inferred_edges"] = t["inferred_edges"]
            m["checker.graph_edges"] = t["graph_edges"]
            commits = t.get("store_commits", 0)
            if commits:
                m["store.commit_ms"] = t["store_s"] / commits * 1e3
                m["store.commits"] = commits
                m["store.bytes_per_commit"] = t["store_bytes"] / commits
        if self.workload == "serve-mux":
            m["io.read_s"] = t["read_s"]
            # Bucket bounds of the scraped flush histogram.
            m["checker.flush_p50_ms"] = t["flush_p50_ms"]
            m["checker.flush_p99_ms"] = t["flush_p99_ms"]
            m["server.hello_ms"] = median(t["hello_ms"])
            m["server.stats_rtt_p50_ms"] = quantile(t["stats_rtt_ms"], 0.50)
            m["server.stats_rtt_p99_ms"] = quantile(t["stats_rtt_ms"], 0.99)
            for key in ("pump_s", "output_queue_s", "poll_max_stall_ms"):
                m["server." + key] = t[key]
        m["setup.generate_s"] = median(self.generate_s)
        m["setup.start_s"] = median(self.start_s)
        m["trace.overhead_pct"] = self.trace_overhead_pct()
        return m

    def traced_tps(self):
        t = self.traced
        if self.workload == "serve-mux":
            return sum(t["traced_round_txns"]) / sum(t["traced_round_s"])
        return t["txns"] / t["busy_s"]

    def trace_overhead_pct(self):
        untraced, traced = self.txns_per_s(), self.traced_tps()
        return (untraced - traced) / untraced * 100 if untraced and traced else 0.0

    def result(self):
        declared = PER_LAYER if self.trace else END_TO_END
        values = self.per_layer() if self.trace else self.end_to_end()
        if set(values) != {name for name, _ in declared}:
            raise BenchError("metrics differ from BENCHMARK.json: %s" %
                             sorted(set(values) ^ {n for n, _ in declared}))
        units = dict(declared)
        return {
            "correct": not self.failures and self.attempted > 0,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
        }


def run_workload(binaries, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, Run)."""
    work = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Run(binaries[0], binaries[1], workload, seed, seconds, trace, work)
        run.measure()
        return run.result(), run
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- Reports ----------------------------------------------------------------

def print_run(run, result):
    print("workload %s seed %d: %d verdicts attempted, %d failed"
          % (run.workload, run.seed, result["attempted"], result["failed"]))
    for failure in run.failures[:20]:
        print("  FAILED %s" % failure)
    if run.workload == "serve-mux":
        res = run.iters[0]
        print("  rounds (txns/s): %s" % " ".join(
            "%.0f" % (n / s) for n, s in zip(res["round_txns"], res["round_s"])))
    else:
        print("  iterations (txns per busy second): %s" % " ".join(
            "%.0f" % (r["txns"] / r["busy_s"]) for r in run.iters))
        print("  iterations (txns per wall second): %s" % " ".join(
            "%.0f" % (r["txns"] / r["seconds"]) for r in run.iters))
        print("  iterations (end of stream, busy ms): %s" % " ".join(
            "%.1f" % (r["eos_busy_s"] * 1e3) for r in run.iters))
    for name, m in result["metrics"].items():
        print("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    if run.trace:
        print_trace_table(run)
    print("host: %s" % json.dumps(run.host))


def print_trace_table(run):
    t = run.traced
    layers = t.get("self_s_by_layer", {})
    total = sum(layers.values()) or 1.0
    print("  traced iteration, self time per layer (span minus its children):")
    for layer, sec in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("    %-10s %10.4f s %6.1f %%" % (layer, sec, 100 * sec / total))
    print("  spans (inclusive):")
    for name, s in sorted(t.get("spans", {}).items()):
        print("    %-22s %10.4f s  x%d" % (name, s["total_s"], s["count"]))
    print("  tracing overhead: %.2f %% of txns_per_s (traced %.6g vs "
          "untraced %.6g)" % (run.trace_overhead_pct(), run.traced_tps(),
                              run.txns_per_s()))


def repeat(binaries, rounds, seed, seconds):
    """Round-robin runs of every workload (W1 W2 ... W1 W2 ...), seed
    `seed + round`, then a summary per metric."""
    values = {w: {} for w in WORKLOADS}
    for r in range(rounds):
        for w in WORKLOADS:
            result, run = run_workload(binaries, w, seed + r, seconds, False)
            log("round %d %s: %s host=%s" % (
                r, w, {k: round(v["value"], 4) for k, v in
                       result["metrics"].items()}, json.dumps(run.host)))
            if result["failed"]:
                log("  failed verdicts: %s" % run.failures[:5])
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    print("%-17s %-15s %12s %12s %12s %12s %12s %8s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "iqr/med"))
    for w in WORKLOADS:
        for k, vs in values[w].items():
            q1, q2, q3 = quartiles(vs)
            print("%-17s %-15s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%%" % (
                w, k, q2, q1, q3, min(vs), max(vs), 100 * spread(vs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="rounds of round-robin runs over every workload")
    args = ap.parse_args()
    if not args.repeat and not args.workload:
        ap.error("--workload or --repeat is required")
    try:
        binaries = build()
        if args.repeat:
            repeat(binaries, args.repeat, args.seed, args.seconds)
            return 0
        result, run = run_workload(binaries, args.workload, args.seed,
                                   args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as e:
        log("error: %s" % e)
        return 1
    print_run(run, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
