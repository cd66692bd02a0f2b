#!/usr/bin/env python3
"""Compare google-benchmark JSON outputs; fail on regressions or low counters.

Compare mode (the default):
  compare_bench.py BASELINE.json CURRENT.json [--max-regression 0.20]
                   [--filter REGEX] [--summary-out FILE]

Benchmarks are matched by name. The comparison metric is items_per_second
when present, otherwise inverse real_time (higher is better for both).
Benchmarks present in only one file are reported but never fail the run
(benches come and go across commits); a matched benchmark whose throughput
dropped by more than the threshold fails the run with exit code 1. When one
file carries several entries under the same name (repetitions without
aggregates), their median is the metric.

A baseline that cannot be parsed (a truncated artifact, a run that died
mid-write, a schema from another tool) is not this change's fault: the
comparison is skipped with exit code 0 and a note, exactly like a missing
baseline. The *current* results failing to parse is this build's problem
and still fails the run.

Counter-gate mode:
  compare_bench.py --counter-gate CURRENT.json --bench BM_CheckpointDelta/65536
                   --counter reduction_x --min-value 10 [--summary-out FILE]

Reads one results file and fails with exit code 1 unless the named user
counter on the named benchmark is at least --min-value. Unlike throughput
comparisons this needs no baseline artifact: the benchmark itself computes
a ratio (e.g. full-snapshot bytes over delta bytes per checkpoint) and the
gate pins its floor. A missing benchmark or counter fails the run — a gate
that silently stops measuring is worse than a red build.

In both modes a markdown table of the results is appended to the file named
by --summary-out, defaulting to $GITHUB_STEP_SUMMARY when set — so CI runs
surface the deltas on the workflow summary page without artifact spelunking.
"""

import argparse
import json
import os
import re
import statistics
import sys


def load(path):
    """Returns {benchmark name: throughput metric} from one results file.

    Skips google-benchmark aggregate rows (mean/median/stddev of repeated
    runs) and medians duplicate names: with --benchmark_repetitions and
    aggregates suppressed, the same name legitimately appears once per
    repetition, and last-one-wins would silently pick an arbitrary rep.
    """
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        if "items_per_second" in bench:
            samples.setdefault(name, []).append(float(bench["items_per_second"]))
        elif float(bench.get("real_time", 0)) > 0:
            samples.setdefault(name, []).append(1.0 / float(bench["real_time"]))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def load_counter(path, counter):
    """Returns {benchmark name: median value} for one user counter.

    User counters live as plain keys on each benchmark entry alongside
    real_time/items_per_second; aggregate rows are skipped and repeated
    runs are medianed, mirroring load().
    """
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if counter in bench:
            samples.setdefault(bench["name"], []).append(float(bench[counter]))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def append_summary(path, lines):
    """Appends markdown lines to the step-summary file, if one is in use."""
    if not path:
        return
    try:
        with open(path, "a") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"note: could not write summary to '{path}': {exc}")


def run_compare(args, summary_path):
    try:
        base = load(args.files[0])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"skipping comparison: baseline '{args.files[0]}' is not "
              f"usable benchmark JSON ({exc})")
        return 0
    cur = load(args.files[1])
    if not base:
        print(f"skipping comparison: baseline '{args.files[0]}' contains "
              f"no benchmark entries")
        return 0
    pattern = re.compile(args.filter) if args.filter else None

    failed = []
    compared = 0
    rows = []
    for name in sorted(set(base) | set(cur)):
        if pattern and not pattern.search(name):
            continue
        if name not in base:
            print(f"  new        {name}")
            rows.append((name, "—", f"{cur[name]:.4g}", "new"))
            continue
        if name not in cur:
            print(f"  removed    {name}")
            rows.append((name, f"{base[name]:.4g}", "—", "removed"))
            continue
        compared += 1
        ratio = cur[name] / base[name] if base[name] else 1.0
        verdict = "ok"
        if ratio < 1.0 - args.max_regression:
            verdict = "REGRESSION"
            failed.append(name)
        delta = f"{(ratio - 1.0) * 100:+.1f}%"
        print(f"  {verdict:10s} {name}: {base[name]:.4g} -> {cur[name]:.4g} "
              f"({delta})")
        rows.append((name, f"{base[name]:.4g}", f"{cur[name]:.4g}",
                     f"{delta} {'' if verdict == 'ok' else '❌'}".strip()))

    if rows:
        lines = [f"### Benchmark comparison: `{os.path.basename(args.files[1])}`",
                 "", "| benchmark | baseline | current | delta |",
                 "|---|---:|---:|---:|"]
        lines += [f"| `{n}` | {b} | {c} | {d} |" for n, b, c, d in rows]
        append_summary(summary_path, lines)

    if failed:
        print(f"FAIL: {len(failed)} of {compared} benchmark(s) regressed "
              f"more than {args.max_regression * 100:.0f}%")
        return 1
    print(f"benchmark comparison passed ({compared} compared)")
    return 0


def run_counter_gate(args, summary_path):
    try:
        cur = load_counter(args.files[0], args.counter)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"FAIL: '{args.files[0]}' is not usable benchmark JSON ({exc})")
        return 1
    # UseRealTime and friends append suffixes: BM_Foo/65536/real_time.
    pat = re.compile(rf"^{re.escape(args.bench)}(/|$)")
    matched = {name: v for name, v in cur.items() if pat.search(name)}
    if not matched:
        print(f"FAIL: '{args.files[0]}' has no '{args.counter}' counter on "
              f"benchmarks matching '{args.bench}'")
        return 1
    value = statistics.median(matched.values())
    ok = value >= args.min_value
    print(f"  {args.bench}: {args.counter} = {value:.4g} "
          f"(gate >= {args.min_value:.4g})")
    append_summary(summary_path, [
        f"### Counter gate: `{args.bench}`", "",
        "| counter | value | gate | |",
        "|---|---:|---:|---|",
        f"| `{args.counter}` | {value:.4g} | >= {args.min_value:.4g} | "
        f"{'✅' if ok else '❌'} |",
    ])
    if not ok:
        print(f"FAIL: {args.counter} is {value:.4g}, below the gate "
              f"{args.min_value:.4g}")
        return 1
    print("counter gate passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+",
                        help="BASELINE.json CURRENT.json (compare mode) or "
                             "CURRENT.json (--counter-gate)")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional throughput drop (0.20 = 20%%)")
    parser.add_argument("--filter", default="",
                        help="only compare benchmarks matching this regex")
    parser.add_argument("--bench",
                        help="benchmark (name prefix) for --counter-gate")
    parser.add_argument("--counter-gate", action="store_true",
                        help="gate on a user counter in one results file")
    parser.add_argument("--counter", default="reduction_x",
                        help="user counter name for --counter-gate")
    parser.add_argument("--min-value", type=float, default=10.0,
                        help="required counter floor for --counter-gate")
    parser.add_argument("--summary-out", default=None,
                        help="append a markdown table here "
                             "(default: $GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args()

    summary_path = args.summary_out or os.environ.get("GITHUB_STEP_SUMMARY")
    if args.counter_gate and not args.bench:
        parser.error("--counter-gate needs --bench")
    expected = 1 if args.counter_gate else 2
    if len(args.files) != expected:
        parser.error(f"expected {expected} file(s) for this mode, "
                     f"got {len(args.files)}")
    if args.counter_gate:
        return run_counter_gate(args, summary_path)
    return run_compare(args, summary_path)


if __name__ == "__main__":
    sys.exit(main())
