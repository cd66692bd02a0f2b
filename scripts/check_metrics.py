#!/usr/bin/env python3
"""Validate an awdit /metrics scrape for Prometheus well-formedness.

    check_metrics.py PAGE.txt [--require-defaults] [--require NAME ...]

Checks, in order of how often real exporters get them wrong:

  1. Every sample line's family has a `# HELP` and a `# TYPE` comment,
     and they appear before the first sample of that family.
  2. Histogram families are complete: for every label combination there
     is a `_bucket{le="+Inf"}`, a `_sum`, and a `_count`; bucket counts
     are monotone non-decreasing in `le`; the `+Inf` bucket equals
     `_count`; `le` bounds are strictly increasing and parse as numbers.
  3. Counter/gauge sample values parse as numbers (no NaN smuggling).
  4. Every name passed via --require (or the built-in required list with
     --require-defaults) is present as a family on the page.

Exit codes: 0 clean, 1 validation failure, 2 usage/IO error. All findings
are printed, not just the first, so one CI run shows the full damage.
"""

import argparse
import math
import re
import sys

# The series CI insists on after `awdit serve --metrics` has taken
# traffic. Histogram families are listed by family name (the checker
# expands them to _bucket/_sum/_count); plain families by series name.
REQUIRED_DEFAULTS = [
    "awdit_server_sessions_live",
    "awdit_server_sessions_created_total",
    "awdit_server_resume_failures_total",
    "awdit_server_txns_committed_total",
    "awdit_server_flushes_total",
    "awdit_server_poll_max_stall_micros",
    "awdit_server_poll_max_stall_micros_lifetime",
    # The observability-core histogram families.
    "awdit_flush_duration_seconds",
    "awdit_flush_phase_duration_seconds",
    "awdit_ingest_stage_duration_seconds",
    "awdit_checkpoint_write_seconds",
    "awdit_server_pump_seconds",
    "awdit_server_hello_seconds",
    "awdit_server_output_queue_seconds",
    "awdit_server_outq_depth_bytes",
]

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def family_of(name):
    """The family a sample belongs to: histogram suffixes fold in."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_labels(text):
    if not text:
        return {}
    labels = dict(LABEL_RE.findall(text))
    # Whatever the regex didn't consume is malformed label syntax.
    leftover = LABEL_RE.sub("", text).replace(",", "").strip()
    if leftover:
        return None
    return labels


def le_key(labels):
    """The label set identifying one histogram series, `le` excluded."""
    return tuple(sorted((k, v) for k, v in labels.items() if k != "le"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("page", help="a saved /metrics response body")
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME",
                    help="fail unless this family is present (repeatable)")
    ap.add_argument("--require-defaults", action="store_true",
                    help="also require the built-in awdit series list")
    args = ap.parse_args()

    try:
        with open(args.page, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    errors = []
    helped, typed = set(), set()
    types = {}
    # family -> series-key -> list of (le, cumulative count)
    hist_buckets = {}
    hist_sums = {}
    hist_counts = {}
    seen_families = set()

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                errors.append(f"line {lineno}: malformed HELP comment")
                continue
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                errors.append(f"line {lineno}: malformed TYPE comment")
                continue
            typed.add(parts[2])
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = m.group("name")
        family = family_of(name)
        labels = parse_labels(m.group("labels"))
        if labels is None:
            errors.append(f"line {lineno}: malformed labels: {line!r}")
            continue
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(
                f"line {lineno}: non-numeric value for {name}: "
                f"{m.group('value')!r}")
            continue
        if math.isnan(value):
            errors.append(f"line {lineno}: NaN value for {name}")
            continue

        if family not in seen_families:
            seen_families.add(family)
            if family not in helped:
                errors.append(
                    f"line {lineno}: family {family} has a sample before "
                    f"(or without) its # HELP")
            if family not in typed:
                errors.append(
                    f"line {lineno}: family {family} has a sample before "
                    f"(or without) its # TYPE")

        if name.endswith("_bucket") and "le" in labels:
            le_text = labels["le"]
            le = math.inf if le_text == "+Inf" else None
            if le is None:
                try:
                    le = float(le_text)
                except ValueError:
                    errors.append(
                        f"line {lineno}: bad le bound {le_text!r} on "
                        f"{family}")
                    continue
            hist_buckets.setdefault(family, {}).setdefault(
                le_key(labels), []).append((le, value, lineno))
        elif name.endswith("_sum") and types.get(family) == "histogram":
            hist_sums.setdefault(family, {})[le_key(labels)] = value
        elif name.endswith("_count") and types.get(family) == "histogram":
            hist_counts.setdefault(family, {})[le_key(labels)] = value

    # Histogram shape checks, one series (label set) at a time.
    for family, series in sorted(hist_buckets.items()):
        for key, buckets in sorted(series.items()):
            where = (f"{family}{{{', '.join('%s=%s' % kv for kv in key)}}}"
                     if key else family)
            bounds = [b[0] for b in buckets]
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                errors.append(
                    f"{where}: le bounds not strictly increasing")
            counts = [b[1] for b in buckets]
            if any(nxt < cur for cur, nxt in zip(counts, counts[1:])):
                errors.append(
                    f"{where}: bucket counts decrease as le grows")
            if not buckets or buckets[-1][0] != math.inf:
                errors.append(f"{where}: missing le=\"+Inf\" bucket")
            else:
                count = hist_counts.get(family, {}).get(key)
                if count is None:
                    errors.append(f"{where}: missing _count sample")
                elif buckets[-1][1] != count:
                    errors.append(
                        f"{where}: +Inf bucket {buckets[-1][1]:g} != "
                        f"_count {count:g}")
            if hist_sums.get(family, {}).get(key) is None:
                errors.append(f"{where}: missing _sum sample")

    required = list(args.require)
    if args.require_defaults:
        required += REQUIRED_DEFAULTS
    for name in required:
        if name not in seen_families:
            errors.append(f"required series missing from page: {name}")

    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        print(f"{len(errors)} problem(s) in {args.page}")
        return 1
    n_hist = len(hist_buckets)
    print(f"OK: {len(seen_families)} families ({n_hist} histograms), "
          f"{len(required)} required series present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
