#!/usr/bin/env python3
"""Unit tests for compare_bench.py (stdlib only; wired into ctest).

Runs the script as a subprocess — the exit code *is* the CI contract — over
temp-file benchmark JSON: added/removed benchmarks must be tolerated,
regressions must fail, duplicate names must aggregate instead of
last-one-wins, unusable baselines must skip cleanly, and the --counter-gate
must pass/fail by the named counter's floor.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def bench_json(entries):
    return {"benchmarks": [
        {"name": name, "run_type": run_type, "items_per_second": ips}
        for name, ips, run_type in entries
    ]}


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_script(self, *argv, summary=None):
        env = dict(os.environ)
        env.pop("GITHUB_STEP_SUMMARY", None)
        if summary:
            env["GITHUB_STEP_SUMMARY"] = summary
        proc = subprocess.run([sys.executable, SCRIPT, *argv],
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout + proc.stderr

    # --- compare mode ---

    def test_identical_results_pass(self):
        base = self.write("base.json", bench_json([("BM_A", 100.0, "iteration")]))
        cur = self.write("cur.json", bench_json([("BM_A", 101.0, "iteration")]))
        code, out = self.run_script(base, cur)
        self.assertEqual(code, 0, out)

    def test_regression_fails(self):
        base = self.write("base.json", bench_json([("BM_A", 100.0, "iteration")]))
        cur = self.write("cur.json", bench_json([("BM_A", 70.0, "iteration")]))
        code, out = self.run_script(base, cur, "--max-regression", "0.20")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_added_and_removed_benchmarks_are_tolerated(self):
        base = self.write("base.json", bench_json(
            [("BM_A", 100.0, "iteration"), ("BM_Gone", 50.0, "iteration")]))
        cur = self.write("cur.json", bench_json(
            [("BM_A", 99.0, "iteration"), ("BM_New", 10.0, "iteration")]))
        code, out = self.run_script(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("new", out)
        self.assertIn("removed", out)

    def test_duplicate_names_aggregate_by_median(self):
        # Three repetitions of BM_A in the baseline: 90/100/110 -> median
        # 100. A current value of 85 is a 15% drop — within a 20% gate. If
        # load() kept last-one-wins (the old bug), the baseline would be 110
        # and 85 would be a 23% drop, failing spuriously.
        base = self.write("base.json", bench_json(
            [("BM_A", 90.0, "iteration"), ("BM_A", 110.0, "iteration"),
             ("BM_A", 100.0, "iteration")]))
        cur = self.write("cur.json", bench_json([("BM_A", 85.0, "iteration")]))
        code, out = self.run_script(base, cur, "--max-regression", "0.20")
        self.assertEqual(code, 0, out)

    def test_aggregate_rows_are_ignored(self):
        base = self.write("base.json", bench_json(
            [("BM_A", 100.0, "iteration"), ("BM_A_mean", 9999.0, "aggregate")]))
        cur = self.write("cur.json", bench_json([("BM_A", 95.0, "iteration")]))
        code, out = self.run_script(base, cur)
        self.assertEqual(code, 0, out)
        self.assertNotIn("BM_A_mean", out)

    def test_malformed_baseline_skips_cleanly(self):
        base = self.write("base.json", "not json {")
        cur = self.write("cur.json", bench_json([("BM_A", 100.0, "iteration")]))
        code, out = self.run_script(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("skipping comparison", out)

    def test_empty_baseline_skips_cleanly(self):
        base = self.write("base.json", {"benchmarks": []})
        cur = self.write("cur.json", bench_json([("BM_A", 100.0, "iteration")]))
        code, out = self.run_script(base, cur)
        self.assertEqual(code, 0, out)

    def test_malformed_current_fails(self):
        base = self.write("base.json", bench_json([("BM_A", 100.0, "iteration")]))
        cur = self.write("cur.json", "not json {")
        code, _ = self.run_script(base, cur)
        self.assertNotEqual(code, 0)

    def test_summary_table_written(self):
        base = self.write("base.json", bench_json([("BM_A", 100.0, "iteration")]))
        cur = self.write("cur.json", bench_json([("BM_A", 110.0, "iteration")]))
        summary = os.path.join(self.dir.name, "summary.md")
        code, out = self.run_script(base, cur, summary=summary)
        self.assertEqual(code, 0, out)
        with open(summary) as f:
            text = f.read()
        self.assertIn("| benchmark | baseline | current | delta |", text)
        self.assertIn("`BM_A`", text)
        self.assertIn("+10.0%", text)

    def test_wrong_file_count_is_a_usage_error(self):
        cur = self.write("cur.json", bench_json([("BM_A", 100.0, "iteration")]))
        code, _ = self.run_script(cur)  # compare mode wants two files
        self.assertEqual(code, 2)

    # --- counter-gate mode ---

    def counter_file(self, reduction):
        payload = bench_json(
            [("BM_CheckpointDelta/65536", 100.0, "iteration"),
             ("BM_CheckpointDelta/4096", 200.0, "iteration")])
        payload["benchmarks"][0]["reduction_x"] = reduction
        payload["benchmarks"][1]["reduction_x"] = 1.5  # must not be matched
        return self.write("counters.json", payload)

    def test_counter_gate_passes(self):
        cur = self.counter_file(12.5)
        code, out = self.run_script(
            "--counter-gate", cur, "--bench", "BM_CheckpointDelta/65536",
            "--counter", "reduction_x", "--min-value", "10")
        self.assertEqual(code, 0, out)
        self.assertIn("12.5", out)

    def test_counter_gate_fails_below_floor(self):
        cur = self.counter_file(7.0)
        code, out = self.run_script(
            "--counter-gate", cur, "--bench", "BM_CheckpointDelta/65536",
            "--counter", "reduction_x", "--min-value", "10")
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_counter_gate_matches_exact_arg_only(self):
        # The 4096 row carries reduction_x=1.5; gating on /65536 must not
        # see it, and /409 must not prefix-match /4096.
        cur = self.counter_file(12.5)
        code, out = self.run_script(
            "--counter-gate", cur, "--bench", "BM_CheckpointDelta/409",
            "--counter", "reduction_x", "--min-value", "1")
        self.assertEqual(code, 1, out)
        self.assertIn("no 'reduction_x' counter", out)

    def test_counter_gate_fails_on_missing_counter(self):
        cur = self.write("counters.json", bench_json(
            [("BM_CheckpointDelta/65536", 100.0, "iteration")]))
        code, out = self.run_script(
            "--counter-gate", cur, "--bench", "BM_CheckpointDelta/65536")
        self.assertEqual(code, 1, out)

    def test_counter_gate_without_bench_is_a_usage_error(self):
        cur = self.counter_file(12.5)
        code, _ = self.run_script("--counter-gate", cur)
        self.assertEqual(code, 2)

    def test_counter_gate_summary_written(self):
        cur = self.counter_file(12.5)
        summary = os.path.join(self.dir.name, "summary.md")
        code, out = self.run_script(
            "--counter-gate", cur, "--bench", "BM_CheckpointDelta/65536",
            summary=summary)
        self.assertEqual(code, 0, out)
        with open(summary) as f:
            text = f.read()
        self.assertIn("Counter gate", text)
        self.assertIn("reduction_x", text)


if __name__ == "__main__":
    unittest.main()
