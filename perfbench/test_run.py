#!/usr/bin/env python3
"""Tests of run.py's arithmetic: quantiles, quartiles, spread, and how a
run's raw numbers become end-to-end and per-layer metrics.

    python3 perfbench/test_run.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(run.quartiles(values)[1], 5.5)

    def test_quartiles_of_tiny_samples(self):
        self.assertEqual(run.quartiles([]), (0.0, 0.0, 0.0))
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)
        self.assertEqual(run.spread([5.0] * 4), 0.0)
        self.assertEqual(run.spread([0.0, 0.0]), 0.0)

    def test_nearest_rank_quantile(self):
        values = [float(i) for i in range(100, 0, -1)]
        self.assertEqual(run.quantile(values, 0.50), 50.0)
        self.assertEqual(run.quantile(values, 0.99), 99.0)
        self.assertEqual(run.quantile(values, 1.0), 100.0)
        self.assertEqual(run.quantile(values, 0.0), 1.0)
        self.assertEqual(run.quantile([7.0], 0.99), 7.0)
        self.assertEqual(run.quantile([], 0.5), 0.0)
        # Ten samples: p99 is the largest, p50 the fifth.
        ten = [float(i) for i in range(1, 11)]
        self.assertEqual(run.quantile(ten, 0.99), 10.0)
        self.assertEqual(run.quantile(ten, 0.50), 5.0)

    def test_median(self):
        self.assertEqual(run.median([]), 0.0)
        self.assertEqual(run.median([3.0, 1.0, 2.0, 10.0]), 2.5)

    def test_midmean_drops_a_quarter_from_each_end(self):
        self.assertEqual(run.midmean([]), 0.0)
        self.assertEqual(run.midmean([4.0]), 4.0)
        self.assertEqual(run.midmean([1.0, 3.0, 2.0]), 2.0)
        self.assertEqual(run.midmean([100.0, 1.0, 2.0, 3.0, 4.0]), 3.0)
        self.assertEqual(run.midmean([9.0, 1.0, 5.0, 6.0, 7.0, 100.0]), 6.75)


def fake_run(workload, traced):
    r = run.Run("e2e", "awdit", workload, 1, 10, True, "/nonexistent")
    r.traced = traced
    r.generate_s = [2.0, 1.0, 3.0]
    r.start_s = [0.01, 0.03, 0.02]
    r.setup_cpu = [2.5, 2.4, 2.6]
    return r


class MetricsTest(unittest.TestCase):
    def test_monitor_apply_excludes_flush_store_and_decode(self):
        traced = {
            "txns": 1000, "busy_s": 2.0, "decode_s": 0.1, "finalize_s": 0.2,
            "flush_s": 0.5, "flushes": 4, "flush_ms": [9.0, 1.0, 2.0, 3.0],
            "phase_delta_build_s": 0.1, "phase_merge_s": 0.2, "phase_pk_s": 0.1,
            "phase_finalize_s": 0.3,
            "inferred_edges": 7, "graph_edges": 9, "violations": 0,
            "store_s": 0.4, "store_commits": 2, "store_bytes": 1000,
            "spans": {"checker.ingest": {"total_s": 1.5, "count": 3},
                      "checker.flush": {"total_s": 0.5, "count": 4},
                      "store.commit": {"total_s": 0.4, "count": 2},
                      "io.read": {"total_s": 0.05, "count": 3}},
        }
        r = fake_run("monitor-exact", traced)
        r.iters = [{"txns": 1000, "busy_s": 1.0}, {"txns": 1000, "busy_s": 4.0}]
        m = r.per_layer()
        self.assertEqual({k for k, _ in run.PER_LAYER}, set(m))
        self.assertAlmostEqual(m["checker.apply_s"], 1.5 - 0.5 - 0.4 - 0.1)
        self.assertEqual(m["checker.flush_p50_ms"], 2.0)
        self.assertEqual(m["checker.flush_p99_ms"], 9.0)
        self.assertAlmostEqual(m["store.commit_ms"], 200.0)
        self.assertEqual(m["store.bytes_per_commit"], 500)
        self.assertEqual(m["setup.generate_s"], 2.0)
        self.assertEqual(m["setup.start_s"], 0.02)
        self.assertEqual(m["server.pump_s"], 0.0)
        # Untraced 625 txn/s against 500 traced: 20 % overhead.
        self.assertAlmostEqual(m["trace.overhead_pct"], 20.0)

    def test_serve_samples_become_medians_and_quantiles(self):
        traced = {
            "read_s": 0.03, "decode_s": 0.09, "flush_s": 8.5, "flushes": 5000,
            "flush_p50_ms": 2.047, "flush_p99_ms": 8.191,
            "phase_delta_build_s": 6.0, "phase_merge_s": 2.0,
            "phase_pk_s": 2.4, "phase_finalize_s": 0.0,
            "violations": 72, "pump_s": 21.0, "output_queue_s": 3.0,
            "poll_max_stall_ms": 190.0,
            "hello_ms": [3.0, 1.0, 2.0, 40.0],
            "stats_rtt_ms": [float(i) for i in range(1, 201)],
            "round_txns": [100.0, 300.0], "round_s": [1.0, 1.0],
            "traced_round_txns": [150.0], "traced_round_s": [1.0],
            "eos_ms": [50.0, 40.0, 60.0],
        }
        r = fake_run("serve-mux", traced)
        r.iters = [traced]
        m = r.per_layer()
        self.assertEqual({k for k, _ in run.PER_LAYER}, set(m))
        self.assertEqual(m["server.hello_ms"], 2.5)
        self.assertEqual(m["server.stats_rtt_p50_ms"], 100.0)
        self.assertEqual(m["server.stats_rtt_p99_ms"], 198.0)
        self.assertEqual(m["checker.flush_p99_ms"], 8.191)
        # A pooled rate: 400 txns over 2 s untraced, 150 over 1 s traced.
        self.assertAlmostEqual(m["trace.overhead_pct"], 25.0)
        self.assertEqual(r.eos_verdict_ms(), 50.0)
        # Each set-up's CPU seconds plus its start: median of 2.51, 2.43, 2.62.
        self.assertAlmostEqual(r.setup_s(), 2.51)

    def test_end_to_end_metrics_are_midmeans(self):
        r = fake_run("check-all", None)
        r.iters = [{"txns": 100, "busy_s": 1.0, "eos_busy_s": 0.5},
                   {"txns": 100, "busy_s": 2.0, "eos_busy_s": 0.7},
                   {"txns": 100, "busy_s": 4.0, "eos_busy_s": 0.9},
                   {"txns": 100, "busy_s": 0.5, "eos_busy_s": 0.1}]
        r.rss = [100.0, 120.0, 110.0, 130.0]
        m = r.end_to_end()
        self.assertEqual(set(m), {k for k, _ in run.END_TO_END})
        self.assertEqual(m["txns_per_s"], 75.0)
        self.assertAlmostEqual(m["eos_verdict_ms"], 600.0)
        self.assertEqual(m["peak_rss_mb"], 115.0)
        self.assertAlmostEqual(m["setup_s"], 2.5 + 0.02)


if __name__ == "__main__":
    unittest.main()
