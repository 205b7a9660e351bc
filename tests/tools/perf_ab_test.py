#!/usr/bin/env python3
"""Tests the statistics and row code of tools/perf_ab.py on a checked-in
JSONL fixture (fixtures/perf_ab_pairs.jsonl: five recorded pairs, the last
of which failed its correctness check). Nothing is built or run.

    python3 tests/tools/perf_ab_test.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRIPT = os.path.join(ROOT, "tools", "perf_ab.py")
FIXTURE = os.path.join(HERE, "fixtures", "perf_ab_pairs.jsonl")

spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_ab)


class PerfAbStats(unittest.TestCase):
    def setUp(self):
        self.pairs = perf_ab.read_pairs(FIXTURE)
        self.summary = {s["metric"]: s for s in perf_ab.summarize(
            self.pairs, perf_ab.load_metric_specs(0))}

    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(perf_ab.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        self.assertEqual(perf_ab.quartiles([7]), (7, 7, 7))

    def test_failed_pair_is_left_out(self):
        self.assertEqual([p["seed"] for p in self.pairs
                          if not perf_ab.pair_ok(p)], [5])
        self.assertEqual(self.summary["ns_per_lane_op"]["pairs"], 4)

    def test_lower_is_better_metric(self):
        s = self.summary["ns_per_lane_op"]
        self.assertEqual(s["parent"], {"median": 435, "q1": 415, "q3": 457.5})
        self.assertEqual(s["change"],
                         {"median": 120, "q1": 113.75, "q3": 218.75})
        self.assertEqual(s["wins"], 3)  # seed 3 read worse
        self.assertTrue(s["gap_exceeds_parent_iqr"])

    def test_higher_is_better_metric(self):
        s = self.summary["jobs_per_s"]
        self.assertAlmostEqual(s["parent"]["median"], 1.075)
        self.assertAlmostEqual(s["change"]["median"], 3.95)
        self.assertEqual(s["wins"], 3)

    def test_metric_missing_from_a_pair_is_left_out(self):
        # peak_rss_mb is absent from seed 4, a passing pair.
        self.assertNotIn("peak_rss_mb", self.summary)
        self.assertEqual(list(self.summary), ["ns_per_lane_op", "jobs_per_s"])

    def test_rows_use_the_bench_file_schema(self):
        meta = dict(self.pairs[0], seeds="1-4")
        rows = perf_ab.rows(list(self.summary.values()), meta, 24)
        self.assertEqual(rows[0], {
            "pr": 24, "commit": "1111111", "change_commit": "2222222",
            "workload": "suite-telemetry", "metric": "ns_per_lane_op",
            "unit": "ns",
            "parent": {"median": 435, "q1": 415, "q3": 457.5},
            "change": {"median": 120, "q1": 113.75, "q3": 218.75},
            "pairs": 4, "run_seconds": 30, "seeds": "1-4", "wins": "3/4"})
        with open(os.path.join(ROOT, "BENCH_perfbench.json")) as f:
            checked_in = json.load(f)["rows"][-1]
        self.assertEqual(list(rows[0]), list(checked_in))
        self.assertEqual(list(rows[0]["parent"]), list(checked_in["parent"]))

    def test_seed_labels(self):
        self.assertEqual(perf_ab.seed_label([3, 1, 2]), "1-3")
        self.assertEqual(perf_ab.seed_label([7919, 7919]), "7919")
        self.assertEqual(perf_ab.seed_label([1, 5]), "1,5")

    def test_replay_prints_rows_and_fails_on_a_failed_pair(self):
        done = subprocess.run(
            [sys.executable, SCRIPT, "--replay", FIXTURE, "--emit-rows",
             "--pr", "24"], capture_output=True, text=True)
        self.assertEqual(done.returncode, 1)
        rows = [json.loads(line) for line in done.stdout.splitlines()
                if line.startswith("{")]
        self.assertEqual([r["metric"] for r in rows],
                         ["ns_per_lane_op", "jobs_per_s"])
        self.assertEqual(rows[0]["seeds"], "1-4")
        self.assertIn("failed pairs (seeds): [5]", done.stdout)


if __name__ == "__main__":
    unittest.main()
