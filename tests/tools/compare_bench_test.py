#!/usr/bin/env python3
"""Tests for tools/compare_bench.py's handling of repeated records.

    python3 tests/tools/compare_bench_test.py

A record run with --benchmark_repetitions must be compared through its
``median`` aggregate row: times and timing-derived rates are medians,
and deterministic counters keep their value.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    os.pardir, "tools", "compare_bench.py")


def iteration(name, real_time, rate, swept, index, repetitions):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "repetitions": repetitions, "repetition_index": index,
            "iterations": 10,
            "real_time": real_time, "cpu_time": real_time,
            "items_per_second": rate, "swept_blocks_per_task": swept,
            "time_unit": "ms"}


def aggregate(name, kind, real_time, rate, swept, repetitions):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "repetitions": repetitions, "iterations": repetitions,
            "real_time": real_time,
            "cpu_time": real_time, "items_per_second": rate,
            "swept_blocks_per_task": swept, "time_unit": "ms"}


def repeated(name, times, rates, swept):
    """An odd number of repetitions plus the aggregates google-benchmark
    appends after them."""
    n = len(times)
    rows = [iteration(name, t, r, swept, i, n)
            for i, (t, r) in enumerate(zip(times, rates))]
    rows.append(aggregate(name, "mean", sum(times) / n, sum(rates) / n,
                          swept, n))
    rows.append(aggregate(name, "median", sorted(times)[n // 2],
                          sorted(rates)[n // 2], swept, n))
    rows.append(aggregate(name, "stddev", 99.0, 99.0, 0.0, n))
    return rows


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, filename, rows):
        path = os.path.join(self.dir.name, filename)
        with open(path, "w") as f:
            json.dump({"context": {}, "benchmarks": rows}, f)
        return path

    def compare(self, old_rows, new_rows, *flags):
        old = self.write("old.json", old_rows)
        new = self.write("new.json", new_rows)
        return subprocess.run([sys.executable, TOOL, old, new, *flags],
                              capture_output=True, text=True)

    def test_noisy_repetitions_are_not_a_regression(self):
        # The first and last repetitions are 2x off in time and rate; the
        # medians match the baseline, so nothing regresses.
        old = repeated("BM_X", [10.0] * 5, [100.0] * 5, 7.0)
        new = repeated("BM_X", [20.0, 10.0, 10.0, 10.2, 20.0],
                       [200.0, 100.0, 100.0, 101.0, 200.0], 7.0)
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("all 4 compared metrics", result.stdout)

    def test_slow_median_is_a_regression(self):
        old = repeated("BM_X", [10.0] * 5, [100.0] * 5, 7.0)
        new = repeated("BM_X", [10.0, 20.0, 20.0, 20.0, 10.0], [100.0] * 5,
                       7.0)
        result = self.compare(old, new)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("BM_X real_time", result.stderr)

    def test_median_rate_is_compared(self):
        # items_per_second is derived from timing: its median is used.
        old = repeated("BM_X", [10.0] * 5, [100.0] * 5, 7.0)
        new = repeated("BM_X", [10.0] * 5,
                       [100.0, 150.0, 150.0, 150.0, 100.0], 7.0)
        result = self.compare(old, new, "--counters", "items_per_second")
        self.assertRegex(result.stdout, r"100\.0000 ->\s+150\.0000")

    def test_deterministic_counter_against_single_run_baseline(self):
        # A single-run baseline (no aggregates) against a repeated record:
        # the counter compares equal, a changed counter regresses.
        old = [{"name": "BM_X", "run_name": "BM_X", "run_type": "iteration",
                "iterations": 10, "real_time": 10.0, "cpu_time": 10.0,
                "swept_blocks_per_task": 7.0, "time_unit": "ms"}]
        same = self.compare(old, repeated("BM_X", [10.0] * 3, [1.0] * 3, 7.0),
                            "--counters", "swept_blocks_per_task")
        self.assertEqual(same.returncode, 0, same.stdout + same.stderr)
        self.assertRegex(same.stdout, r"7\.0000 ->\s+7\.0000")
        worse = self.compare(old, repeated("BM_X", [10.0] * 3, [1.0] * 3, 9.0),
                             "--counters", "swept_blocks_per_task")
        self.assertEqual(worse.returncode, 1, worse.stdout + worse.stderr)


if __name__ == "__main__":
    unittest.main()
