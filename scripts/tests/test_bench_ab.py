"""Unit tests for scripts/bench_ab.py's paired verdict.

    python3 -m unittest discover -s scripts/tests
"""

import argparse
import importlib.util
import math
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench_ab.py"
SPEC = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_ab)


def fake_runs(parent, change, metric="wall_s"):
    """Paired run records shaped like run.py's final JSON lines."""
    return [{side: {"metrics": {metric: {"value": value}},
                    "manifest": {"git_describe": side}}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


class PairedLogRatios(unittest.TestCase):
    def test_ratios_are_change_over_parent(self):
        ratios = bench_ab.paired_log_ratios([2.0, 4.0], [1.0, 4.0])
        self.assertAlmostEqual(ratios[0], math.log(0.5))
        self.assertAlmostEqual(ratios[1], 0.0)

    def test_pairs_without_a_positive_side_are_dropped(self):
        self.assertEqual(
            bench_ab.paired_log_ratios([0.0, 1.0, -1.0], [1.0, 0.0, 1.0]),
            [])


class BootstrapMedianCi(unittest.TestCase):
    def test_no_values_has_no_interval(self):
        self.assertIsNone(bench_ab.bootstrap_median_ci([]))

    def test_constant_values_give_a_point_interval(self):
        self.assertEqual(bench_ab.bootstrap_median_ci([0.25] * 10),
                         (0.25, 0.25, 0.25))

    def test_interval_brackets_the_median_and_is_seeded(self):
        values = [0.01 * k for k in (-3, 5, 8, 9, 10, 11, 12, 14, 20, 31)]
        median, low, high = bench_ab.bootstrap_median_ci(values)
        self.assertAlmostEqual(median, 0.105)
        self.assertLessEqual(low, median)
        self.assertGreaterEqual(high, median)
        self.assertGreaterEqual(low, min(values))
        self.assertLessEqual(high, max(values))
        self.assertEqual(bench_ab.bootstrap_median_ci(values),
                         (median, low, high))

    def test_a_clear_shift_excludes_zero(self):
        values = [0.09, 0.095, 0.1, 0.1, 0.105, 0.11, 0.1, 0.098, 0.102,
                  0.107]
        _, low, high = bench_ab.bootstrap_median_ci(values)
        self.assertGreater(low, 0.0)
        self.assertLess(high, 0.12)

    def test_a_wider_level_widens_the_interval(self):
        values = [0.01 * k for k in (-9, -4, -1, 0, 2, 3, 5, 7, 12, 15)]
        _, low95, high95 = bench_ab.bootstrap_median_ci(values)
        _, low50, high50 = bench_ab.bootstrap_median_ci(values, level=0.5)
        self.assertLessEqual(low95, low50)
        self.assertGreaterEqual(high95, high50)


class Summary(unittest.TestCase):
    METRIC = {"name": "wall_s", "better": "lower", "bound": 0.25}

    def test_row_and_history_carry_the_paired_verdict(self):
        parent = [1.0, 1.1, 0.9, 1.05, 1.0, 0.95, 1.2, 1.0, 1.1, 0.98]
        change = [p * 0.9 for p in parent]
        runs = fake_runs(parent, change)
        row = bench_ab.summarize(self.METRIC, runs)
        self.assertAlmostEqual(row["log_ratio_median"], math.log(0.9))
        low, high = row["log_ratio_ci95"]
        self.assertAlmostEqual(low, math.log(0.9))
        self.assertAlmostEqual(high, math.log(0.9))
        self.assertEqual(row["change_wins"], 10)
        args = argparse.Namespace(pairs=10, seconds=5.0, seed=0)
        line = bench_ab.history_line("study_fx8", args, runs, [row])
        entry = line["metrics"]["wall_s"]
        self.assertEqual(entry["log_ratio_median"], row["log_ratio_median"])
        self.assertEqual(entry["log_ratio_ci95"], row["log_ratio_ci95"])

    def test_percent_reads_a_log_ratio_as_a_change(self):
        self.assertAlmostEqual(bench_ab.percent(math.log(1.1)), 10.0)
        self.assertAlmostEqual(bench_ab.percent(0.0), 0.0)


if __name__ == "__main__":
    unittest.main()
