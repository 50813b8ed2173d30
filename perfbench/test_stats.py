"""Self-tests for stats.py. Run: python3 -m unittest perfbench/test_stats.py
(run.py also runs them before every benchmark run)."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7]), 7)

    def test_median_ignores_order(self):
        xs = [9.5, 0.25, 3.0, 3.0, 12.0, -1.0]
        self.assertEqual(stats.median(xs), statistics.median(xs))

    def test_quartiles_match_inclusive_quantiles(self):
        for xs in ([1, 2, 3, 4, 5], [10, 20, 30, 40], list(range(1, 101)),
                   [5.5, 1.25, 9.0, 3.5, 7.75, 2.0, 8.5]):
            q1, med, q3 = stats.quartiles(xs)
            ref = statistics.quantiles(xs, n=4, method="inclusive")
            self.assertAlmostEqual(q1, ref[0])
            self.assertAlmostEqual(med, ref[1])
            self.assertAlmostEqual(q3, ref[2])

    def test_percentile_interpolates_and_bounds(self):
        xs = [0, 10, 20, 30, 40]
        self.assertEqual(stats.percentile(xs, 0), 0)
        self.assertEqual(stats.percentile(xs, 100), 40)
        self.assertAlmostEqual(stats.percentile(xs, 90), 36.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile(xs, 101)


class SupportedPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertEqual(stats.supported_percentile(99), 50.0)
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(199), 90.0)
        self.assertEqual(stats.supported_percentile(200), 95.0)
        self.assertEqual(stats.supported_percentile(999), 95.0)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(10000), 99.9)
        self.assertEqual(stats.supported_percentile(100000), 99.99)

    def test_summary_reports_count_and_supported_value(self):
        xs = list(range(1, 201))
        s = stats.summary(xs)
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["supported_percentile"], 95.0)
        self.assertAlmostEqual(s["supported_value"], stats.percentile(xs, 95))
        self.assertAlmostEqual(s["median"], 100.5)
        self.assertIsNone(stats.summary([1, 2, 3])["supported_percentile"])


if __name__ == "__main__":
    unittest.main()
