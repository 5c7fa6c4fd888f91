"""Self-tests for the benchmark's own arithmetic.

    python3 perfbench/selftest.py

``run.py`` runs them before every measurement and refuses to report when
one fails.  They need neither the program nor numpy.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (mix_positions, poisson_schedule, self_time, tail,  # noqa: E402
                    tail_rank, union_length, zipf_ranks)


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1000))
        value, pct = tail(values)
        self.assertEqual(value, 989)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 99.0)

    def test_small_sample_uses_highest_qualifying_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 0.0,
                  11.0]
        value, pct = tail(values)
        self.assertEqual(value, 1.0)          # 10 samples above it
        self.assertAlmostEqual(pct, 200 / 12)

    def test_too_few_samples_falls_back_to_max(self):
        self.assertIsNone(tail_rank(10))
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0))

    def test_order_independent(self):
        values = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(tail(values), tail(sorted(values)))


class SpanSelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(self_time(0.0, 10.0, []), 10.0)

    def test_overlapping_children_count_once(self):
        children = [(1.0, 4.0), (3.0, 6.0), (5.0, 7.0)]
        self.assertAlmostEqual(self_time(0.0, 10.0, children), 4.0)

    def test_nested_and_identical_children(self):
        children = [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)]
        self.assertAlmostEqual(self_time(0.0, 10.0, children), 4.0)

    def test_children_clipped_to_span(self):
        # worker spans from another process may start before the call
        children = [(-2.0, 1.0), (9.0, 12.0)]
        self.assertAlmostEqual(self_time(0.0, 10.0, children), 8.0)

    def test_union_length_disjoint_and_empty(self):
        self.assertAlmostEqual(union_length([(0, 1), (2, 3), (5, 5)]), 2.0)
        self.assertEqual(union_length([]), 0.0)


class Schedules(unittest.TestCase):
    def test_poisson_is_seeded_and_exact_count(self):
        a = poisson_schedule(30.0, 10.0, seed=4)
        self.assertEqual(a, poisson_schedule(30.0, 10.0, seed=4))
        self.assertNotEqual(a, poisson_schedule(30.0, 10.0, seed=5))
        self.assertEqual(len(a), 300)
        self.assertEqual(a, sorted(a))
        self.assertTrue(0.0 <= a[0] and a[-1] <= 10.0)

    def test_poisson_gaps_look_exponential(self):
        a = poisson_schedule(30.0, 200.0, seed=1)
        gaps = [b - x for x, b in zip(a, a[1:])]
        mean = sum(gaps) / len(gaps)
        self.assertAlmostEqual(mean, 1 / 30.0, delta=0.003)
        # exponential: about e^-1 of the gaps exceed the mean
        share = sum(g > mean for g in gaps) / len(gaps)
        self.assertAlmostEqual(share, 0.368, delta=0.03)

    def test_zipf_is_seeded_bounded_and_skewed(self):
        a = zipf_ranks(400, 5000, 1.2, seed=3)
        self.assertEqual(a, zipf_ranks(400, 5000, 1.2, seed=3))
        self.assertNotEqual(a, zipf_ranks(400, 5000, 1.2, seed=4))
        self.assertTrue(all(0 <= r < 400 for r in a))
        self.assertGreater(a.count(0), a.count(1))
        self.assertGreater(a.count(1), a.count(10))

    def test_fuzz_mix_is_seeded_and_exact(self):
        a = mix_positions(1000, 100, seed=2)
        self.assertEqual(a, mix_positions(1000, 100, seed=2))
        self.assertNotEqual(a, mix_positions(1000, 100, seed=3))
        self.assertEqual(sum(a), 100)
        self.assertEqual(len(a), 1000)


if __name__ == "__main__":
    unittest.main()
