"""Unit tests of benchmark/benchstats.py (run.py --selftest; < 5 s).

    python3 benchmark/selftest.py
"""

import os
import random
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402


def log_linear_bucket(v, sub_bits=6):
    """The bucket of benchmark/histogram.h holding `v`, as (lower, upper)."""
    sub = 1 << sub_bits
    if v < 2 * sub:
        return v, v + 1
    g = v.bit_length() - 1 - sub_bits
    m = v >> g
    return m << g, (m + 1) << g


def exact_percentile(values, pct):
    """Nearest-rank percentile of raw samples: the reference the histogram
    and latency tests compare against."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[int(rank) - 1]


def histogram_of(values):
    counts = {}
    for v in values:
        key = log_linear_bucket(v)
        counts[key] = counts.get(key, 0) + 1
    return benchstats.Histogram([lo, hi, c] for (lo, hi), c in counts.items())


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertTrue(benchstats.tail_ok(1000, 99.0))
        self.assertFalse(benchstats.tail_ok(999, 99.0))
        self.assertTrue(benchstats.tail_ok(100, 90.0))
        self.assertFalse(benchstats.tail_ok(99, 90.0))

    def test_highest_supported_tail(self):
        self.assertEqual(benchstats.highest_tail(10000), 99.9)
        self.assertEqual(benchstats.highest_tail(2020), 99.0)
        self.assertEqual(benchstats.highest_tail(404), 90.0)
        self.assertIsNone(benchstats.highest_tail(50))


class QuartilesAndBounds(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(benchstats.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(benchstats.spread([3.0]), 0.0)

    def test_spread_within_bound(self):
        # Ten runs within +-1% of 100 stay inside a 10% bound with margin.
        values = [99.0, 99.5, 100.0, 100.2, 100.4, 100.6, 100.8, 101.0,
                  99.8, 100.1]
        self.assertLess(benchstats.spread(values), 0.10 / 3)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchstats.worse_by(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(benchstats.worse_by(10.0, 8.0, "lower"), -0.2)
        self.assertAlmostEqual(benchstats.worse_by(10.0, 8.0, "higher"), 0.2)
        self.assertAlmostEqual(benchstats.worse_by(10.0, 12.0, "higher"),
                               -0.2)


class HistogramPercentiles(unittest.TestCase):
    def test_error_at_most_one_bucket(self):
        rng = random.Random(7)
        values = [int(rng.lognormvariate(13.0, 1.2)) for _ in range(20000)]
        hist = histogram_of(values)
        self.assertEqual(hist.total, len(values))
        for pct in (1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9):
            exact = exact_percentile(values, pct)
            lower, upper = log_linear_bucket(exact)
            got = hist.percentile(pct)
            self.assertLessEqual(abs(got - exact), upper - lower,
                                 "p%g: %g vs exact %g" % (pct, got, exact))

    def test_merge_adds_counts(self):
        a = benchstats.Histogram([[10, 11, 3]])
        a.merge([[10, 11, 2], [20, 21, 5]])
        self.assertEqual(a.total, 10)
        self.assertEqual(a.percentile(50.0), 10.0 + 1.0 * (5.0 - 0) / 5)


class BatchPercentile(unittest.TestCase):
    def test_equals_percentile_of_every_answer(self):
        # Four passes of 1,000 answers each, every answer of a pass
        # delivered at the pass's latency.
        passes = [5200, 4900, 6100, 5000]
        answers = [latency for latency in passes for _ in range(1000)]
        for pct in (25.0, 50.0, 75.0, 99.0):
            self.assertEqual(benchstats.batch_percentile(passes, pct),
                             exact_percentile(answers, pct))
        self.assertEqual(benchstats.batch_percentile(passes, 99.0), 6100)
        self.assertEqual(benchstats.batch_percentile([7], 50.0), 7)


class DueTimeLatency(unittest.TestCase):
    T0 = 100.0
    RATE = 50.0

    def test_backlog_shows_growing_p99(self):
        # The daemon needs 25 ms per 20 ms round: each round lands 5 ms
        # later than the one before, for 20 pushes per round.
        arrivals = [(r, self.T0 + (r + 1) / self.RATE + 0.005 * r + 1e-5 * i)
                    for r in range(200) for i in range(20)]
        early = benchstats.due_latencies(arrivals[:1000], self.T0, self.RATE)
        whole = benchstats.due_latencies(arrivals, self.T0, self.RATE)
        self.assertGreater(exact_percentile(whole, 99.0),
                           2 * exact_percentile(early, 99.0))

    def test_burst_hides_from_skew_rule(self):
        # Every round's pushes arrive together, 30 ms after the round was
        # due: skew-from-first-push reports 0, due time reports 30 ms.
        arrivals = [(r, self.T0 + (r + 1) / self.RATE + 0.030)
                    for r in range(50) for _ in range(100)]
        skew = benchstats.skew_latencies(arrivals)
        due = benchstats.due_latencies(arrivals, self.T0, self.RATE)
        self.assertEqual(exact_percentile(skew, 50.0), 0.0)
        self.assertAlmostEqual(exact_percentile(due, 50.0), 0.030,
                               places=9)


class SpanSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # pass [0, 100) > run [10, 90) > {build [10, 30), round [30, 80)}
        #   round > oracle [70, 80)
        spans = [
            {"id": 0, "name": "pass", "parent": -1, "start_ns": 0,
             "end_ns": 100},
            {"id": 1, "name": "run", "parent": 0, "start_ns": 10,
             "end_ns": 90},
            {"id": 2, "name": "core.build", "parent": 1, "start_ns": 10,
             "end_ns": 30},
            {"id": 3, "name": "algo.round", "parent": 1, "start_ns": 30,
             "end_ns": 80},
            {"id": 4, "name": "algo.oracle", "parent": 3, "start_ns": 70,
             "end_ns": 80},
        ]
        got = {k: round(v * 1e9) for k, v in
               benchstats.self_times(spans).items()}
        self.assertEqual(got, {"pass": 20, "run": 10, "core.build": 20,
                               "algo.round": 40, "algo.oracle": 10})
        self.assertEqual(sum(got.values()), 100)

    def test_repeated_names_accumulate(self):
        spans = [{"id": i, "name": "net.begin_round", "parent": -1,
                  "start_ns": 10 * i, "end_ns": 10 * i + 3} for i in range(4)]
        self.assertAlmostEqual(benchstats.self_times(spans)["net.begin_round"],
                               12e-9)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
