"""Tests of the benchmark's own statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats

MS = 1_000_000  # nanoseconds


def simulate_single_sender(due_ms, service_ms, stall_ms):
    """One sender working through an open-loop schedule: a request is sent
    at its due time or when the previous one completes, whichever is later.
    The first request stalls for `stall_ms` extra. Returns request rows."""
    rows = []
    free_at = 0.0
    for i, due in enumerate(due_ms):
        sent = max(due, free_at)
        done = sent + service_ms + (stall_ms if i == 0 else 0.0)
        free_at = done
        rows.append([0, int(due * MS), int(sent * MS), int(done * MS), 1])
    return rows


class PercentileRuleTest(unittest.TestCase):
    def test_reports_the_asked_percentile_when_supported(self):
        self.assertEqual(stats.supported_percentile(1000, 99), 99)
        self.assertEqual(stats.supported_percentile(5000, 99), 99)

    def test_falls_back_to_the_highest_supported_percentile(self):
        self.assertEqual(stats.supported_percentile(999, 99), 98)
        self.assertEqual(stats.supported_percentile(100, 99), 90)
        self.assertEqual(stats.supported_percentile(20, 99), 50)
        self.assertIsNone(stats.supported_percentile(19, 99))
        self.assertIsNone(stats.supported_percentile(0, 99))

    def test_at_least_ten_samples_lie_beyond_the_reported_value(self):
        for n in range(20, 3001, 7):
            values = list(range(n))
            pct, value = stats.tail_percentile(values, 99)
            beyond = sum(1 for v in values if v > value)
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND, (n, pct))
            if pct < 99:
                # One percentile higher would leave fewer than ten beyond.
                self.assertLess(n * (1 - (pct + 1) / 100), stats.MIN_BEYOND)

    def test_interpolates_between_order_statistics(self):
        values = list(range(1, 101))
        pct, value = stats.tail_percentile(values, 99)
        self.assertEqual(pct, 90)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(stats.percentile(values, 50), 50.5)
        self.assertEqual(stats.percentile([7], 99), 7)


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 11))
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 5.5)
        self.assertAlmostEqual(stats.spread(values), 1.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.2] * 10), 0.0)
        self.assertEqual(stats.spread([0.0] * 10), 0.0)


class OpenLoopTest(unittest.TestCase):
    def test_a_stall_is_charged_to_the_requests_queued_behind_it(self):
        due = [10.0 * i for i in range(50)]
        rows = simulate_single_sender(due, service_ms=1.0, stall_ms=100.0)
        fig = stats.open_loop(rows)
        # Request 0 stalls; requests 1..9 were due during the stall and were
        # sent late, so their latency from due includes the wait.
        self.assertAlmostEqual(fig["knn_ms"][0], 101.0)
        self.assertAlmostEqual(fig["knn_ms"][1], 101.0 - 10.0 + 1.0)
        self.assertAlmostEqual(fig["lag_ms"][1], 101.0 - 10.0)
        for i in range(1, 10):
            self.assertGreater(fig["knn_ms"][i], 1.0 + 1e-9)
        # Once the backlog drains, latency is the service time again.
        self.assertAlmostEqual(fig["knn_ms"][20], 1.0)
        self.assertAlmostEqual(fig["lag_ms"][20], 0.0)
        # Timed from the send instead, every request would look like 1 ms
        # except the stalled one: the queueing would be invisible.
        from_send = [(done - sent) / MS for _, _, sent, done, _ in rows]
        self.assertEqual(sum(1 for x in from_send if x > 1.0 + 1e-9), 1)

    def test_failed_requests_miss_every_limit(self):
        rows = [[0, 0, 0, 1 * MS, 1]] * 30 + [[0, 0, 0, 1 * MS, 0]]
        fig = stats.open_loop(rows)
        self.assertEqual(fig["failed"], 1)
        self.assertTrue(math.isinf(max(fig["knn_ms"])))
        self.assertFalse(stats.meets_limit(rows, limit_ms=1000))

    def test_meets_limit_needs_a_short_tail_and_no_growing_backlog(self):
        due = [10.0 * i for i in range(200)]
        calm = simulate_single_sender(due, service_ms=2.0, stall_ms=0.0)
        self.assertTrue(stats.meets_limit(calm, limit_ms=50))
        # Service slower than arrivals: the backlog grows without bound.
        growing = simulate_single_sender(due, service_ms=12.0, stall_ms=0.0)
        self.assertFalse(stats.meets_limit(growing, limit_ms=50))
        # A one-off stall drains but still breaks a tight tail limit.
        stalled = simulate_single_sender(due, service_ms=1.0, stall_ms=400.0)
        self.assertFalse(stats.meets_limit(stalled, limit_ms=50))
        self.assertTrue(stats.meets_limit(stalled, limit_ms=500))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            ["request", 0, 100, -1, 7],
            ["encode", 10, 30, 0, 7],
            ["encode", 20, 50, 0, 7],   # overlaps its sibling
            ["index", 90, 120, 0, 7],   # runs past its parent's end
            ["gemm", 12, 18, 1, 7],     # grandchild
        ]
        self_ns = stats.self_times(spans)
        # request covers 10..50 and 90..100 with children: 100 - 50.
        self.assertEqual(self_ns["request"], 50)
        self.assertEqual(self_ns["encode"], (20 - 6) + 30)
        self.assertEqual(self_ns["index"], 30)
        self.assertEqual(self_ns["gemm"], 6)

    def test_span_totals_count_and_sum(self):
        spans = [["a", 0, 5, -1, 1], ["a", 10, 13, -1, 2], ["b", 1, 2, 0, 1]]
        self.assertEqual(stats.span_totals(spans), {"a": (2, 8), "b": (1, 1)})


class HistogramTest(unittest.TestCase):
    @staticmethod
    def snapshot(counts, total, max_value):
        bounds = [50.0, 100.0, 200.0]
        buckets = [{"le": b, "count": c} for b, c in zip(bounds, counts)]
        buckets.append({"le": "inf", "count": counts[-1]})
        return {"count": sum(counts), "sum": total, "max": max_value,
                "buckets": buckets}

    def test_quantile_of_the_delta_between_snapshots(self):
        before = self.snapshot([4, 0, 0, 0], 100.0, 40.0)
        after = self.snapshot([4, 10, 10, 0], 3100.0, 180.0)
        delta = stats.histogram_delta(before, after)
        self.assertEqual(delta["count"], 20)
        self.assertEqual(delta["sum"], 3000.0)
        # The median is the last observation of the (50, 100] bucket.
        self.assertEqual(stats.histogram_delta_quantile(before, after, 0.5),
                         100.0)
        self.assertEqual(stats.histogram_delta_quantile(before, after, 0.75),
                         150.0)
        self.assertIsNone(stats.histogram_delta_quantile(before, before, 0.5))

    def test_merged_deltas_pool_the_windows(self):
        first = self.snapshot([4, 0, 0, 0], 100.0, 40.0)
        second = self.snapshot([4, 10, 0, 0], 1100.0, 90.0)
        third = self.snapshot([4, 10, 4, 0], 1700.0, 180.0)
        fourth = self.snapshot([4, 10, 10, 0], 3100.0, 180.0)
        # Windows first->second and third->fourth, skipping the middle.
        merged = stats.merge_deltas([stats.histogram_delta(first, second),
                                     stats.histogram_delta(third, fourth)])
        self.assertEqual(merged["count"], 16)
        self.assertEqual(merged["sum"], 2400.0)
        self.assertEqual([c for _, c in merged["buckets"]], [0, 10, 6, 0])
        # Ten observations in (50, 100], six in (100, 200].
        self.assertEqual(stats.delta_quantile(merged, 0.5), 90.0)
        self.assertEqual(stats.delta_quantile(merged, 1.0), 200.0)


if __name__ == "__main__":
    unittest.main()
