"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s wavebench -p 'test_*.py'

run.py also runs them before every measurement.
"""

import unittest

import metrics


class NearestRank(unittest.TestCase):
    def test_picks_the_ceil_rank(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(metrics.nearest_rank(xs, 0.5), 3)  # ceil(2.5) = 3rd
        self.assertEqual(metrics.nearest_rank(xs, 0.2), 1)
        self.assertEqual(metrics.nearest_rank(xs, 0.21), 2)
        self.assertEqual(metrics.nearest_rank(xs, 1.0), 5)

    def test_p90_of_100_is_the_90th_sample(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(xs, 0.9), 90)
        self.assertEqual(metrics.nearest_rank(xs, 0.99), 99)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            metrics.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            metrics.nearest_rank([1], 0.0)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertTrue(metrics.supported(100, 0.9))
        self.assertFalse(metrics.supported(99, 0.9))
        self.assertFalse(metrics.supported(999, 0.99))
        self.assertTrue(metrics.supported(1000, 0.99))


class TokenGaps(unittest.TestCase):
    def test_pools_gaps_of_every_request(self):
        streams = [[0.0, 1.0, 3.0], [10.0], [5.0, 5.5]]
        self.assertEqual(sorted(metrics.token_gaps(streams)), [0.5, 1.0, 2.0])

    def test_pooled_differs_from_per_request_means(self):
        # One long request with short gaps, one short with a long gap: the
        # pooled median sits with the many short gaps.
        streams = [[0, 1, 2, 3, 4, 5], [0, 10]]
        gaps = metrics.token_gaps(streams)
        self.assertEqual(len(gaps), 6)
        self.assertEqual(metrics.median(gaps), 1)


class Slo(unittest.TestCase):
    def req(self, ok, due, times):
        return {"ok": ok, "due": due, "token_times": times}

    def test_counts_failures_as_misses(self):
        reqs = [
            self.req(True, 0.0, [0.01, 0.012, 0.014]),   # meets
            self.req(True, 1.0, [1.08, 1.081]),          # TTFT 80 ms
            self.req(True, 2.0, [2.01, 2.03]),           # gap 20 ms
            self.req(False, 3.0, [3.001, 3.002]),        # wrong tokens
            self.req(False, 4.0, []),                    # never served
        ]
        self.assertAlmostEqual(metrics.slo_attainment(reqs, 0.05, 0.005), 1 / 5)

    def test_mean_gap_not_max_gap(self):
        # One 8 ms gap among 1 ms gaps: mean (8 + 1 * 4) / 5 = 2.4 ms.
        times = [0.0, 0.008, 0.009, 0.010, 0.011, 0.012]
        self.assertTrue(metrics.request_meets_slo(self.req(True, 0.0, times), 0.05, 0.005))

    def test_ttft_counts_from_due_time(self):
        # Enqueued late by the generator: the lateness counts against TTFT.
        self.assertFalse(metrics.request_meets_slo(self.req(True, 0.0, [0.051]), 0.05, 0.005))

    def test_no_requests(self):
        with self.assertRaises(ValueError):
            metrics.slo_attainment([], 0.05, 0.005)


class IdleShare(unittest.TestCase):
    def test_hand_built_spans(self):
        # Two ranks over a 10 s step: rank 0 busy 0-4 and 6-10 (8 s),
        # rank 1 busy 2-5 with an overlapping 3-4 span (3 s).
        ranks = [[(0, 4), (6, 10)], [(2, 5), (3, 4)]]
        self.assertAlmostEqual(metrics.compute_busy_share(ranks, 10.0), 11 / 20)
        self.assertAlmostEqual(metrics.idle_share_max(ranks, 10.0), 0.7)

    def test_spans_clipped_to_the_wall(self):
        self.assertAlmostEqual(metrics.busy_seconds([(-1, 2), (8, 12)], 10.0), 4.0)

    def test_fully_busy_rank(self):
        self.assertEqual(metrics.idle_share_max([[(0, 5)]], 5.0), 0.0)


if __name__ == "__main__":
    unittest.main()
