"""Arithmetic of the wave-pipeline benchmark.

Pure functions over the raw measurements the workload binary prints:
nearest-rank quantiles, pooled token gaps, SLO accounting and the busy
and idle shares of a pipeline's ranks. test_metrics.py checks each one on
hand-built inputs.
"""

import math
from fractions import Fraction


def nearest_rank(samples, q):
    """The nearest-rank quantile: the ceil(q * n)-th smallest sample.

    The rank is computed in exact arithmetic, so q = 0.9 over 100 samples
    is the 90th sample and not, through 0.9 * 100 = 90.00000000000001 in
    floating point, the 91st.
    """
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    n = len(samples)
    rank = math.ceil(Fraction(str(q)) * n)
    return sorted(samples)[max(1, rank) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - math.ceil(Fraction(str(q)) * n)


def supported(n, q, beyond=10):
    """Whether n samples put at least `beyond` samples past the quantile,
    the least a reported percentile needs to mean more than one outlier."""
    return samples_beyond(n, q) >= beyond


def median(samples):
    return nearest_rank(samples, 0.5)


def token_gaps(streams):
    """Gaps between consecutive tokens, pooled over every request.

    `streams` holds one list of token timestamps per request. Pooling the
    gaps (rather than averaging per request) weighs every gap once, so the
    percentiles rest on thousands of samples.
    """
    gaps = []
    for times in streams:
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    return gaps


def request_meets_slo(req, ttft_limit_s, tbt_limit_s):
    """A request meets the SLO when it was served correctly, its first
    token came within ttft_limit_s of its due time, and the mean gap
    between its tokens is within tbt_limit_s."""
    times = req["token_times"]
    if not req["ok"] or not times:
        return False
    if times[0] - req["due"] > ttft_limit_s:
        return False
    if len(times) > 1:
        mean_gap = (times[-1] - times[0]) / (len(times) - 1)
        if mean_gap > tbt_limit_s:
            return False
    return True


def slo_attainment(requests, ttft_limit_s, tbt_limit_s):
    """Share of requests sent that meet the SLO. Failed, rejected or
    wrong-token requests are in the denominator and count as misses."""
    if not requests:
        raise ValueError("no requests sent")
    met = sum(request_meets_slo(r, ttft_limit_s, tbt_limit_s) for r in requests)
    return met / len(requests)


def busy_seconds(spans, wall):
    """Seconds of [0, wall] covered by at least one (start, end) span."""
    covered = 0.0
    reach = 0.0
    for start, end in sorted((max(0.0, s), min(wall, e)) for s, e in spans):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def compute_busy_share(ranks, wall):
    """Compute time summed over ranks, over ranks x wall."""
    if wall <= 0 or not ranks:
        raise ValueError("need ranks and a positive wall time")
    return sum(busy_seconds(r, wall) for r in ranks) / (len(ranks) * wall)


def idle_share_max(ranks, wall):
    """The largest share of the wall any one rank spent without compute:
    bubble, communication wait and orchestration together."""
    if wall <= 0 or not ranks:
        raise ValueError("need ranks and a positive wall time")
    return max(1.0 - busy_seconds(r, wall) / wall for r in ranks)
