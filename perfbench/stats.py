"""Percentiles for the round-latency report."""

from __future__ import annotations

import math

# candidate percentiles, lowest first
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    # round first so that e.g. 1000 * 99.9 / 100 counts as 999, not 999.0000000000001
    return n - math.ceil(round(n * p / 100.0, 9))


def highest_percentile(values: list[float], ladder=LADDER, min_beyond: int = MIN_BEYOND):
    """The highest ladder percentile with at least ``min_beyond`` samples
    beyond it, as ``(p, value, sample_count)``; None when even the lowest
    rung has too few samples."""
    n = len(values)
    eligible = [p for p in ladder if samples_beyond(n, p) >= min_beyond]
    if not eligible:
        return None
    p = max(eligible)
    return p, percentile(values, p), n
