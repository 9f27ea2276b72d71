"""Percentiles, quartiles and the better/worse verdict of two result sets."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
PERCENTILE_LADDER = (50, 75, 90, 99, 99.9)


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above that rank."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(count: int) -> float | None:
    """The highest percentile of the ladder with MIN_BEYOND samples beyond it."""
    best = None
    for q in PERCENTILE_LADDER:
        if count - max(1, math.ceil(q / 100 * count)) >= MIN_BEYOND:
            best = q
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def verdict(parent, change, better: str, bound: float) -> str:
    """Compare paired runs of one metric; runs are paired by position.

    - ``better``: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ by more than the
      parent's inter-quartile distance.
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median.
    - ``unresolved``: otherwise, when either side's spread is wider than
      the bound, unless every change run reads better than every parent run.
    - ``unchanged``: no regression is shown and no gain can be claimed.
    """
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better"
    if -gain > bound * abs(p_med):
        return "worse"
    wide = max(relative_spread(parent), relative_spread(change)) > bound
    if wide and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "unchanged"
