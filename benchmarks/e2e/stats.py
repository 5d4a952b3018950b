"""Order statistics shared by the benchmark, the tracer and compare.py.

Percentiles use the nearest-rank definition: the q-th percentile of n
sorted samples is the sample at 1-based rank ceil(q * n), so exactly
n - rank samples lie beyond it.  A tail percentile is reported only
when at least ``MIN_BEYOND`` samples lie beyond it; with fewer samples
the report falls back to a lower percentile, down to the median, and
says which one it used.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a tail percentile for it to be reported
#: as that percentile rather than as a near-maximum.
MIN_BEYOND = 10

#: Lower percentiles a tail report falls back to, highest first.
TAIL_FALLBACKS = (0.95, 0.9, 0.75)


def nearest_rank(values: list[float], q: float) -> tuple[float, int]:
    """The nearest-rank *q* percentile of *values* and the number of
    samples beyond it.  Returns ``(0.0, 0)`` for an empty sample."""
    if not values:
        return 0.0, 0
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values: list[float], q: float) -> dict:
    """The *q* percentile if at least ``MIN_BEYOND`` samples lie beyond
    it, else the highest lower percentile in ``TAIL_FALLBACKS`` that has
    them, else the median.  Reports which percentile it used."""
    for candidate in (q,) + tuple(p for p in TAIL_FALLBACKS if p < q):
        value, beyond = nearest_rank(values, candidate)
        if beyond >= MIN_BEYOND:
            break
    else:
        candidate = 0.5
        value, beyond = nearest_rank(values, candidate)
    return {"value": value, "q": candidate, "n": len(values), "beyond": beyond}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of *values*."""
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values) if values else 0.0,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def relative_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 when the
    median is 0)."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values) if values else 0.0
    return (q3 - q1) / abs(median) if median else 0.0
