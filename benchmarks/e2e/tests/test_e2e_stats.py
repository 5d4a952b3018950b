"""Nearest-rank percentiles and the ten-samples-beyond tail rule."""

import statistics

import pytest

from stats import (
    MIN_BEYOND,
    nearest_rank,
    quartiles,
    relative_spread,
    summary,
    tail_percentile,
)


def test_nearest_rank_picks_the_ceil_rank_sample():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.5) == (50, 50)
    assert nearest_rank(values, 0.99) == (99, 1)
    assert nearest_rank(values, 1.0) == (100, 0)
    assert nearest_rank(list(reversed(values)), 0.5) == (50, 50)


def test_p99_of_5000_samples_has_50_beyond_it():
    value, beyond = nearest_rank([float(i) for i in range(5000)], 0.99)
    assert beyond == 50
    assert value == 4949.0


def test_tail_rule_needs_ten_samples_beyond():
    full = tail_percentile(list(range(1000)), 0.99)
    assert (full["q"], full["beyond"], full["value"]) == (0.99, MIN_BEYOND, 989)
    # 999 samples leave only 9 beyond p99: fall back to p95.
    short = tail_percentile(list(range(999)), 0.99)
    assert short["q"] == 0.95 and short["beyond"] >= MIN_BEYOND
    # 200 samples: p95 has exactly 10 beyond it.
    assert tail_percentile(list(range(200)), 0.99)["q"] == 0.95
    # A handful of whole-program runs has no tail: report the median.
    few = tail_percentile([3.0, 1.0, 2.0, 5.0, 4.0], 0.99)
    assert (few["q"], few["value"], few["n"]) == (0.5, 3.0, 5)


def test_empty_sample_and_bad_percentile():
    assert nearest_rank([], 0.5) == (0.0, 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    report = summary(values)
    assert report["n"] == 10
    assert report["median"] == statistics.median(values)


def test_relative_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 11.0]
    q1, _, q3 = quartiles(values)
    assert relative_spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert relative_spread([0.0, 0.0]) == 0.0
