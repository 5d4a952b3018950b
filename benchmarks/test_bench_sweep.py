"""Benchmark regenerating the Section 6.1 configuration sweep."""

from __future__ import annotations

from bench_common import run_once

from repro.experiments import sweep


def test_bench_sweep_proportions(benchmark, publish):
    """Proportion x threshold grid for one interactive app."""
    result = run_once(
        benchmark, lambda: sweep.run(benchmark="excel", scale_multiplier=16.0)
    )
    publish(result)
    assert len(result.rows) == len(sweep.PROPORTION_GRID) * len(sweep.THRESHOLD_GRID)


def test_bench_sweep_probation_threshold_link(benchmark, publish):
    """Section 6.1's observation: smaller probation caches need lower
    promotion thresholds."""
    result = run_once(
        benchmark,
        lambda: sweep.probation_threshold_link(
            benchmark="excel", scale_multiplier=16.0
        ),
    )
    publish(result)
    by_probation = {
        float(r["Probation"]): int(r["BestThreshold"]) for r in result.rows
    }
    # The best threshold at the smallest probation must not exceed the
    # best threshold at the largest.
    assert by_probation[min(by_probation)] <= by_probation[max(by_probation)]
