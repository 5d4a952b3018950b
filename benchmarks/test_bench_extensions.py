"""Benchmarks for the extension experiments (beyond the paper).

* capacity sensitivity — where the generational advantage peaks;
* oracle headroom — how much of the FIFO->Belady gap the hierarchy
  closes;
* seed robustness — stability of the Figure 9 averages.
"""

from __future__ import annotations

from bench_common import run_once

from repro.experiments import capacity, headroom, robustness


def test_bench_capacity_sensitivity(benchmark, publish):
    """Budget sweep: unified misses fall monotonically; the
    generational advantage vanishes when everything fits."""
    result = run_once(
        benchmark,
        lambda: capacity.run(benchmark="excel", scale_multiplier=16.0),
    )
    publish(result)
    unified = [float(v) for v in result.column("UnifiedMissPct")]
    assert unified == sorted(unified, reverse=True)
    assert unified[-1] < 0.5  # full budget: nearly no misses


def test_bench_oracle_headroom(benchmark, publish):
    """Generational closes a sizeable part of the oracle gap on the
    workloads it helps."""
    result = run_once(
        benchmark,
        lambda: headroom.run(
            scale_multiplier=16.0,
            subset=["gzip", "word", "iexplore", "art"],
        ),
    )
    publish(result)
    closed = {r["Benchmark"]: float(r["GapClosedPct"]) for r in result.rows}
    assert closed["word"] > 10.0
    for row in result.rows:
        assert float(row["OracleMissPct"]) <= float(row["UnifiedMissPct"])


def test_bench_seed_robustness(benchmark, publish):
    """Figure 9's averages are positive across seeds for every layout."""
    result = run_once(
        benchmark,
        lambda: robustness.run(
            seeds=(7, 42),
            scale_multiplier=16.0,
            subset=["gzip", "word", "iexplore", "crafty"],
        ),
    )
    publish(result)
    for row in result.rows:
        assert float(row["MeanReductionPct"]) > 0.0


def test_bench_reuse_distance(benchmark, publish):
    """Reuse distances are overwhelmingly short (the hot core) with a
    distant tail — the bimodality the generational design exploits."""
    from repro.experiments import reuse
    from repro.metrics.reuse import BUCKET_LABELS

    result = run_once(
        benchmark,
        lambda: reuse.run(
            scale_multiplier=16.0,
            subset=["gzip", "word", "iexplore", "art"],
        ),
    )
    publish(result)
    for row in result.rows:
        total = sum(float(row[label]) for label in BUCKET_LABELS)
        assert abs(total - 100.0) < 0.5
        assert float(row[BUCKET_LABELS[0]]) > 80.0
