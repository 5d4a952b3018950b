"""Benchmark regenerating Figure 6 (trace-lifetime U shape)."""

from __future__ import annotations

import pytest
from bench_common import CHARACTERIZATION_SCALE, run_once

from repro.experiments import fig06_lifetimes
from repro.experiments.dataset import WorkloadDataset


@pytest.fixture(scope="module")
def dataset():
    return WorkloadDataset(seed=42, scale_multiplier=CHARACTERIZATION_SCALE)


def test_bench_fig06_lifetimes(benchmark, publish, dataset):
    """Figure 6: the majority of traces live < 20% or > 80% of the
    run, for both suites."""
    result = run_once(benchmark, fig06_lifetimes.run, dataset=dataset)
    publish(result)
    u_shaped = [bool(v) for v in result.column("UShaped")]
    # The paper's claim is about the aggregate tendency; allow a couple
    # of benchmarks to deviate.
    assert sum(u_shaped) >= len(u_shaped) - 3
