"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (see the
DESIGN.md per-experiment index), printing the rows/series and saving
them under ``benchmarks/results/``.  Benchmarks run on reduced scales
and/or benchmark subsets so the whole harness finishes in minutes; the
full-scale versions are available through the CLI
(``repro-gencache run all``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.base import ExperimentResult, render_table
from repro.shared import compose_specs

RESULTS_DIR = Path(__file__).parent / "results"

#: Extra scale divisor for characterization benches (cheap per run).
CHARACTERIZATION_SCALE = 8.0
#: Extra scale divisor for the evaluation benches (heavier).
EVALUATION_SCALE = 8.0
#: Benchmark subset for the evaluation benches.
EVALUATION_SUBSET = [
    "gzip", "crafty", "eon", "art", "mcf", "word", "iexplore", "solitaire",
]


@pytest.fixture(scope="session")
def publish():
    """Return a callable that prints and archives an experiment table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _publish(result: ExperimentResult) -> ExperimentResult:
        rendered = render_table(result)
        print()
        print(rendered)
        target = RESULTS_DIR / f"{result.experiment_id}.txt"
        target.write_text(rendered + "\n", encoding="utf-8")
        return result

    return _publish


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing.

    The experiments are deterministic, seconds-long computations;
    repeated rounds would only burn wall-clock without improving the
    measurement.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def process_workloads(specs, scale_multiplier: float) -> list:
    """The one mix builder's workload for each process of *specs*
    (seed 42), as the reference simulator and interleaver take them."""
    assignment, composed = compose_specs(
        specs, seed=42, scale_multiplier=scale_multiplier
    )
    distinct = list(composed)
    return [distinct[index] for index in assignment]
