"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (see the
DESIGN.md per-experiment index), printing the rows/series and saving
them under ``benchmarks/results/``.  Benchmarks run on reduced scales
and/or benchmark subsets so the whole harness finishes in minutes; the
full-scale versions are available through the CLI
(``repro-gencache run all``).  The constants and helpers the modules
import live in ``bench_common.py``.
"""

from __future__ import annotations

import pytest
from bench_common import RESULTS_DIR

from repro.experiments.base import ExperimentResult, render_table


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
