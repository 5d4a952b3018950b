"""Experiment harness: one module per table/figure of the paper.

Every experiment module exposes ``run(...) -> ExperimentResult`` with
the same core options (``seed``, ``scale_multiplier``, benchmark
subset), and the CLI/benchmarks render the result tables.  The
per-experiment index lives in DESIGN.md.
"""

from repro.experiments.base import ExperimentResult, render_table
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import BenchmarkEvaluation, run_evaluation

__all__ = [
    "BenchmarkEvaluation",
    "ExperimentResult",
    "WorkloadDataset",
    "render_table",
    "run_evaluation",
]
