"""Figure 1: maximum (unbounded) code cache size per benchmark.

The paper ran DynamoRIO with an unbounded cache and measured the final
size: SPEC averages ~736 KB (gcc 4.3 MB, vortex 1.6 MB); interactive
apps average ~16.1 MB, a twenty-fold increase, with word at 34.2 MB.

We report the bytes an unbounded cache allocates replaying each log,
plus the paper-scale value implied by the profile (the log is a
scaled-down rendering of it).  The log summary computes that number in
its one pass (``LogStatistics.unbounded_bytes``, memoized by the
artifact store), so no log is replayed here; an
:class:`~repro.policies.unbounded.UnboundedCache` replay's high-water
mark is its test oracle.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.dataset import WorkloadDataset
from repro.metrics.summary import arithmetic_mean
from repro.units import kib


def run(
    dataset: WorkloadDataset | None = None,
    seed: int = 42,
    scale_multiplier: float = 1.0,
) -> ExperimentResult:
    """Regenerate Figure 1 (both suites)."""
    dataset = dataset or WorkloadDataset(seed=seed, scale_multiplier=scale_multiplier)
    result = ExperimentResult(
        experiment_id="figure-1",
        title="Maximum code cache size with an unbounded cache",
        columns=["Benchmark", "Suite", "MeasuredKB", "PaperScaleKB"],
    )
    per_suite: dict[str, list[float]] = {"spec": [], "interactive": []}
    for name in dataset.names:
        profile = dataset.profile(name)
        measured_kb = kib(dataset.stats(name).unbounded_bytes)
        paper_kb = profile.total_trace_kb
        per_suite[profile.suite].append(paper_kb)
        result.add_row(
            Benchmark=name,
            Suite=profile.suite,
            MeasuredKB=round(measured_kb, 1),
            PaperScaleKB=round(paper_kb, 1),
        )
    for suite, values in per_suite.items():
        if values:
            result.notes.append(
                f"{suite} average (paper scale): "
                f"{arithmetic_mean(values):.0f} KB"
            )
    result.notes.append(dataset.scale_note())
    return result
