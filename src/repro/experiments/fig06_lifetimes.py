"""Figure 6: trace lifetimes as a percentage of execution time.

Equation 2 per trace, bucketed into five 20%-wide categories; the
static (unweighted) percentage of traces per bucket is U-shaped for
both suites — the observation that motivates generational caches.
The bucket counts come from the memoized log summary
(``LogStatistics.lifetime_buckets``), so no log is rescanned here.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.dataset import WorkloadDataset
from repro.metrics.lifetimes import BUCKET_LABELS, LifetimeHistogram
from repro.metrics.summary import arithmetic_mean


def run(
    dataset: WorkloadDataset | None = None,
    seed: int = 42,
    scale_multiplier: float = 1.0,
) -> ExperimentResult:
    """Regenerate Figure 6 (both suites)."""
    dataset = dataset or WorkloadDataset(seed=seed, scale_multiplier=scale_multiplier)
    result = ExperimentResult(
        experiment_id="figure-6",
        title="Trace lifetimes (static % of traces per bucket)",
        columns=["Benchmark", "Suite", *BUCKET_LABELS, "UShaped"],
    )
    per_suite: dict[str, list[tuple[float, ...]]] = {"spec": [], "interactive": []}
    for name in dataset.names:
        suite = dataset.profile(name).suite
        histogram = LifetimeHistogram(name, dataset.stats(name).lifetime_buckets)
        per_suite[suite].append(histogram.fractions)
        result.add_row(
            Benchmark=name,
            Suite=suite,
            **{
                label: round(value, 1)
                for label, value in zip(BUCKET_LABELS, histogram.fractions)
            },
            UShaped=histogram.is_u_shaped,
        )
    for suite, rows in per_suite.items():
        if rows:
            averages = [
                arithmetic_mean(r[i] for r in rows) for i in range(len(BUCKET_LABELS))
            ]
            rendered = ", ".join(
                f"{label}={value:.0f}%"
                for label, value in zip(BUCKET_LABELS, averages)
            )
            result.notes.append(f"{suite} averages: {rendered}")
    result.notes.append(dataset.scale_note())
    return result
