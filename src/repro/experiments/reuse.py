"""Reuse-distance characterization (extension experiment).

Buckets every re-access's cold reuse distance against the benchmark's
unbounded cache size.  Re-accesses in the `>=100%` bucket miss in any
bounded FIFO cache (they are the symmetric baseline miss traffic);
re-accesses under 12.5% are the hot core the persistent cache can
protect.  The interesting middle is what the 0.5*maxCache budget
fights over.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.dataset import WorkloadDataset
from repro.metrics.reuse import BUCKET_LABELS, reuse_profile


def run(
    dataset: WorkloadDataset | None = None,
    seed: int = 42,
    scale_multiplier: float = 4.0,
    subset: list[str] | None = None,
) -> ExperimentResult:
    """Regenerate the reuse-distance table."""
    if dataset is None:
        dataset = WorkloadDataset(
            seed=seed, scale_multiplier=scale_multiplier, subset=subset
        )
    result = ExperimentResult(
        experiment_id="reuse-distance",
        title="Re-access reuse distances (% per bucket, vs maxCache)",
        columns=["Benchmark", "Suite", "Reaccesses", *BUCKET_LABELS, "OverHalfPct"],
    )
    for name in dataset.names:
        profile = reuse_profile(dataset.compiled(name))
        result.add_row(
            Benchmark=name,
            Suite=dataset.profile(name).suite,
            Reaccesses=profile.n_reaccesses,
            **{
                label: round(value, 1)
                for label, value in zip(BUCKET_LABELS, profile.fractions)
            },
            OverHalfPct=round(profile.over_half, 1),
        )
    result.notes.append(
        "distances are cold (creation-volume) bytes between consecutive "
        "touches of a trace; >=100% re-accesses miss in any bounded FIFO"
    )
    result.notes.append(dataset.scale_note())
    return result
