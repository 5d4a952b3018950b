"""Run-everything orchestration used by the CLI.

Shares one dataset (so no log is loaded or synthesized twice) and one
heavy evaluation pass across all the experiments that need them, then
renders each result table.  The paper's experiments load with this
module; each extension experiment is imported only when it runs, so a
paper run never loads the shared-cache, fleet or scenario subsystems.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import FIGURE9_CONFIGS
from repro.experiments import (
    fig01_max_cache_size,
    fig02_code_expansion,
    fig03_insertion_rate,
    fig04_unmapped,
    fig06_lifetimes,
    fig09_miss_rates,
    fig10_misses_eliminated,
    fig11_overhead,
    sweep,
    table01_benchmarks,
    table02_overheads,
)
from repro.experiments.base import (
    ExperimentResult,
    attach_provenance,
    render_table,
)
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import run_evaluation

#: Experiments that need only the dataset (characterization).
CHARACTERIZATION: dict[str, Callable[..., ExperimentResult]] = {
    "figure-1": fig01_max_cache_size.run,
    "figure-2": fig02_code_expansion.run,
    "figure-3": fig03_insertion_rate.run,
    "figure-4": fig04_unmapped.run,
    "figure-6": fig06_lifetimes.run,
}

ALL_EXPERIMENT_IDS: tuple[str, ...] = (
    "table-1",
    "figure-1",
    "figure-2",
    "figure-3",
    "figure-4",
    "figure-6",
    "table-2",
    "figure-9",
    "figure-10",
    "figure-11",
    "sweep",
)

#: Extension experiments beyond the paper's artifacts (run on demand).
EXTENSION_EXPERIMENT_IDS: tuple[str, ...] = (
    "capacity",
    "headroom",
    "robustness",
    "reuse",
    "shared",
    "fleet",
    "scenarios",
)


def run_all(
    seed: int = 42,
    scale_multiplier: float = 1.0,
    subset: list[str] | None = None,
    experiment_ids: tuple[str, ...] = ALL_EXPERIMENT_IDS,
    sweep_benchmark: str = "word",
    jobs: int = 1,
    store=None,
    sanitize: bool = False,
    sanitize_stride: int | None = None,
) -> list[ExperimentResult]:
    """Run the requested experiments, sharing work where possible.

    With ``jobs > 1`` each experiment id is dispatched as one
    content-addressed job to a :class:`repro.service.scheduler.Scheduler`
    worker pool (optionally memoized through *store*); each worker
    executes the identical serial code path, so the assembled tables
    are byte-identical to a serial run.
    """
    if jobs > 1:
        return _run_all_parallel(
            seed=seed,
            scale_multiplier=scale_multiplier,
            subset=subset,
            experiment_ids=experiment_ids,
            sweep_benchmark=sweep_benchmark,
            jobs=jobs,
            store=store,
            sanitize=sanitize,
            sanitize_stride=sanitize_stride,
        )
    dataset = WorkloadDataset(
        seed=seed, scale_multiplier=scale_multiplier, subset=subset
    )
    results: list[ExperimentResult] = []
    evaluations = None
    for experiment_id in experiment_ids:
        if experiment_id == "table-1":
            results.append(table01_benchmarks.run())
        elif experiment_id == "table-2":
            results.append(table02_overheads.run())
        elif experiment_id in CHARACTERIZATION:
            results.append(CHARACTERIZATION[experiment_id](dataset=dataset))
        elif experiment_id in ("figure-9", "figure-10", "figure-11"):
            if evaluations is None:
                evaluations = run_evaluation(dataset, FIGURE9_CONFIGS)
            module = {
                "figure-9": fig09_miss_rates,
                "figure-10": fig10_misses_eliminated,
                "figure-11": fig11_overhead,
            }[experiment_id]
            results.append(module.run(dataset=dataset, evaluations=evaluations))
        elif experiment_id == "sweep":
            bench = sweep_benchmark
            if subset and bench not in subset:
                bench = subset[0]
            # An earlier evaluation pass already replayed the baseline
            # and Figure 9's layouts on this log; the sweep reads them.
            results.append(
                sweep.run(
                    benchmark=bench,
                    dataset=dataset,
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                    evaluation=evaluations.get(bench) if evaluations else None,
                )
            )
        elif experiment_id == "capacity":
            from repro.experiments import capacity

            bench = sweep_benchmark
            if subset and bench not in subset:
                bench = subset[0]
            results.append(
                capacity.run(
                    benchmark=bench,
                    dataset=dataset,
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                )
            )
        elif experiment_id == "headroom":
            from repro.experiments import headroom

            results.append(
                headroom.run(
                    seed=seed,
                    scale_multiplier=max(scale_multiplier, 4.0),
                    subset=subset,
                )
            )
        elif experiment_id == "robustness":
            from repro.experiments import robustness

            results.append(
                robustness.run(
                    scale_multiplier=max(scale_multiplier, 4.0),
                    subset=subset,
                )
            )
        elif experiment_id == "reuse":
            from repro.experiments import reuse

            results.append(reuse.run(dataset=dataset))
        elif experiment_id == "shared":
            from repro.experiments import shared

            results.append(
                shared.run(
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                    quick=bool(subset),
                )
            )
        elif experiment_id == "fleet":
            from repro.experiments import fleet

            results.append(
                fleet.run(
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                    quick=bool(subset),
                )
            )
        elif experiment_id == "scenarios":
            from repro.experiments import scenarios

            results.append(
                scenarios.run(
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                    quick=bool(subset),
                )
            )
        else:
            raise KeyError(f"unknown experiment id {experiment_id!r}")
    return _attach_all(results, seed, scale_multiplier, subset, sweep_benchmark)


def _attach_all(
    results: list[ExperimentResult],
    seed: int,
    scale_multiplier: float,
    subset: list[str] | None,
    sweep_benchmark: str,
) -> list[ExperimentResult]:
    """Stamp uniform provenance on every table of a run.

    Serial runs, worker-side nested runs, and parallel reassembly all
    pass through here with identical parameters, which is what keeps
    ``--jobs N`` output byte-identical to a serial run.
    """
    for result in results:
        attach_provenance(
            result,
            seed,
            scale_multiplier=scale_multiplier,
            subset=sorted(subset) if subset else None,
            sweep_benchmark=sweep_benchmark,
        )
    return results


def experiment_specs(
    experiment_ids: tuple[str, ...],
    seed: int = 42,
    scale_multiplier: float = 1.0,
    subset: list[str] | None = None,
    sweep_benchmark: str = "word",
    sanitize: bool = False,
    sanitize_stride: int | None = None,
):
    """One ``experiment`` :class:`repro.service.jobs.JobSpec` per id,
    in order — the unit both ``--jobs N`` and ``--server URL`` submit."""
    # Imported lazily: repro.service depends on this module's serial
    # path, so a module-level import would cycle.
    from repro.service.jobs import JobSpec

    extra: dict[str, object] = {"sanitize": sanitize}
    if sanitize_stride is not None:
        extra["sanitize_stride"] = sanitize_stride
    return [
        JobSpec(
            kind="experiment",
            experiment_id=experiment_id,
            seed=seed,
            scale_multiplier=scale_multiplier,
            subset=tuple(subset) if subset else None,
            sweep_benchmark=sweep_benchmark,
            **extra,
        )
        for experiment_id in experiment_ids
    ]


def _run_all_parallel(
    seed: int,
    scale_multiplier: float,
    subset: list[str] | None,
    experiment_ids: tuple[str, ...],
    sweep_benchmark: str,
    jobs: int,
    store,
    sanitize: bool,
    sanitize_stride: int | None,
) -> list[ExperimentResult]:
    from repro.service.scheduler import run_jobs
    from repro.service.workers import result_from_dict

    known = set(ALL_EXPERIMENT_IDS) | set(EXTENSION_EXPERIMENT_IDS)
    for experiment_id in experiment_ids:
        if experiment_id not in known:
            raise KeyError(f"unknown experiment id {experiment_id!r}")
    # The shared, fleet, and scenarios experiments fan out their own
    # finer-grained jobs (shared-cell jobs, scenario replays), so
    # they run at this level rather than as one coarse job each.
    local_ids = ("shared", "fleet", "scenarios")
    remote_ids = tuple(e for e in experiment_ids if e not in local_ids)
    specs = experiment_specs(
        remote_ids,
        seed=seed,
        scale_multiplier=scale_multiplier,
        subset=subset,
        sweep_benchmark=sweep_benchmark,
        sanitize=sanitize,
        sanitize_stride=sanitize_stride,
    )
    payloads = run_jobs(specs, workers=jobs, store=store) if specs else []
    remote = {
        experiment_id: result_from_dict(payload["result"])
        for experiment_id, payload in zip(remote_ids, payloads)
    }

    def run_local(experiment_id: str) -> ExperimentResult:
        if experiment_id == "shared":
            from repro.experiments import shared as module
        elif experiment_id == "fleet":
            from repro.experiments import fleet as module
        else:
            from repro.experiments import scenarios as module
        return module.run(
            seed=seed,
            scale_multiplier=scale_multiplier,
            quick=bool(subset),
            jobs=jobs,
            store=store,
        )

    results = [
        run_local(experiment_id)
        if experiment_id in local_ids
        else remote[experiment_id]
        for experiment_id in experiment_ids
    ]
    return _attach_all(results, seed, scale_multiplier, subset, sweep_benchmark)


def render_all(results: list[ExperimentResult]) -> str:
    """Render all result tables separated by blank lines."""
    return "\n\n".join(render_table(result) for result in results)
