"""Section 6.1's configuration-space sweep.

Sweeps generational cache proportions and promotion thresholds over a
benchmark and reports the miss rate of each point.  The paper's two
observations from this sweep:

1. no benchmark-independent advantage to unbalanced nursery/persistent
   sizing;
2. an undeniable link between probation size and promotion threshold —
   shrink the probation cache and the threshold must drop with it, or
   long-lived traces are evicted from probation before qualifying.
"""

from __future__ import annotations

from repro.cachesim.simulator import simulate_log
from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.experiments.base import ExperimentResult, attach_provenance
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import BenchmarkEvaluation, baseline_capacity

#: (nursery, probation, persistent) proportion grid.
PROPORTION_GRID: tuple[tuple[float, float, float], ...] = (
    (0.45, 0.10, 0.45),
    (0.34, 0.33, 0.33),
    (0.25, 0.50, 0.25),
    (0.60, 0.10, 0.30),
    (0.30, 0.10, 0.60),
    (0.40, 0.20, 0.40),
)

#: Promotion thresholds to cross with each proportion point.
THRESHOLD_GRID: tuple[int, ...] = (1, 5, 10, 25)


def run(
    benchmark: str = "word",
    dataset: WorkloadDataset | None = None,
    seed: int = 42,
    scale_multiplier: float = 1.0,
    proportions: tuple[tuple[float, float, float], ...] = PROPORTION_GRID,
    thresholds: tuple[int, ...] = THRESHOLD_GRID,
    jobs: int = 1,
    store=None,
    evaluation: BenchmarkEvaluation | None = None,
) -> ExperimentResult:
    """Sweep the configuration space for one benchmark.

    With ``jobs > 1`` every grid cell (and the unified baseline)
    becomes one ``sweep-point`` job fanned out over a
    :mod:`repro.service` worker pool; each cell replays the same
    deterministic log, so the assembled table is identical to a serial
    sweep.

    A serial sweep handed *evaluation* — the Figure 9 pass over the
    same *dataset* — reads the unified baseline and every cell whose
    config that pass already replayed at the same capacity, instead of
    replaying them again.
    """
    if jobs > 1 and dataset is None:
        rates, capacity = _parallel_rates(
            benchmark, seed, scale_multiplier, proportions, thresholds,
            jobs, store,
        )
    else:
        rates, capacity = _serial_rates(
            benchmark, dataset, seed, scale_multiplier, proportions,
            thresholds, evaluation,
        )
    unified_rate = rates["unified"]

    result = ExperimentResult(
        experiment_id="section-6.1-sweep",
        title=f"Generational configuration sweep for {benchmark}",
        columns=[
            "Nursery", "Probation", "Persistent", "Threshold", "Mode",
            "MissPct", "ReductionPct",
        ],
    )
    best: tuple[float, dict[str, object]] | None = None
    for nursery, probation, persistent in proportions:
        for threshold in thresholds:
            mode = PromotionMode.ON_HIT if threshold == 1 else PromotionMode.ON_EVICTION
            miss_rate = rates[(nursery, probation, persistent, threshold)]
            reduction = 0.0
            if unified_rate:
                reduction = (unified_rate - miss_rate) / unified_rate
            row = {
                "Nursery": round(nursery, 2),
                "Probation": round(probation, 2),
                "Persistent": round(persistent, 2),
                "Threshold": threshold,
                "Mode": mode.value,
                "MissPct": round(miss_rate * 100, 3),
                "ReductionPct": round(reduction * 100, 1),
            }
            result.add_row(**row)
            if best is None or miss_rate < best[0]:
                best = (miss_rate, row)
    if best is not None:
        result.notes.append(
            f"best point: {best[1]['Nursery']}-{best[1]['Probation']}-"
            f"{best[1]['Persistent']} threshold {best[1]['Threshold']} "
            f"({best[1]['ReductionPct']}% reduction)"
        )
    result.notes.append(
        f"unified baseline miss rate: {unified_rate * 100:.3f}% "
        f"at {capacity} bytes"
    )
    result.notes.append(_scale_note(benchmark, seed, scale_multiplier, dataset))
    return attach_provenance(
        result, seed, benchmark=benchmark, scale_multiplier=scale_multiplier
    )


def _scale_note(
    benchmark: str,
    seed: int,
    scale_multiplier: float,
    dataset: WorkloadDataset | None,
) -> str:
    """The standard scale note, without forcing log synthesis."""
    if dataset is None:
        dataset = WorkloadDataset(
            seed=seed, scale_multiplier=scale_multiplier, subset=[benchmark]
        )
    return dataset.scale_note()


def _serial_rates(
    benchmark: str,
    dataset: WorkloadDataset | None,
    seed: int,
    scale_multiplier: float,
    proportions: tuple[tuple[float, float, float], ...],
    thresholds: tuple[int, ...],
    evaluation: BenchmarkEvaluation | None = None,
) -> tuple[dict, int]:
    """Simulate every grid cell in-process; miss rates keyed by cell.

    Cells *evaluation* already replayed (same benchmark and capacity,
    equal config) take its miss rates: the cost model it ran with
    prices effects but never changes them.
    """
    dataset = dataset or WorkloadDataset(
        seed=seed, scale_multiplier=scale_multiplier, subset=[benchmark]
    )
    log = dataset.compiled(benchmark)
    capacity = baseline_capacity(dataset.stats(benchmark).total_trace_bytes)
    if (
        evaluation is not None
        and evaluation.benchmark == benchmark
        and evaluation.capacity == capacity
    ):
        unified_rate = evaluation.unified.miss_rate
        replayed = {
            evaluation.configs[label]: result.miss_rate
            for label, result in evaluation.generational.items()
        }
    else:
        unified_rate = simulate_log(log, UnifiedCacheManager(capacity)).miss_rate
        replayed = {}
    rates: dict = {"unified": unified_rate}
    for nursery, probation, persistent in proportions:
        for threshold in thresholds:
            mode = PromotionMode.ON_HIT if threshold == 1 else PromotionMode.ON_EVICTION
            config = GenerationalConfig(
                nursery_fraction=nursery,
                probation_fraction=probation,
                persistent_fraction=persistent,
                promotion_threshold=threshold,
                promotion_mode=mode,
            )
            miss_rate = replayed.get(config)
            if miss_rate is None:
                manager = GenerationalCacheManager(capacity, config)
                miss_rate = simulate_log(log, manager).miss_rate
            rates[(nursery, probation, persistent, threshold)] = miss_rate
    return rates, capacity


def _parallel_rates(
    benchmark: str,
    seed: int,
    scale_multiplier: float,
    proportions: tuple[tuple[float, float, float], ...],
    thresholds: tuple[int, ...],
    jobs: int,
    store,
) -> tuple[dict, int]:
    """Fan every grid cell out as one ``sweep-point`` job."""
    # Imported lazily: repro.service replays through this package, so a
    # module-level import would cycle.
    from repro.service.jobs import JobSpec
    from repro.service.scheduler import run_jobs

    specs = [
        JobSpec(
            kind="sweep-point",
            benchmark=benchmark,
            seed=seed,
            scale_multiplier=scale_multiplier,
            manager="unified",
        )
    ]
    cells: list[tuple] = []
    for nursery, probation, persistent in proportions:
        for threshold in thresholds:
            cells.append((nursery, probation, persistent, threshold))
            specs.append(
                JobSpec(
                    kind="sweep-point",
                    benchmark=benchmark,
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                    manager="generational",
                    nursery=nursery,
                    probation=probation,
                    persistent=persistent,
                    threshold=threshold,
                )
            )
    payloads = run_jobs(specs, workers=jobs, store=store)
    rates: dict = {"unified": payloads[0]["result"]["miss_rate"]}
    for cell, payload in zip(cells, payloads[1:]):
        rates[cell] = payload["result"]["miss_rate"]
    return rates, payloads[0]["result"]["capacity"]


#: The probation sizes and candidate thresholds of the link table.
LINK_PROBATIONS: tuple[float, ...] = (0.05, 0.10, 0.20, 0.33, 0.50)
LINK_THRESHOLDS: tuple[int, ...] = (1, 2, 5, 10, 25, 50)


def probation_threshold_link(
    benchmark: str = "word",
    dataset: WorkloadDataset | None = None,
    seed: int = 42,
    scale_multiplier: float = 1.0,
    jobs: int = 1,
    store=None,
) -> ExperimentResult:
    """Isolate the probation-size/threshold interaction: for each
    probation size, find the best threshold.  The paper's claim is
    that the best threshold shrinks with the probation cache."""
    cells = [
        ((1.0 - probation) / 2.0, probation, (1.0 - probation) / 2.0, threshold)
        for probation in LINK_PROBATIONS
        for threshold in LINK_THRESHOLDS
    ]
    if jobs > 1 and dataset is None:
        rates = _parallel_cell_rates(
            benchmark, seed, scale_multiplier, cells, jobs, store
        )
    else:
        rates = _serial_cell_rates(
            benchmark, dataset, seed, scale_multiplier, cells
        )
    result = ExperimentResult(
        experiment_id="section-6.1-link",
        title=f"Best threshold per probation size for {benchmark}",
        columns=["Probation", "BestThreshold", "BestMissPct"],
    )
    for probation in LINK_PROBATIONS:
        remainder = (1.0 - probation) / 2.0
        best_threshold, best_rate = None, None
        for threshold in LINK_THRESHOLDS:
            miss_rate = rates[(remainder, probation, remainder, threshold)]
            if best_rate is None or miss_rate < best_rate:
                best_threshold, best_rate = threshold, miss_rate
        result.add_row(
            Probation=round(probation, 2),
            BestThreshold=best_threshold,
            BestMissPct=round((best_rate or 0.0) * 100, 3),
        )
    result.notes.append(_scale_note(benchmark, seed, scale_multiplier, dataset))
    return attach_provenance(
        result, seed, benchmark=benchmark, scale_multiplier=scale_multiplier
    )


def _serial_cell_rates(
    benchmark: str,
    dataset: WorkloadDataset | None,
    seed: int,
    scale_multiplier: float,
    cells: list[tuple],
) -> dict:
    dataset = dataset or WorkloadDataset(
        seed=seed, scale_multiplier=scale_multiplier, subset=[benchmark]
    )
    log = dataset.compiled(benchmark)
    capacity = baseline_capacity(dataset.stats(benchmark).total_trace_bytes)
    rates: dict = {}
    for nursery, probation, persistent, threshold in cells:
        mode = (
            PromotionMode.ON_HIT if threshold == 1 else PromotionMode.ON_EVICTION
        )
        config = GenerationalConfig(
            nursery_fraction=nursery,
            probation_fraction=probation,
            persistent_fraction=persistent,
            promotion_threshold=threshold,
            promotion_mode=mode,
        )
        sim = simulate_log(log, GenerationalCacheManager(capacity, config))
        rates[(nursery, probation, persistent, threshold)] = sim.miss_rate
    return rates


def _parallel_cell_rates(
    benchmark: str,
    seed: int,
    scale_multiplier: float,
    cells: list[tuple],
    jobs: int,
    store,
) -> dict:
    from repro.service.jobs import JobSpec
    from repro.service.scheduler import run_jobs

    specs = [
        JobSpec(
            kind="sweep-point",
            benchmark=benchmark,
            seed=seed,
            scale_multiplier=scale_multiplier,
            manager="generational",
            nursery=nursery,
            probation=probation,
            persistent=persistent,
            threshold=threshold,
        )
        for nursery, probation, persistent, threshold in cells
    ]
    payloads = run_jobs(specs, workers=jobs, store=store)
    return {
        cell: payload["result"]["miss_rate"]
        for cell, payload in zip(cells, payloads)
    }
