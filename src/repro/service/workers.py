"""Job execution — the code that runs inside worker processes.

:func:`execute_job` turns a validated :class:`~repro.service.jobs.JobSpec`
into a JSON-safe result payload; :func:`worker_main` is the worker
process entry point that loops pulling assignments from its private
task queue.  Each worker owns its own task and event queues (the
scheduler's kill-safety discipline: terminating one worker can never
corrupt a queue another worker shares).

Trace logs reach ``replay`` jobs either by path (text or RTL2 binary,
sniffed by magic) or inline as base64 RTL2 bytes, so a server can
simulate logs its clients recorded on other machines.
"""

from __future__ import annotations

import base64

from repro.analysis.sanitizer import (
    TOTALS,
    disable_sanitizer,
    enable_sanitizer,
)
from repro.cachesim.simulator import simulate_log
from repro.cachesim.stats import SimulationResult
from repro.fastpath import FASTPATH_TOTALS
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.errors import ConfigError, ReproError
from repro.experiments.base import ExperimentResult
from repro.service.jobs import JobSpec, job_id, spec_from_dict
from repro.tracelog.binary import MAGIC, loads_binary
from repro.tracelog.reader import read_log
from repro.tracelog.records import TraceLog


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON form of an :class:`ExperimentResult` (lossless for the
    scalar row values every experiment emits)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "notes": list(result.notes),
        "seed": result.seed,
        "config_digest": result.config_digest,
    }


def result_from_dict(data: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its JSON form."""
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        columns=list(data["columns"]),
        rows=[dict(row) for row in data["rows"]],
        notes=list(data["notes"]),
        seed=data.get("seed"),
        config_digest=data.get("config_digest"),
    )


def sim_summary(sim: SimulationResult, capacity: int) -> dict:
    """Flatten a :class:`SimulationResult` into a JSON-safe summary."""
    return {
        "benchmark": sim.benchmark,
        "manager": sim.manager_name,
        "capacity": capacity,
        "accesses": sim.stats.accesses,
        "hits": sim.stats.hits,
        "misses": sim.stats.misses,
        "miss_rate": sim.stats.miss_rate,
        "creations": sim.stats.creations,
        "evictions": sim.stats.evictions,
        "unmap_evictions": sim.stats.unmap_evictions,
        "promotions": sim.stats.promotions,
        "overhead_instructions": sim.overhead_instructions,
    }


def _build_manager(spec: JobSpec, capacity: int):
    if spec.manager == "unified":
        return UnifiedCacheManager(capacity)
    return GenerationalCacheManager(capacity, spec.generational_config())


def _load_replay_log(spec: JobSpec) -> TraceLog:
    if spec.log_inline is not None:
        try:
            raw = base64.b64decode(spec.log_inline, validate=True)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"log_inline is not valid base64: {exc}") from exc
        return loads_binary(raw)
    with open(spec.log_path, "rb") as stream:
        head = stream.read(len(MAGIC))
    if head == MAGIC:
        from repro.tracelog.binary import read_binary_log

        return read_binary_log(spec.log_path)
    return read_log(spec.log_path)


def _run_experiment(spec: JobSpec) -> dict:
    # Imported lazily: runner itself dispatches back through the
    # scheduler for --jobs runs, so a module-level import would cycle.
    from repro.experiments.runner import run_all

    results = run_all(
        seed=spec.seed,
        scale_multiplier=spec.scale_multiplier,
        subset=list(spec.subset) if spec.subset else None,
        experiment_ids=(spec.experiment_id,),
        sweep_benchmark=spec.sweep_benchmark,
    )
    return {"kind": spec.kind, "result": result_to_dict(results[0])}


def _run_sweep_point(spec: JobSpec) -> dict:
    from repro.experiments.dataset import WorkloadDataset
    from repro.experiments.evaluation import baseline_capacity

    dataset = WorkloadDataset(
        seed=spec.seed,
        scale_multiplier=spec.scale_multiplier,
        subset=[spec.benchmark],
    )
    log = dataset.compiled(spec.benchmark)
    capacity = spec.capacity
    if capacity is None:
        capacity = baseline_capacity(
            dataset.stats(spec.benchmark).total_trace_bytes
        )
    sim = simulate_log(log, _build_manager(spec, capacity))
    return {"kind": spec.kind, "result": sim_summary(sim, capacity)}


def _run_replay(spec: JobSpec) -> dict:
    from repro.experiments.evaluation import baseline_capacity

    log = _load_replay_log(spec)
    capacity = spec.capacity
    if capacity is None:
        capacity = baseline_capacity(log.total_trace_bytes)
    sim = simulate_log(log, _build_manager(spec, capacity))
    return {"kind": spec.kind, "result": sim_summary(sim, capacity)}


def _run_shared_cell(spec: JobSpec) -> dict:
    # Imported lazily: the shared-cache tables fan back out through the
    # scheduler for --jobs runs, so a module-level import would cycle.
    from repro.experiments.shared import simulate_cell

    cell = simulate_cell(
        spec.experiment_id,
        spec.mix,
        spec.processes,
        spec.policy,
        seed=spec.seed,
        scale_multiplier=spec.scale_multiplier,
        schedule=spec.schedule,
        quantum=spec.quantum,
    )
    return {"kind": spec.kind, "result": cell}


def _run_scenario(spec: JobSpec) -> dict:
    # Imported lazily: the scenarios experiment fans back out through
    # the scheduler for --jobs runs, so a module-level import would
    # cycle.
    from repro.experiments.scenarios import replay_scenario

    return {"kind": spec.kind, "result": replay_scenario(spec.scenario)}


def _run_calibrate(spec: JobSpec) -> dict:
    from repro.scenarios.artifact import from_calibration
    from repro.scenarios.calibrate import DEFAULT_BUDGET, calibrate
    from repro.scenarios.targets import ScenarioTarget
    from repro.workloads.catalog import get_profile

    target = ScenarioTarget.from_dict(spec.target)
    result = calibrate(
        target,
        get_profile(spec.benchmark),
        seed=spec.seed,
        scale=spec.scale_multiplier,
        budget=spec.budget if spec.budget is not None else DEFAULT_BUDGET,
        tolerance=spec.tolerance if spec.tolerance is not None else 0.05,
    )
    artifact = from_calibration(result, target.name)
    return {
        "kind": spec.kind,
        "result": {
            "artifact": artifact.to_dict(),
            "objective": result.best_objective,
            "components": dict(sorted(result.components.items())),
            "converged": result.converged,
            "evaluations": result.evaluations,
        },
    }


_EXECUTORS = {
    "experiment": _run_experiment,
    "sweep-point": _run_sweep_point,
    "replay": _run_replay,
    "shared-cell": _run_shared_cell,
    "scenario": _run_scenario,
    "calibrate": _run_calibrate,
}


def execute_job(spec: JobSpec) -> dict:
    """Run one job to completion and return its result payload.

    The ``--sanitize`` flag propagates here: a sanitizing spec turns
    the process-wide sanitizer on for the duration of the job (and the
    payload carries the sanitizer's sweep counters back out).
    """
    spec.validate()
    if spec.sanitize:
        enable_sanitizer(stride=spec.sanitize_stride)
        TOTALS.reset()
    try:
        payload = _EXECUTORS[spec.kind](spec)
        # Every payload carries its provenance: the workload seed and
        # the spec's content address (which digests every config field).
        payload["seed"] = spec.seed
        payload["config_digest"] = job_id(spec)
        if spec.sanitize:
            payload["sanitizer"] = {
                "simulations": TOTALS.simulations,
                "events": TOTALS.events,
                "checks": TOTALS.checks,
            }
        return payload
    finally:
        if spec.sanitize:
            disable_sanitizer()


def worker_main(slot: int, tasks, events) -> None:
    """Worker process loop: pull ``(job_id, spec_dict)`` assignments
    from this worker's private *tasks* queue until a ``None`` sentinel,
    reporting ``("done", job_id, payload, fastpath_delta)`` /
    ``("error", job_id, message)`` on its private *events* queue.

    The fast-path counter delta rides in the event tuple, *not* the
    payload: payloads are content-addressed into the result store and
    must stay byte-identical across replay tiers, whereas the deltas
    differ by tier (that difference is exactly what ``/metrics``
    surfaces)."""
    while True:
        item = tasks.get()
        if item is None:
            return
        job_id, spec_dict = item
        before = dict(FASTPATH_TOTALS)
        try:
            payload = execute_job(spec_from_dict(spec_dict))
        except ReproError as exc:
            events.put(("error", job_id, f"{type(exc).__name__}: {exc}"))
        except Exception as exc:  # defensive: never kill the loop
            events.put(("error", job_id, f"{type(exc).__name__}: {exc}"))
        else:
            delta = {
                key: value - before.get(key, 0)
                for key, value in FASTPATH_TOTALS.items()
                if value - before.get(key, 0)
            }
            events.put(("done", job_id, payload, delta))
