"""Cross-process shared-cache experiment family (extension).

Replays process mixes against the :mod:`repro.shared` cache groups and
tabulates what sharing buys at **equal total capacity**: every policy
row of a (mix, process-count) cell uses the same per-process budgets
(the paper's baseline sizing of each process's log), so differences are
attributable to the sharing policy alone.

Two mixes bracket the sharing opportunity:

* ``homogeneous`` — N instances of the same benchmark (same binary):
  maximal content overlap, ShareJIT's best case.
* ``heterogeneous`` — distinct benchmarks that link one common
  shared-library overlay (:mod:`repro.shared.compose`): the realistic
  case where only library code overlaps.

Reported per row: aggregate conflict-miss rate, bytes of code actually
compiled (``GeneratedKB`` — regenerations that dedup against a shared
copy cost nothing), compilation avoided by sharing (``DedupKB``), end
resident footprint, and bytes wasted on duplicate copies (``DupKB``).

This module also holds the one cell both shared-cache tables replay
(:func:`build_cell`, :func:`replay_cell`, :func:`run_cells`): this
table and the fleet scaling curve (:mod:`repro.experiments.fleet`)
differ only in which ``(benchmark, library reach)`` specs a cell's
processes get, whether a churn plan spawns and kills them, and which
columns they print.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GenerationalConfig
from repro.errors import ConfigError
from repro.experiments.base import ExperimentResult, attach_provenance
from repro.experiments.evaluation import baseline_capacity
from repro.shared import SHARED_PERSISTENT
from repro.shared.fleet import (
    FleetSimulator,
    FleetWorkloads,
    ProcessStream,
    churn_plan,
)
from repro.shared.manager import make_group
from repro.shared.policy import MIX_KINDS, POLICY_VARIANTS, sharing_config_for
from repro.sim.interleave import DEFAULT_QUANTUM
from repro.units import KB

#: Benchmark replicated by the homogeneous mix.
HOMOGENEOUS_BENCHMARK = "crafty"

#: Benchmarks cycled by the heterogeneous mix (all link the shared
#: library overlay).
HETEROGENEOUS_PALETTE = ("word", "gzip", "iexplore", "crafty")

#: Process counts of the full and the --quick table.
PROCESS_COUNTS = (2, 4, 8)
QUICK_PROCESS_COUNTS = (2,)

#: Shared runs never drop below this scale divisor (full-scale
#: multi-process replay is disproportionately slow), mirroring the
#: headroom/robustness convention.
MIN_SCALE_MULTIPLIER = 4.0


def mix_benchmarks(mix: str, processes: int) -> list[str]:
    """The benchmark of each process in a (mix, count) cell.

    Raises:
        ConfigError: for an unknown mix kind or fewer than 2 processes.
    """
    if mix not in MIX_KINDS:
        raise ConfigError(
            f"unknown mix {mix!r}; choose from {', '.join(MIX_KINDS)}"
        )
    if processes < 2:
        raise ConfigError(f"a process mix needs >= 2 processes, got {processes}")
    if mix == "homogeneous":
        return [HOMOGENEOUS_BENCHMARK] * processes
    return [
        HETEROGENEOUS_PALETTE[i % len(HETEROGENEOUS_PALETTE)]
        for i in range(processes)
    ]


@dataclass(frozen=True)
class SharedCell:
    """What every policy of one (mix, process count) cell replays: the
    workloads, per-process capacities and process streams do not
    depend on the sharing policy, so they are built once."""

    mix: str
    processes: int
    seed: int
    workloads: FleetWorkloads
    capacities: tuple[int, ...]
    streams: tuple[ProcessStream, ...]


def build_cell(
    experiment_id: str,
    mix: str,
    processes: int,
    seed: int = 42,
    scale_multiplier: float = 1.0,
) -> SharedCell:
    """Build the policy-independent inputs of one cell of the
    *experiment_id* table.

    The ``shared`` table's processes all link the one library overlay
    (reach 1) and replay their whole logs; the ``fleet`` table's
    processes take :func:`~repro.experiments.fleet.fleet_specs` and a
    :func:`~repro.shared.fleet.churn_plan`.

    Raises:
        ConfigError: for a table other than ``shared`` and ``fleet``,
            an unknown mix kind, or fewer than 2 processes.
    """
    if experiment_id == "shared":
        specs = [(name, 1) for name in mix_benchmarks(mix, processes)]
    elif experiment_id == "fleet":
        # Imported lazily: the fleet table imports this module.
        from repro.experiments.fleet import fleet_specs

        specs = fleet_specs(mix, processes, seed=seed)
    else:
        raise ConfigError(
            f"no shared-cache table {experiment_id!r}; choose shared or fleet"
        )
    workloads = FleetWorkloads.from_specs(
        specs, seed=seed, scale_multiplier=scale_multiplier
    )
    lengths = workloads.lengths()
    if experiment_id == "fleet":
        streams = churn_plan(lengths, seed=seed)
    else:
        streams = [ProcessStream(length=length) for length in lengths]
    return SharedCell(
        mix=mix,
        processes=processes,
        seed=seed,
        workloads=workloads,
        capacities=tuple(
            baseline_capacity(workloads.workload_of(p).total_trace_bytes)
            for p in range(processes)
        ),
        streams=tuple(streams),
    )


def _shared_hits(policy: str, outcome) -> int:
    """Hits served out of shared memory under *policy*."""
    if policy == "shared-all":
        # The whole hierarchy is shared: every hit is a shared hit.
        return sum(p.stats.hits for p in outcome.processes)
    return sum(
        p.stats.hits_by_cache.get(SHARED_PERSISTENT, 0)
        for p in outcome.processes
    )


def replay_cell(
    cell: SharedCell,
    policy: str,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> dict[str, object]:
    """Replay *cell* under *policy* against a fresh cache group.

    Returns:
        A JSON-safe dict of the cell's aggregate metrics: every column
        either table prints, and the fleet table's notes.
    """
    group = make_group(
        cell.capacities, GenerationalConfig(), sharing_config_for(policy)
    )
    sim = FleetSimulator(
        group,
        cell.workloads,
        schedule=schedule,
        seed=cell.seed,
        quantum=quantum,
        streams=cell.streams,
    )
    outcome = sim.run()
    compiled = outcome.generated_bytes + outcome.dedup_bytes
    hits = sum(p.stats.hits for p in outcome.processes)
    shared_hits = _shared_hits(policy, outcome)
    return {
        "mix": cell.mix,
        "processes": cell.processes,
        "policy": policy,
        "schedule": schedule,
        "quantum": quantum,
        "seed": cell.seed,
        "distinct_workloads": len(cell.workloads.distinct),
        "events": sum(s.effective_length for s in cell.streams),
        "exited_early": sim.exited_early,
        "total_capacity": outcome.total_capacity,
        "accesses": outcome.accesses,
        "miss_rate": outcome.miss_rate,
        "generated_bytes": outcome.generated_bytes,
        "dedup_generations": outcome.dedup_generations,
        "dedup_bytes": outcome.dedup_bytes,
        "dedup_ratio": (outcome.dedup_bytes / compiled) if compiled else 0.0,
        "shared_hit_share": (shared_hits / hits) if hits else 0.0,
        "resident_bytes": outcome.resident_bytes,
        "duplicated_bytes": outcome.duplicated_bytes,
        "unique_content_bytes": outcome.unique_content_bytes,
    }


def simulate_cell(
    experiment_id: str,
    mix: str,
    processes: int,
    policy: str,
    seed: int = 42,
    scale_multiplier: float = 1.0,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> dict[str, object]:
    """Simulate one (mix, process count, policy) cell of the
    *experiment_id* table: :func:`build_cell` then :func:`replay_cell`.

    This is the unit of work of the ``shared-cell`` service job; the
    serial loop of :func:`run_cells` builds each (mix, process count)
    once and replays every policy over it.  Every execution path
    produces identical numbers.

    The cell replays through the fleet stack (:mod:`repro.shared.fleet`).
    :class:`~repro.shared.simulator.MultiProcessSimulator` is kept as the
    reference oracle: the fleet test suite replays every 2/4/8-process
    cell of the ``shared`` table through both and compares every
    aggregate, which is the fleet experiment's correctness anchor.

    Returns:
        A JSON-safe dict of the cell's aggregate metrics.
    """
    cell = build_cell(
        experiment_id,
        mix,
        processes,
        seed=seed,
        scale_multiplier=scale_multiplier,
    )
    return replay_cell(cell, policy, schedule=schedule, quantum=quantum)


def _replay_policies(
    cell: SharedCell, schedule: str, quantum: int
) -> list[dict[str, object]]:
    """Every policy's row of *cell*, in :data:`POLICY_VARIANTS` order."""
    return [
        replay_cell(cell, policy, schedule=schedule, quantum=quantum)
        for policy in POLICY_VARIANTS
    ]


def run_cells(
    experiment_id: str,
    counts: tuple[int, ...],
    seed: int,
    scale_multiplier: float,
    schedule: str,
    quantum: int,
    jobs: int = 1,
    store=None,
) -> dict[tuple[str, int, str], dict[str, object]]:
    """Every (mix, process count, policy) row of the *experiment_id*
    table, keyed by that point in table order.

    With ``jobs > 1`` every row is fanned out as one ``shared-cell``
    job over a :mod:`repro.service` worker pool; each row is the same
    deterministic :func:`simulate_cell` call, so the rows are identical
    to a serial run.
    """
    points = [
        (mix, processes, policy)
        for mix in MIX_KINDS
        for processes in counts
        for policy in POLICY_VARIANTS
    ]
    if jobs > 1:
        # Imported lazily: repro.service replays through this package,
        # so a module-level import would cycle.
        from repro.service.jobs import JobSpec
        from repro.service.scheduler import run_jobs

        specs = [
            JobSpec(
                kind="shared-cell",
                experiment_id=experiment_id,
                mix=mix,
                processes=processes,
                policy=policy,
                seed=seed,
                scale_multiplier=scale_multiplier,
                schedule=schedule,
                quantum=quantum,
            )
            for mix, processes, policy in points
        ]
        payloads = run_jobs(specs, workers=jobs, store=store)
        rows = [payload["result"] for payload in payloads]
    else:
        # One build per (mix, process count), replayed under every
        # policy; the build is dropped before the next one starts.
        rows = [
            row
            for mix in MIX_KINDS
            for processes in counts
            for row in _replay_policies(
                build_cell(
                    experiment_id,
                    mix,
                    processes,
                    seed=seed,
                    scale_multiplier=scale_multiplier,
                ),
                schedule,
                quantum,
            )
        ]
    return dict(zip(points, rows))


def run(
    seed: int = 42,
    scale_multiplier: float = 1.0,
    quick: bool = False,
    jobs: int = 1,
    store=None,
    process_counts: tuple[int, ...] | None = None,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> ExperimentResult:
    """The shared-cache comparison table (see :func:`run_cells` for
    ``jobs``)."""
    counts = process_counts or (QUICK_PROCESS_COUNTS if quick else PROCESS_COUNTS)
    effective_scale = max(scale_multiplier, MIN_SCALE_MULTIPLIER)
    by_point = run_cells(
        "shared", counts, seed, effective_scale, schedule, quantum, jobs, store
    )
    result = ExperimentResult(
        experiment_id="shared-cache",
        title="Cross-process code caches: sharing policy vs private baseline",
        columns=[
            "Mix",
            "Procs",
            "Policy",
            "MissPct",
            "GeneratedKB",
            "DedupKB",
            "ResidentKB",
            "DupKB",
        ],
    )
    for (mix, processes, policy), cell in by_point.items():
        result.add_row(
            Mix=mix,
            Procs=processes,
            Policy=policy,
            MissPct=round(cell["miss_rate"] * 100, 3),
            GeneratedKB=round(cell["generated_bytes"] / KB, 1),
            DedupKB=round(cell["dedup_bytes"] / KB, 1),
            ResidentKB=round(cell["resident_bytes"] / KB, 1),
            DupKB=round(cell["duplicated_bytes"] / KB, 1),
        )
    for mix in MIX_KINDS:
        processes = max(counts)
        private = by_point[(mix, processes, "private")]
        shared = by_point[(mix, processes, "shared-persistent")]
        if private["generated_bytes"]:
            saved = 1 - shared["generated_bytes"] / private["generated_bytes"]
            result.notes.append(
                f"{mix} x{processes}: shared-persistent compiles "
                f"{saved * 100:.1f}% fewer bytes than private "
                f"(miss {private['miss_rate'] * 100:.2f}% -> "
                f"{shared['miss_rate'] * 100:.2f}%)"
            )
    result.notes.append(
        "equal total capacity per cell; heterogeneous processes link one "
        "shared-library overlay (see docs/shared.md)"
    )
    if effective_scale != scale_multiplier:
        result.notes.append(
            f"scale multiplier raised to {effective_scale:g} "
            f"(multi-process replay floor)"
        )
    return attach_provenance(
        result,
        seed,
        scale_multiplier=effective_scale,
        schedule=schedule,
        quantum=quantum,
        process_counts=list(counts),
    )
