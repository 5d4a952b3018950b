"""Fleet-scale shared-cache scaling curves (extension).

The :mod:`repro.experiments.shared` table stops at 8 processes — the
paper's scale, and the reference simulator's.  This family extends the
same question ("what does sharing buy at equal total capacity?") to
datacenter fleet sizes, P ∈ {8 … 1024}, using the
:mod:`repro.shared.fleet` stack: distinct workload contents are
synthesized and compiled once, processes are cursors over them, and
the streaming scheduler keeps interleaving cost independent of P.

Fleet cells differ from shared cells in two deliberately realistic
ways:

* **churn** — a deterministic fraction of processes spawn late and/or
  are killed early (:func:`repro.shared.fleet.churn_plan`), exercising
  the shared cache's reference-count drain paths at scale;
* **Zipf library popularity** — heterogeneous processes link a
  catalog *prefix* whose depth is drawn from a Zipf distribution
  (:func:`repro.shared.compose.zipf_reaches`): everyone links the
  hottest library, few link the long tail, as fleet-wide shared-object
  profiles actually look.

Reported per (mix, P, policy) cell: conflict-miss rate, the **dedup
ratio** (fraction of would-be compiled bytes that instead deduplicated
against a shared copy), the **shared-hit share** (fraction of hits
served out of shared memory), compiled bytes, and the end resident
footprint.  The curves make the headline visible: dedup ratio climbs
with P under sharing policies while private compiles O(P) bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GenerationalConfig
from repro.errors import ConfigError
from repro.experiments.base import ExperimentResult, attach_provenance
from repro.experiments.evaluation import baseline_capacity
from repro.experiments.shared import HETEROGENEOUS_PALETTE, HOMOGENEOUS_BENCHMARK
from repro.shared import SHARED_PERSISTENT
from repro.shared.compose import LIBRARY_CATALOG, zipf_reaches
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

#: Process counts of the full and the --quick scaling curve.
FLEET_PROCESS_COUNTS = (8, 64, 256, 1024)
QUICK_FLEET_PROCESS_COUNTS = (8, 64)

#: Fleet runs never drop below this scale divisor: the curve's point is
#: the process axis, so per-process logs stay small enough that even
#: the P=1024 cells replay in seconds.
FLEET_MIN_SCALE_MULTIPLIER = 64.0

#: Homogeneous fleet processes all link this many catalog libraries
#: (the reference mix's single shared overlay).
HOMOGENEOUS_REACH = 1


def fleet_specs(
    mix: str, processes: int, seed: int = 42
) -> list[tuple[str, int]]:
    """The (benchmark, library reach) of each process in a fleet cell.

    Homogeneous fleets replicate one binary with the single standard
    library overlay; heterogeneous fleets cycle the palette and draw
    each process's catalog reach from the seeded Zipf model.

    Raises:
        ConfigError: for an unknown mix kind or fewer than 2 processes.
    """
    if mix not in MIX_KINDS:
        raise ConfigError(
            f"unknown mix {mix!r}; choose from {', '.join(MIX_KINDS)}"
        )
    if processes < 2:
        raise ConfigError(f"a fleet needs >= 2 processes, got {processes}")
    if mix == "homogeneous":
        return [(HOMOGENEOUS_BENCHMARK, HOMOGENEOUS_REACH)] * processes
    reaches = zipf_reaches(processes, len(LIBRARY_CATALOG), seed=seed)
    return [
        (HETEROGENEOUS_PALETTE[i % len(HETEROGENEOUS_PALETTE)], reaches[i])
        for i in range(processes)
    ]


def _shared_hits(policy: str, outcome) -> int:
    """Hits served out of shared memory under *policy*."""
    if policy == "shared-all":
        # The whole hierarchy is shared: every hit is a shared hit.
        return sum(p.stats.hits for p in outcome.processes)
    return sum(
        p.stats.hits_by_cache.get(SHARED_PERSISTENT, 0)
        for p in outcome.processes
    )


@dataclass(frozen=True)
class FleetCell:
    """What every policy of one (mix, process count) fleet cell
    replays: the workloads, per-process capacities and churn plan do
    not depend on the sharing policy, so they are built once."""

    mix: str
    processes: int
    seed: int
    workloads: FleetWorkloads
    capacities: tuple[int, ...]
    streams: tuple[ProcessStream, ...]


def build_fleet_cell(
    mix: str,
    processes: int,
    seed: int = 42,
    scale_multiplier: float = 1.0,
) -> FleetCell:
    """Build the policy-independent inputs of one fleet cell."""
    workloads = FleetWorkloads.from_specs(
        fleet_specs(mix, processes, seed=seed),
        seed=seed,
        scale_multiplier=scale_multiplier,
    )
    capacities = tuple(
        baseline_capacity(workloads.workload_of(p).total_trace_bytes)
        for p in range(processes)
    )
    return FleetCell(
        mix=mix,
        processes=processes,
        seed=seed,
        workloads=workloads,
        capacities=capacities,
        streams=tuple(churn_plan(workloads.lengths(), seed=seed)),
    )


def replay_fleet_cell(
    cell: FleetCell,
    policy: str,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> dict[str, object]:
    """Replay *cell* under *policy* against a fresh cache group.

    Returns:
        A JSON-safe dict of the cell's aggregate metrics.
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


def simulate_fleet_cell(
    mix: str,
    processes: int,
    policy: str,
    seed: int = 42,
    scale_multiplier: float = 1.0,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> dict[str, object]:
    """Simulate one (mix, process count, policy) fleet cell:
    :func:`build_fleet_cell` then :func:`replay_fleet_cell`.

    The shared unit of work for the ``fleet-cell`` service job and the
    smoke tests; the serial curve loop builds each (mix, process
    count) once and replays every policy over it.  Every execution
    path produces identical numbers.  Churn is always on (the plan is
    a pure function of the cell's lengths and seed).

    Returns:
        A JSON-safe dict of the cell's aggregate metrics.
    """
    cell = build_fleet_cell(
        mix, processes, seed=seed, scale_multiplier=scale_multiplier
    )
    return replay_fleet_cell(cell, policy, schedule=schedule, quantum=quantum)


def _replay_policies(
    cell: FleetCell, schedule: str, quantum: int
) -> list[dict[str, object]]:
    """Every policy's row of *cell*, in :data:`POLICY_VARIANTS` order."""
    return [
        replay_fleet_cell(cell, policy, schedule=schedule, quantum=quantum)
        for policy in POLICY_VARIANTS
    ]


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
    """The fleet scaling-curve table.

    With ``jobs > 1`` every (mix, count, policy) cell is fanned out as
    one ``fleet-cell`` job over a :mod:`repro.service` worker pool;
    each cell is the same deterministic :func:`simulate_fleet_cell`
    call, so the assembled table is identical to a serial run.
    """
    counts = process_counts or (
        QUICK_FLEET_PROCESS_COUNTS if quick else FLEET_PROCESS_COUNTS
    )
    effective_scale = max(scale_multiplier, FLEET_MIN_SCALE_MULTIPLIER)
    points = [
        (mix, processes, policy)
        for mix in MIX_KINDS
        for processes in counts
        for policy in POLICY_VARIANTS
    ]
    if jobs > 1:
        cells = _parallel_cells(
            points, seed, effective_scale, schedule, quantum, jobs, store
        )
    else:
        # One build per (mix, process count), replayed under every
        # policy; the build is dropped before the next one starts.
        cells = [
            row
            for mix in MIX_KINDS
            for processes in counts
            for row in _replay_policies(
                build_fleet_cell(
                    mix,
                    processes,
                    seed=seed,
                    scale_multiplier=effective_scale,
                ),
                schedule,
                quantum,
            )
        ]
    result = ExperimentResult(
        experiment_id="fleet",
        title="Fleet-scale shared caches: dedup and hit sharing vs process count",
        columns=[
            "Mix",
            "Procs",
            "Policy",
            "MissPct",
            "DedupRatio",
            "SharedHitPct",
            "GeneratedKB",
            "ResidentKB",
        ],
    )
    by_point: dict[tuple[str, int, str], dict[str, object]] = {}
    for (mix, processes, policy), cell in zip(points, cells):
        by_point[(mix, processes, policy)] = cell
        result.add_row(
            Mix=mix,
            Procs=processes,
            Policy=policy,
            MissPct=round(cell["miss_rate"] * 100, 3),
            DedupRatio=round(cell["dedup_ratio"], 4),
            SharedHitPct=round(cell["shared_hit_share"] * 100, 2),
            GeneratedKB=round(cell["generated_bytes"] / KB, 1),
            ResidentKB=round(cell["resident_bytes"] / KB, 1),
        )
    for mix in MIX_KINDS:
        low, high = min(counts), max(counts)
        small = by_point[(mix, low, "shared-persistent")]
        large = by_point[(mix, high, "shared-persistent")]
        result.notes.append(
            f"{mix}: shared-persistent dedup ratio "
            f"{small['dedup_ratio']:.3f} @ P={low} -> "
            f"{large['dedup_ratio']:.3f} @ P={high} "
            f"({large['distinct_workloads']} distinct workloads, "
            f"{large['exited_early']} churn exits)"
        )
    result.notes.append(
        "churned fleets (deterministic spawn/exit plan); heterogeneous "
        "library reach is Zipf-distributed over the catalog "
        "(see docs/shared.md)"
    )
    if effective_scale != scale_multiplier:
        result.notes.append(
            f"scale multiplier raised to {effective_scale:g} "
            f"(fleet replay floor)"
        )
    return attach_provenance(
        result,
        seed,
        scale_multiplier=effective_scale,
        schedule=schedule,
        quantum=quantum,
        process_counts=list(counts),
    )


def _parallel_cells(
    points: list[tuple[str, int, str]],
    seed: int,
    scale_multiplier: float,
    schedule: str,
    quantum: int,
    jobs: int,
    store,
) -> list[dict[str, object]]:
    """Fan every curve cell out as one ``fleet-cell`` job."""
    # Imported lazily: repro.service replays through this package, so a
    # module-level import would cycle.
    from repro.service.jobs import JobSpec
    from repro.service.scheduler import run_jobs

    specs = [
        JobSpec(
            kind="fleet-cell",
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
    return [payload["result"] for payload in payloads]
