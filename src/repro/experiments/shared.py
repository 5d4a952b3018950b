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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GenerationalConfig
from repro.errors import ConfigError
from repro.experiments.base import ExperimentResult, attach_provenance
from repro.experiments.evaluation import baseline_capacity
from repro.shared.compose import build_process_workloads
from repro.shared.fleet import FleetSimulator, FleetWorkloads
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
class MixCell:
    """What every policy of one (mix, process count) cell replays: the
    workloads and per-process capacities do not depend on the sharing
    policy, so they are built once."""

    mix: str
    processes: int
    seed: int
    workloads: FleetWorkloads
    capacities: tuple[int, ...]


def build_mix(
    mix: str,
    processes: int,
    seed: int = 42,
    scale_multiplier: float = 1.0,
) -> MixCell:
    """Build the policy-independent inputs of one (mix, count) cell."""
    workloads = build_process_workloads(
        mix_benchmarks(mix, processes),
        seed=seed,
        scale_multiplier=scale_multiplier,
    )
    return MixCell(
        mix=mix,
        processes=processes,
        seed=seed,
        workloads=FleetWorkloads.from_process_workloads(workloads),
        capacities=tuple(
            baseline_capacity(w.log.total_trace_bytes) for w in workloads
        ),
    )


def replay_mix(
    cell: MixCell,
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
    outcome = FleetSimulator(
        group,
        cell.workloads,
        schedule=schedule,
        seed=cell.seed,
        quantum=quantum,
    ).run()
    return {
        "mix": cell.mix,
        "processes": cell.processes,
        "policy": policy,
        "schedule": schedule,
        "quantum": quantum,
        "seed": cell.seed,
        "total_capacity": outcome.total_capacity,
        "accesses": outcome.accesses,
        "miss_rate": outcome.miss_rate,
        "generated_bytes": outcome.generated_bytes,
        "dedup_generations": outcome.dedup_generations,
        "dedup_bytes": outcome.dedup_bytes,
        "resident_bytes": outcome.resident_bytes,
        "duplicated_bytes": outcome.duplicated_bytes,
        "unique_content_bytes": outcome.unique_content_bytes,
    }


def simulate_mix(
    mix: str,
    processes: int,
    policy: str,
    seed: int = 42,
    scale_multiplier: float = 1.0,
    schedule: str = "round-robin",
    quantum: int = DEFAULT_QUANTUM,
) -> dict[str, object]:
    """Simulate one (mix, process count, policy) cell:
    :func:`build_mix` then :func:`replay_mix`.

    This is the shared unit of work of the ``shared-mix`` service job
    and the smoke tests; the serial table loop builds each (mix,
    process count) once and replays every policy over it.  Every
    execution path produces identical numbers.

    The cell replays through the fleet stack (:mod:`repro.shared.fleet`).
    :class:`~repro.shared.simulator.MultiProcessSimulator` is kept as the
    reference oracle: the fleet test suite replays every 2/4/8-process
    cell through both and compares every aggregate, which is the fleet
    experiment's correctness anchor.

    Returns:
        A JSON-safe dict of the cell's aggregate metrics.
    """
    cell = build_mix(
        mix, processes, seed=seed, scale_multiplier=scale_multiplier
    )
    return replay_mix(cell, policy, schedule=schedule, quantum=quantum)


def _replay_policies(
    cell: MixCell, schedule: str, quantum: int
) -> list[dict[str, object]]:
    """Every policy's row of *cell*, in :data:`POLICY_VARIANTS` order."""
    return [
        replay_mix(cell, policy, schedule=schedule, quantum=quantum)
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
    """The shared-cache comparison table.

    With ``jobs > 1`` every (mix, count, policy) cell is fanned out as
    one ``shared-mix`` job over a :mod:`repro.service` worker pool;
    each cell is the same deterministic :func:`simulate_mix` call, so
    the assembled table is identical to a serial run.
    """
    counts = process_counts or (QUICK_PROCESS_COUNTS if quick else PROCESS_COUNTS)
    effective_scale = max(scale_multiplier, MIN_SCALE_MULTIPLIER)
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
                build_mix(
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
    by_point: dict[tuple[str, int, str], dict[str, object]] = {}
    for (mix, processes, policy), cell in zip(points, cells):
        by_point[(mix, processes, policy)] = cell
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


def _parallel_cells(
    points: list[tuple[str, int, str]],
    seed: int,
    scale_multiplier: float,
    schedule: str,
    quantum: int,
    jobs: int,
    store,
) -> list[dict[str, object]]:
    """Fan every table cell out as one ``shared-mix`` job."""
    # Imported lazily: repro.service replays through this package, so a
    # module-level import would cycle.
    from repro.service.jobs import JobSpec
    from repro.service.scheduler import run_jobs

    specs = [
        JobSpec(
            kind="shared-mix",
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
