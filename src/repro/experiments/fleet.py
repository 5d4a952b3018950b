"""Fleet-scale shared-cache scaling curves (extension).

The :mod:`repro.experiments.shared` table stops at 8 processes — the
paper's scale, and the reference simulator's.  This family extends the
same question ("what does sharing buy at equal total capacity?") to
datacenter fleet sizes, P ∈ {8 … 1024}, using the
:mod:`repro.shared.fleet` stack: distinct workload contents are
synthesized and compiled once, processes are cursors over them, and
the streaming scheduler keeps interleaving cost independent of P.

Fleet cells are the shared table's cells
(:class:`~repro.experiments.shared.SharedCell`, one build and one replay
for both tables), differing in two deliberately realistic ways:

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

from repro.experiments.base import ExperimentResult, attach_provenance
from repro.experiments.shared import mix_benchmarks, run_cells
from repro.shared.compose import LIBRARY_CATALOG, zipf_reaches
from repro.shared.policy import MIX_KINDS
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
    benchmarks = mix_benchmarks(mix, processes)
    if mix == "homogeneous":
        reaches = [HOMOGENEOUS_REACH] * processes
    else:
        reaches = zipf_reaches(processes, len(LIBRARY_CATALOG), seed=seed)
    return list(zip(benchmarks, reaches))


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
    """The fleet scaling-curve table (see
    :func:`~repro.experiments.shared.run_cells` for ``jobs``)."""
    counts = process_counts or (
        QUICK_FLEET_PROCESS_COUNTS if quick else FLEET_PROCESS_COUNTS
    )
    effective_scale = max(scale_multiplier, FLEET_MIN_SCALE_MULTIPLIER)
    by_point = run_cells(
        "fleet", counts, seed, effective_scale, schedule, quantum, jobs, store
    )
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
    for (mix, processes, policy), cell in by_point.items():
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
