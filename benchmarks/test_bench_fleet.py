"""Benchmarks for the fleet-scale shared-cache stack.

Four measurements, flushed to ``benchmarks/results/BENCH_fleet.json``
by the final test in this module:

* **scaling cell** — the P=1024 heterogeneous+Zipf cell (churned,
  random schedule) end to end: events/sec and the dedup ratio the
  scaling table reports;
* **replay** — the fleet engine vs the reference
  ``MultiProcessSimulator`` replaying the same shared-table cell under
  each sharing policy (the CI floor is 3.0x);
* **interleaver speedup** — the O(1)-amortized streaming scheduler
  vs the per-record reference interleaver merging the same P=256
  homogeneous fleet (the CI floor is 5x);
* **memory scaling** — tracemalloc peak of a P=1024 homogeneous run
  vs P=8 at identical per-process scale: lazy synthesis keeps memory
  O(distinct workloads), so the CI ceiling is 3x despite 128x the
  processes.

The timing cells run at a deep scale divisor (tiny per-process logs);
the memory comparison runs at the experiment's own floor divisor so
the shared compiled log — the constant term lazy synthesis buys — has
its realistic weight.  The full-scale curve is
``repro-gencache run fleet``.

Every time in the report is CPU time at the end-to-end benchmark's
reference core speed (``benchmarks/e2e/refclock.py``), so absolute
rows compare across runs on a shared, speed-switching core; ratios are
taken inside one run.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

from conftest import RESULTS_DIR, process_workloads, run_once

from repro.core.config import GenerationalConfig
from repro.experiments.evaluation import baseline_capacity
from repro.experiments.fleet import FLEET_MIN_SCALE_MULTIPLIER, fleet_specs
from repro.experiments.shared import build_cell, mix_benchmarks, simulate_cell
from repro.shared import (
    POLICY_VARIANTS,
    MultiProcessSimulator,
    make_group,
    sharing_config_for,
)
from repro.shared.fleet import FleetSimulator, FleetWorkloads, ProcessStream, stream_segments
from repro.sim.interleave import DEFAULT_QUANTUM, interleave_logs

sys.path.insert(0, str(Path(__file__).parent / "e2e"))
from refclock import CoreClock  # noqa: E402

#: Deep scale divisor: the process axis is the thing under test, so
#: per-process logs stay ~1k records.
FLEET_BENCH_SCALE = 256.0

#: The replay comparison's cell: the shared table's largest
#: heterogeneous cell, at the CI smoke scale divisor.
REPLAY_PROCESSES = 8
REPLAY_SCALE = 8.0

#: Timed runs per engine and policy; each engine keeps its best.
REPLAY_RUNS = 3

#: Per-bench measurements accumulated across tests, flushed to JSON by
#: the final test in this module.
_REPORT: dict[str, dict] = {}


def test_bench_fleet_scaling_cell(benchmark):
    """P=1024 heterogeneous fleet with Zipf library reach and churn."""

    def cell():
        with CoreClock() as clock:
            start = time.process_time()
            result = simulate_cell(
                "fleet",
                "heterogeneous",
                1024,
                "shared-persistent",
                seed=42,
                scale_multiplier=FLEET_BENCH_SCALE,
                schedule="random",
            )
            cpu = time.process_time() - start
        return result, clock.reference_seconds(cpu)

    result, seconds = run_once(benchmark, cell)
    assert result["processes"] == 1024
    assert result["distinct_workloads"] < 32  # lazy dedup held
    assert result["exited_early"] > 0  # churn exercised
    assert result["dedup_ratio"] > 0
    _REPORT["scaling_cell"] = {
        "processes": 1024,
        "events": result["events"],
        "seconds": round(seconds, 3),
        "events_per_sec": round(result["events"] / seconds),
        "distinct_workloads": result["distinct_workloads"],
        "exited_early": result["exited_early"],
        "dedup_ratio": round(result["dedup_ratio"], 4),
        "miss_rate": round(result["miss_rate"], 5),
    }


def test_bench_fleet_replay(benchmark):
    """Fleet engine vs reference simulator on one shared-table cell.

    Both replay the heterogeneous 8-process cell (round-robin) under
    every sharing policy against freshly built groups: the fleet engine
    the table's own cell, the reference the same processes' workloads
    from the one mix builder.  Compiled logs and groups are built
    outside the timed region.  Each engine's time is its best of
    :data:`REPLAY_RUNS` process-time runs, alternating which engine
    goes first.
    """
    cell = build_cell(
        "shared",
        "heterogeneous",
        REPLAY_PROCESSES,
        seed=42,
        scale_multiplier=REPLAY_SCALE,
    )
    workloads = process_workloads(
        [(name, 1) for name in mix_benchmarks("heterogeneous", REPLAY_PROCESSES)],
        REPLAY_SCALE,
    )
    records = sum(len(w.log) for w in workloads)

    def simulator(engine: str, policy: str):
        group = make_group(
            cell.capacities, GenerationalConfig(), sharing_config_for(policy)
        )
        if engine == "fleet":
            return FleetSimulator(group, cell.workloads, seed=42)
        return MultiProcessSimulator(group, workloads, seed=42)

    def measure() -> dict[str, float]:
        seconds = {"fleet": 0.0, "reference": 0.0}
        for policy in POLICY_VARIANTS:
            best = {}
            for run in range(REPLAY_RUNS):
                order = ("fleet", "reference")
                for engine in order if run % 2 == 0 else order[::-1]:
                    replay = simulator(engine, policy)
                    start = time.process_time()
                    replay.run()
                    elapsed = time.process_time() - start
                    best[engine] = min(best.get(engine, elapsed), elapsed)
            for engine, elapsed in best.items():
                seconds[engine] += elapsed
        return seconds

    with CoreClock() as clock:
        cpu = run_once(benchmark, measure)
    seconds = {
        engine: clock.reference_seconds(elapsed)
        for engine, elapsed in cpu.items()
    }
    replayed = records * len(POLICY_VARIANTS)
    ratio = seconds["reference"] / seconds["fleet"]
    _REPORT["replay"] = {
        "mix": "heterogeneous",
        "processes": REPLAY_PROCESSES,
        "scale_divisor": REPLAY_SCALE,
        "policies": list(POLICY_VARIANTS),
        "records": replayed,
        "fleet_seconds": round(seconds["fleet"], 3),
        "reference_seconds": round(seconds["reference"], 3),
        "fleet_records_per_sec": round(replayed / seconds["fleet"]),
        "reference_records_per_sec": round(replayed / seconds["reference"]),
        "ratio": round(ratio, 2),
    }


def test_bench_interleaver_speedup(benchmark):
    """Streaming scheduler vs per-record reference interleaver, P=256.

    Both schedule the identical homogeneous fleet; the fleet scheduler
    yields one segment per turn instead of one object per record, so
    its cost is O(events / quantum).
    """
    processes = 256
    workloads = process_workloads(
        fleet_specs("homogeneous", processes), FLEET_BENCH_SCALE,
        decompiled=True,
    )
    logs = [w.log for w in workloads]
    n_records = sum(len(log.records) for log in logs)

    def reference() -> int:
        return sum(
            1
            for _ in interleave_logs(
                logs, schedule="round-robin", quantum=DEFAULT_QUANTUM
            )
        )

    streams = [ProcessStream(length=len(log.records)) for log in logs]

    def streaming() -> int:
        return sum(
            segment.stop - segment.start
            for segment in stream_segments(
                streams, schedule="round-robin", quantum=DEFAULT_QUANTUM
            )
        )

    with CoreClock() as clock:
        start = time.process_time()
        assert reference() == n_records
        reference_cpu = time.process_time() - start
        start = time.process_time()
        total = run_once(benchmark, streaming)
        streaming_cpu = time.process_time() - start
    reference_seconds = clock.reference_seconds(reference_cpu)
    streaming_seconds = clock.reference_seconds(streaming_cpu)
    assert total == n_records
    speedup = reference_seconds / streaming_seconds
    _REPORT["interleaver"] = {
        "processes": processes,
        "records": n_records,
        "reference_seconds": round(reference_seconds, 4),
        "streaming_seconds": round(streaming_seconds, 4),
        "reference_records_per_sec": round(n_records / reference_seconds),
        "streaming_records_per_sec": round(n_records / streaming_seconds),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 5.0, f"interleaver speedup regressed: {speedup:.2f}x"


def _peak_bytes(processes: int) -> int:
    """tracemalloc peak of one homogeneous shared-all fleet run."""
    specs = fleet_specs("homogeneous", processes)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        workloads = FleetWorkloads.from_specs(
            specs, seed=42, scale_multiplier=FLEET_MIN_SCALE_MULTIPLIER
        )
        capacities = tuple(
            baseline_capacity(workloads.workload_of(p).total_trace_bytes)
            for p in range(processes)
        )
        group = make_group(
            capacities, GenerationalConfig(), sharing_config_for("shared-all")
        )
        FleetSimulator(group, workloads, seed=42).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_bench_fleet_memory(benchmark):
    """Peak memory of P=1024 stays within 3x of P=8: processes are
    cursors over one distinct compiled log, not per-process copies."""
    peak_small = _peak_bytes(8)
    peak_large = run_once(benchmark, _peak_bytes, 1024)
    ratio = peak_large / peak_small
    _REPORT["memory"] = {
        "peak_bytes_p8": peak_small,
        "peak_bytes_p1024": peak_large,
        "ratio": round(ratio, 2),
    }
    assert ratio <= 3.0, f"P=1024 peak memory is {ratio:.2f}x P=8"


def test_bench_fleet_report(benchmark):
    """Aggregate the measurements into BENCH_fleet.json.

    Takes the ``benchmark`` fixture (timing a trivial aggregation) so
    ``--benchmark-only`` — what the CI fleet-smoke job runs — still
    writes the report.
    """
    assert set(_REPORT) == {"scaling_cell", "replay", "interleaver", "memory"}, (
        "run the full module, not one test"
    )
    report = run_once(
        benchmark,
        lambda: {
            "scale_divisor": FLEET_BENCH_SCALE,
            "memory_scale_divisor": FLEET_MIN_SCALE_MULTIPLIER,
            "quantum": DEFAULT_QUANTUM,
            "time_unit": "CPU seconds at the reference core speed "
            "(benchmarks/e2e/refclock.py)",
            **_REPORT,
        },
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "BENCH_fleet.json"
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(json.dumps({k: report[k] for k in _REPORT}, sort_keys=True))
