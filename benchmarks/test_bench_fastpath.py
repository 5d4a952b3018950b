"""Benchmarks of the compiled replay fast path.

For each benchmark log, replay the unified baseline and the Figure 9
generational layouts down both replay tiers —

* **object**: per-record dispatch over record objects (the oracle),
* **batched**: the batched loop over the packed columns,

asserting the results are identical tier-for-tier and measuring each
tier's time, both in aggregate and per manager.

Besides the pytest-benchmark timings, the module writes
``benchmarks/results/BENCH_fastpath.json``: per-tier times and
events/second and per-manager speedup rows.  Every time is CPU time at
the end-to-end benchmark's reference core speed
(``benchmarks/e2e/refclock.py``), so absolute rows compare across runs
on a shared, speed-switching core; speedups are taken inside one run.  The CI perf-smoke job
parses that file and enforces the speedup floor (the in-test
assertions are deliberately softer, so a loaded laptop doesn't flake
the suite).

This module runs the logs at **full scale** (``scale=1``): replay
throughput on access-dense full-length logs is the thing under test.
The scale is recorded in the JSON.

Set ``REPRO_BENCH_QUICK=1`` to shrink to two benchmarks and two
configs (what CI runs).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest
from bench_common import RESULTS_DIR, run_once

from repro.cachesim.simulator import CacheSimulator
from repro.core.config import FIGURE9_CONFIGS
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import baseline_capacity
from repro.fastpath import FASTPATH_TOTALS, object_path
from repro.fastpath.artifacts import ARTIFACT_TOTALS
from repro.overhead.model import TABLE2_COSTS

sys.path.insert(0, str(Path(__file__).parent / "e2e"))
from refclock import CoreClock  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Full-length logs: replay throughput is the thing under test.
FASTPATH_SCALE = 1.0

BENCHES = (
    # gzip (a short SPEC loop) + iexplore (the heaviest log): both
    # ends of the log-size range while CI stays minutes-cheap.
    ["gzip", "iexplore"]
    if QUICK
    else ["gzip", "crafty", "word", "iexplore"]
)
CONFIGS = FIGURE9_CONFIGS[:2] if QUICK else FIGURE9_CONFIGS

#: The replay tiers, slowest first.
TIERS = ("object", "batched")

#: Per-bench measurements accumulated across tests, flushed to JSON by
#: the final test in this module.
_REPORT: dict[str, dict] = {}


@pytest.fixture(scope="module")
def dataset():
    return WorkloadDataset(
        seed=42, scale_multiplier=FASTPATH_SCALE, subset=BENCHES
    )


def _managers(capacity):
    managers = [UnifiedCacheManager(capacity)]
    for config in CONFIGS:
        managers.append(GenerationalCacheManager(capacity, config))
    return managers


def _reps(compiled) -> int:
    """Timing repetitions per tier: the per-manager second is the min
    across reps, which strips GC pauses and scheduler jitter from the
    speedup ratios.  Small logs are cheap enough to triple-run."""
    return 3 if len(compiled) < 100_000 else 2


def _replay_tier(dataset, name, tier, reps):
    """Replay every config over one benchmark on one tier *reps*
    times; returns ``(results, per_manager_seconds)`` — results from
    the last rep (they are deterministic), seconds the per-manager min
    across reps, in reference CPU seconds.  Logs are already
    materialized (the object tier's decompiled) so only replay is
    timed."""
    capacity = baseline_capacity(dataset.stats(name).total_trace_bytes)
    log = dataset.compiled(name)
    if tier == "object":
        log = log.decompile()
    results = []
    seconds = []
    with CoreClock() as clock:
        for rep in range(reps):
            results = []
            for index, manager in enumerate(_managers(capacity)):
                sim = CacheSimulator(manager, TABLE2_COSTS)
                started = time.process_time()
                if tier == "object":
                    with object_path():
                        results.append(sim.run(log))
                else:
                    results.append(sim.run(log))
                elapsed = time.process_time() - started
                if rep == 0:
                    seconds.append(elapsed)
                elif elapsed < seconds[index]:
                    seconds[index] = elapsed
    return results, [clock.reference_seconds(cpu) for cpu in seconds]


def _tier_entry(seconds, events):
    return {
        "seconds": round(seconds, 6),
        "events_per_second": round(events / seconds) if seconds else 0,
    }


@pytest.mark.parametrize("name", BENCHES)
def test_bench_fastpath_replay(benchmark, dataset, name):
    """Both replay tiers over one benchmark across all configs,
    checked result-for-result against the object path."""
    compiled = dataset.compiled(name)
    reps = _reps(compiled)
    tier_results = {}
    tier_seconds = {}
    per_manager = {}
    counters = {}
    for tier in TIERS:
        before = dict(FASTPATH_TOTALS)
        if tier == "batched":
            results, seconds = run_once(
                benchmark, _replay_tier, dataset, name, tier, reps
            )
        else:
            results, seconds = _replay_tier(dataset, name, tier, reps)
        tier_results[tier] = results
        tier_seconds[tier] = sum(seconds)
        per_manager[tier] = seconds
        counters[tier] = {
            key: FASTPATH_TOTALS[key] - before[key] for key in FASTPATH_TOTALS
        }

    # Byte-identical results on both tiers, per manager.
    for obj, fast in zip(tier_results["object"], tier_results["batched"]):
        assert obj.stats == fast.stats, name
        assert obj.overhead_instructions == fast.overhead_instructions
        assert obj.final_fragmentation == fast.final_fragmentation
        assert obj.final_occupancy == fast.final_occupancy

    # Every batched-tier replay took the batched loop.
    replays = 1 + len(CONFIGS)
    assert counters["batched"]["fast_replays"] == replays * reps
    assert counters["batched"]["object_replays"] == 0

    capacity = baseline_capacity(dataset.stats(name).total_trace_bytes)
    managers = [m.name for m in _managers(capacity)]
    records = len(compiled) * replays
    _REPORT[name] = {
        "records": records,
        "accesses": compiled.n_accesses * replays,
        "configs": replays,
        "tiers": {
            tier: _tier_entry(tier_seconds[tier], records) for tier in TIERS
        },
        "managers": [
            {
                "manager": manager,
                **{
                    f"{tier}_seconds": round(per_manager[tier][i], 6)
                    for tier in TIERS
                },
                "batched_vs_object": round(
                    per_manager["object"][i] / per_manager["batched"][i], 3
                ),
            }
            for i, manager in enumerate(managers)
        ],
        "object_seconds": round(tier_seconds["object"], 6),
        "fast_seconds": round(tier_seconds["batched"], 6),
        "speedup": round(tier_seconds["object"] / tier_seconds["batched"], 3),
        "events_per_second": round(records / tier_seconds["batched"]),
    }
    # Soft floor; the CI perf-smoke job enforces the real one from
    # the emitted JSON, aggregated over every bench.
    assert tier_seconds["batched"] < tier_seconds["object"]


def test_bench_fastpath_report(benchmark, dataset):
    """Aggregate the per-bench measurements into BENCH_fastpath.json.

    Takes the ``benchmark`` fixture (timing a trivial aggregation) so
    ``--benchmark-only`` — what the CI perf-smoke job runs — still
    executes this test and regenerates the JSON it parses."""
    assert set(_REPORT) == set(BENCHES), "run the full module, not one test"
    totals = run_once(
        benchmark,
        lambda: {
            tier: sum(r["tiers"][tier]["seconds"] for r in _REPORT.values())
            for tier in TIERS
        },
    )
    best_rows = sorted(
        (row for r in _REPORT.values() for row in r["managers"]),
        key=lambda row: row["batched_vs_object"],
        reverse=True,
    )
    report = {
        "quick": QUICK,
        "scale_multiplier": FASTPATH_SCALE,
        "time_unit": "CPU seconds at the reference core speed "
        "(benchmarks/e2e/refclock.py)",
        "configs": 1 + len(CONFIGS),
        "benches": _REPORT,
        "total": {
            "tiers": {tier: round(totals[tier], 6) for tier in TIERS},
            "object_seconds": round(totals["object"], 6),
            "fast_seconds": round(totals["batched"], 6),
            "speedup": round(totals["object"] / totals["batched"], 3),
            "best_manager": best_rows[0] if best_rows else None,
        },
        "fastpath_totals": dict(FASTPATH_TOTALS),
        "artifact_totals": dict(ARTIFACT_TOTALS),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "BENCH_fastpath.json"
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(json.dumps(report["total"], sort_keys=True))
    assert report["total"]["speedup"] > 1.5
