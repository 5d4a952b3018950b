"""Benchmarks of scenario-search candidate evaluation.

Calibration and fuzzing spend nearly all their time evaluating
candidate profiles (synthesize, compile, probe the miss curve), so the
number a user actually feels is **candidate evaluations per second**.
This module measures it twice — once with the fastpath artifact cache
cold-disabled and once against a warmed store — and writes
``benchmarks/results/BENCH_scenarios.json`` with both rates and the
warm-over-cold speedup the cache buys a search that revisits profiles.

Set ``REPRO_BENCH_QUICK=1`` to shrink to one base profile (what CI
runs).
"""

from __future__ import annotations

import json
import os
import time

from bench_common import RESULTS_DIR, run_once

from repro.fastpath import artifacts
from repro.scenarios.targets import SCENARIO_TOTALS, measure_profile
from repro.workloads.catalog import get_profile

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Synthesis scale divisor: candidate evaluation during a real search
#: runs at reduced scale exactly like this.
SCALE = 256.0

BASES = ["word"] if QUICK else ["word", "gcc", "iexplore"]

#: Seeds per base, so the cold pass cannot reuse its own synthesis.
SEEDS = (7, 11) if QUICK else (7, 11, 13)


def _evaluate_all():
    """One sweep of candidate evaluations over every (base, seed)."""
    for name in BASES:
        profile = get_profile(name)
        for seed in SEEDS:
            measure_profile(profile, seed, SCALE)
    return len(BASES) * len(SEEDS)


def _timed_sweep():
    started = time.perf_counter()
    count = _evaluate_all()
    return count, time.perf_counter() - started


def test_bench_scenario_evaluations(benchmark, tmp_path):
    """Candidate evals/sec, cold (no artifact cache) vs warm store."""
    saved = artifacts.get_cache()
    try:
        artifacts.configure(None)
        cold_count, cold_seconds = _timed_sweep()

        artifacts.configure(tmp_path / "artifacts")
        _evaluate_all()  # prime the store
        warm_count, warm_seconds = run_once(benchmark, _timed_sweep)
    finally:
        artifacts._cache = saved
    assert cold_count == warm_count

    report = {
        "quick": QUICK,
        "scale": SCALE,
        "bases": BASES,
        "seeds": list(SEEDS),
        "evaluations": cold_count,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_evals_per_second": round(cold_count / cold_seconds, 3),
        "warm_evals_per_second": round(warm_count / warm_seconds, 3),
        "warm_speedup": round(cold_seconds / warm_seconds, 3),
        "scenario_totals": dict(SCENARIO_TOTALS),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "BENCH_scenarios.json"
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(
        json.dumps(
            {
                "cold_evals_per_second": report["cold_evals_per_second"],
                "warm_evals_per_second": report["warm_evals_per_second"],
                "warm_speedup": report["warm_speedup"],
            },
            sort_keys=True,
        )
    )
    # Soft floor: a warmed store must not be slower than re-synthesis.
    assert warm_seconds <= cold_seconds
