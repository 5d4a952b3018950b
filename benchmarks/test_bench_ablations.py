"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify what each design decision
buys, on one representative workload:

* promotion mode: single-hit promotion vs on-eviction thresholds;
* local policy under the generational global policy;
* the hole-filling pseudo-circular variant the paper rejected.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.cachesim.simulator import simulate_log
from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.experiments.base import ExperimentResult
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import baseline_capacity
from repro.overhead.model import TABLE2_COSTS

WORKLOAD = "outlook"
SCALE = 8.0


@pytest.fixture(scope="module")
def dataset():
    return WorkloadDataset(seed=42, scale_multiplier=SCALE, subset=[WORKLOAD])


@pytest.fixture(scope="module")
def capacity(dataset):
    return baseline_capacity(dataset.stats(WORKLOAD).total_trace_bytes)


def test_bench_ablation_promotion_mode(benchmark, publish, dataset, capacity):
    """On-hit vs on-eviction promotion at matched proportions."""

    def run():
        result = ExperimentResult(
            experiment_id="ablation-promotion-mode",
            title=f"Promotion policy ablation on {WORKLOAD}",
            columns=["Mode", "Threshold", "MissPct", "Promotions"],
        )
        log = dataset.compiled(WORKLOAD)
        for mode, threshold in (
            (PromotionMode.ON_HIT, 1),
            (PromotionMode.ON_HIT, 4),
            (PromotionMode.ON_EVICTION, 1),
            (PromotionMode.ON_EVICTION, 10),
        ):
            config = GenerationalConfig(
                promotion_threshold=threshold, promotion_mode=mode
            )
            sim = simulate_log(log, GenerationalCacheManager(capacity, config))
            result.add_row(
                Mode=mode.value,
                Threshold=threshold,
                MissPct=round(sim.miss_rate * 100, 3),
                Promotions=sim.stats.promotions,
            )
        return result

    result = run_once(benchmark, run)
    publish(result)
    assert len(result.rows) == 4


def test_bench_ablation_local_policy(benchmark, publish, dataset, capacity):
    """Local policy choice inside the generational hierarchy."""

    def run():
        result = ExperimentResult(
            experiment_id="ablation-local-policy",
            title=f"Local policy under the generational manager ({WORKLOAD})",
            columns=["Policy", "MissPct", "OverheadM"],
        )
        log = dataset.compiled(WORKLOAD)
        for policy in ("pseudo-circular", "lru", "preemptive-flush"):
            config = GenerationalConfig(local_policy=policy)
            sim = simulate_log(
                log, GenerationalCacheManager(capacity, config), TABLE2_COSTS
            )
            result.add_row(
                Policy=policy,
                MissPct=round(sim.miss_rate * 100, 3),
                OverheadM=round((sim.overhead_instructions or 0) / 1e6, 1),
            )
        return result

    result = run_once(benchmark, run)
    publish(result)
    assert len(result.rows) == 3


def test_bench_ablation_hole_filling(benchmark, publish, dataset, capacity):
    """The hole-filling variant the paper rejected (Section 4.3)."""

    def run():
        result = ExperimentResult(
            experiment_id="ablation-hole-filling",
            title=f"Hole-filling pseudo-circular variant ({WORKLOAD})",
            columns=["FillHoles", "MissPct", "FinalFragmentation"],
        )
        log = dataset.compiled(WORKLOAD)
        for fill_holes in (False, True):
            manager = UnifiedCacheManager(capacity)
            manager.cache.fill_holes = fill_holes  # type: ignore[attr-defined]
            sim = simulate_log(log, manager)
            result.add_row(
                FillHoles=fill_holes,
                MissPct=round(sim.miss_rate * 100, 3),
                FinalFragmentation=round(
                    sim.final_fragmentation["unified"], 3
                ),
            )
        return result

    result = run_once(benchmark, run)
    publish(result)
    assert len(result.rows) == 2
