"""Oracle headroom (extension experiment).

How much of the gap between the practical FIFO baseline and an
unimplementable Belady-style oracle does the generational hierarchy
close?  For each benchmark, replay the log against:

* the unified pseudo-circular baseline (what the paper improves on),
* the generational best layout (the paper's contribution),
* a unified oracle that evicts the trace with the farthest next use
  (a lower bound on the achievable miss rate for this budget).

``closed`` reports (unified - generational) / (unified - oracle): 1.0
means the generational hierarchy achieved everything clairvoyance
could; 0 means none of it.
"""

from __future__ import annotations

from repro.cachesim.simulator import simulate_log
from repro.core.config import BEST_CONFIG, GenerationalConfig
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.experiments.base import ExperimentResult
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import baseline_capacity
from repro.policies.oracle import OracleCache, access_schedule


def oracle_manager(log, capacity: int) -> UnifiedCacheManager:
    """A unified manager whose single cache is the clairvoyant oracle,
    pre-loaded with the log's access schedule."""
    manager = UnifiedCacheManager(capacity, local_policy="oracle")
    cache = manager.cache
    assert isinstance(cache, OracleCache)
    cache.load_schedule(access_schedule(log))
    return manager


def run(
    dataset: WorkloadDataset | None = None,
    seed: int = 42,
    scale_multiplier: float = 4.0,
    subset: list[str] | None = None,
    config: GenerationalConfig = BEST_CONFIG,
) -> ExperimentResult:
    """Compute the oracle headroom table."""
    if dataset is None:
        subset = subset or ["gzip", "crafty", "art", "word", "iexplore"]
        dataset = WorkloadDataset(
            seed=seed, scale_multiplier=scale_multiplier, subset=subset
        )
    result = ExperimentResult(
        experiment_id="oracle-headroom",
        title="FIFO -> oracle miss-rate gap closed by generational caches",
        columns=[
            "Benchmark", "UnifiedMissPct", "GenerationalMissPct",
            "OracleMissPct", "GapClosedPct",
        ],
    )
    for name in dataset.names:
        compiled = dataset.compiled(name)
        capacity = baseline_capacity(dataset.stats(name).total_trace_bytes)
        unified = simulate_log(compiled, UnifiedCacheManager(capacity))
        generational = simulate_log(
            compiled, GenerationalCacheManager(capacity, config)
        )
        oracle = simulate_log(compiled, oracle_manager(compiled, capacity))
        gap = unified.miss_rate - oracle.miss_rate
        closed = 0.0
        if gap > 0:
            closed = (unified.miss_rate - generational.miss_rate) / gap
        result.add_row(
            Benchmark=name,
            UnifiedMissPct=round(unified.miss_rate * 100, 3),
            GenerationalMissPct=round(generational.miss_rate * 100, 3),
            OracleMissPct=round(oracle.miss_rate * 100, 3),
            GapClosedPct=round(closed * 100, 1),
        )
    result.notes.append(
        "oracle = farthest-next-use eviction with first-fit placement "
        "(greedy Belady approximation; unimplementable online)"
    )
    result.notes.append(dataset.scale_note())
    return result
