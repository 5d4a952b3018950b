"""The shared evaluation pass behind Figures 9, 10 and 11.

For each benchmark: size the unified baseline at ``0.5 * maxCache``
(Section 6), replay the log against it and against each generational
layout of the same total size, with the Table 2 cost model attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachesim.simulator import simulate_log
from repro.cachesim.stats import SimulationResult
from repro.core.config import FIGURE9_CONFIGS, GenerationalConfig
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.experiments.dataset import WorkloadDataset
from repro.metrics.missrates import miss_rate_reduction, misses_eliminated
from repro.overhead.accounting import overhead_ratio
from repro.overhead.model import CostModel, TABLE2_COSTS

#: The paper's baseline sizing rule: half of the unbounded cache size.
BASELINE_CAPACITY_FRACTION = 0.5


@dataclass
class BenchmarkEvaluation:
    """All simulation results for one benchmark.

    Attributes:
        benchmark: Benchmark name.
        suite: ``"spec"`` or ``"interactive"``.
        capacity: Total cache budget used (bytes).
        unified: Baseline result.
        generational: Results keyed by config label.
        configs: The config behind each label of :attr:`generational`.
    """

    benchmark: str
    suite: str
    capacity: int
    unified: SimulationResult
    generational: dict[str, SimulationResult] = field(default_factory=dict)
    configs: dict[str, GenerationalConfig] = field(default_factory=dict)

    def reduction(self, label: str) -> float:
        """Figure 9's metric for one config (fraction)."""
        return miss_rate_reduction(self.unified, self.generational[label])

    def eliminated(self, label: str) -> int:
        """Figure 10's metric for one config."""
        return misses_eliminated(self.unified, self.generational[label])

    def ratio(self, label: str) -> float:
        """Figure 11's Equation 3 metric for one config."""
        candidate = self.generational[label].overhead_instructions
        baseline = self.unified.overhead_instructions
        assert candidate is not None and baseline is not None
        return overhead_ratio(candidate, baseline)


def baseline_capacity(max_cache_bytes: int) -> int:
    """The unified baseline size for a benchmark: 0.5 * maxCache,
    never below a small floor so tiny logs stay simulable."""
    return max(4096, int(max_cache_bytes * BASELINE_CAPACITY_FRACTION))


def evaluate_benchmark(
    dataset: WorkloadDataset,
    name: str,
    configs: tuple[GenerationalConfig, ...] = FIGURE9_CONFIGS,
    cost_model: CostModel = TABLE2_COSTS,
) -> BenchmarkEvaluation:
    """Run the unified baseline and every generational config over one
    benchmark's log."""
    log = dataset.compiled(name)
    capacity = baseline_capacity(dataset.stats(name).total_trace_bytes)
    unified = simulate_log(log, UnifiedCacheManager(capacity), cost_model)
    evaluation = BenchmarkEvaluation(
        benchmark=name,
        suite=dataset.profile(name).suite,
        capacity=capacity,
        unified=unified,
    )
    for config in configs:
        manager = GenerationalCacheManager(capacity, config)
        evaluation.generational[config.label()] = simulate_log(
            log, manager, cost_model
        )
        evaluation.configs[config.label()] = config
    return evaluation


def run_evaluation(
    dataset: WorkloadDataset,
    configs: tuple[GenerationalConfig, ...] = FIGURE9_CONFIGS,
    cost_model: CostModel = TABLE2_COSTS,
) -> dict[str, BenchmarkEvaluation]:
    """Evaluate every benchmark in *dataset*; keyed by name."""
    return {
        name: evaluate_benchmark(dataset, name, configs, cost_model)
        for name in dataset.names
    }
