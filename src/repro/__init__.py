"""repro: generational code-cache management for dynamic optimizers.

A full reproduction of Hazelwood & Smith, "Generational Cache
Management of Code Traces in Dynamic Optimization Systems"
(MICRO 2003): the trace-log substrate, a log synthesizer calibrated to
the paper's workload characterization, the local and global
cache-management policies, the Table 2 cost model, a 38-benchmark
workload catalog, and one experiment per table/figure of the paper's
evaluation.

Quickstart::

    from repro import (
        GenerationalCacheManager, GenerationalConfig,
        UnifiedCacheManager, simulate_log, synthesize_log, get_profile,
    )

    log = synthesize_log(get_profile("word"), seed=42)
    capacity = log.total_trace_bytes // 2
    unified = simulate_log(log, UnifiedCacheManager(capacity))
    generational = simulate_log(
        log, GenerationalCacheManager(capacity, GenerationalConfig())
    )
    print(unified.miss_rate, generational.miss_rate)
"""

from repro._version import __version__
from repro.analysis import SanitizerHarness
from repro.cachesim import (
    Arena,
    CacheSimulator,
    CacheStats,
    SimulationResult,
    simulate_log,
)
from repro.core import (
    GenerationalCacheManager,
    GenerationalConfig,
    PromotionMode,
    UnifiedCacheManager,
)
from repro.core.config import BEST_CONFIG, FIGURE9_CONFIGS
from repro.errors import InvariantViolation, ReproError
from repro.overhead import CostModel, OverheadAccount, TABLE2_COSTS
from repro.policies import (
    CircularCache,
    CodeCache,
    LRUCache,
    PreemptiveFlushCache,
    PseudoCircularCache,
    UnboundedCache,
)
from repro.tracelog import TraceLog, read_log, write_log
from repro.workloads import (
    WorkloadProfile,
    all_profiles,
    get_profile,
    synthesize_log,
)

__all__ = [
    "Arena",
    "BEST_CONFIG",
    "CacheSimulator",
    "CacheStats",
    "CircularCache",
    "CodeCache",
    "CostModel",
    "FIGURE9_CONFIGS",
    "GenerationalCacheManager",
    "GenerationalConfig",
    "InvariantViolation",
    "LRUCache",
    "OverheadAccount",
    "PreemptiveFlushCache",
    "PromotionMode",
    "PseudoCircularCache",
    "ReproError",
    "SanitizerHarness",
    "SimulationResult",
    "TABLE2_COSTS",
    "TraceLog",
    "UnboundedCache",
    "UnifiedCacheManager",
    "WorkloadProfile",
    "__version__",
    "all_profiles",
    "get_profile",
    "read_log",
    "simulate_log",
    "synthesize_log",
    "write_log",
]
