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

import importlib

from repro._version import __version__

#: Each public name -> the module that defines it.  The root imports
#: none of them up front (PEP 562): a name loads its module on first
#: access, so ``import repro.cli`` or ``import repro.errors`` pays only
#: for what it uses.
_EXPORTS = {
    "Arena": "repro.policies.arena",
    "BEST_CONFIG": "repro.core.config",
    "CacheSimulator": "repro.cachesim.simulator",
    "CacheStats": "repro.cachesim.stats",
    "CircularCache": "repro.policies.circular",
    "CodeCache": "repro.policies.base",
    "CostModel": "repro.overhead.model",
    "FIGURE9_CONFIGS": "repro.core.config",
    "GenerationalCacheManager": "repro.core.generational",
    "GenerationalConfig": "repro.core.config",
    "InvariantViolation": "repro.errors",
    "LRUCache": "repro.policies.lru",
    "OverheadAccount": "repro.overhead.accounting",
    "PreemptiveFlushCache": "repro.policies.flush",
    "PromotionMode": "repro.core.config",
    "PseudoCircularCache": "repro.policies.pseudocircular",
    "ReproError": "repro.errors",
    "SanitizerHarness": "repro.analysis.sanitizer",
    "SimulationResult": "repro.cachesim.stats",
    "TABLE2_COSTS": "repro.overhead.model",
    "TraceLog": "repro.tracelog.records",
    "UnboundedCache": "repro.policies.unbounded",
    "UnifiedCacheManager": "repro.core.unified",
    "WorkloadProfile": "repro.workloads.profiles",
    "all_profiles": "repro.workloads.catalog",
    "get_profile": "repro.workloads.catalog",
    "read_log": "repro.tracelog.reader",
    "simulate_log": "repro.cachesim.simulator",
    "synthesize_log": "repro.workloads.synthesis",
    "write_log": "repro.tracelog.writer",
}

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


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
