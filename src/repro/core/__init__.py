"""Global code-cache management — the paper's contribution (Section 5).

A *global* policy decides how multiple code caches interact.  The
baseline is a single unified cache; the contribution is the
generational manager: a nursery for new traces, a probation cache that
filters the dead from the live, and a persistent cache for traces that
proved themselves.
"""

from __future__ import annotations

import importlib

#: Each public name -> its module, imported on first access (PEP 562),
#: so a module that needs only the configuration (the service's job
#: specs) does not load the managers and the local policies.
_EXPORTS = {
    "AccessOutcome": "repro.core.manager",
    "CacheManager": "repro.core.manager",
    "Effect": "repro.core.manager",
    "Evicted": "repro.core.manager",
    "EvictionReason": "repro.core.manager",
    "GenerationalCacheManager": "repro.core.generational",
    "GenerationalConfig": "repro.core.config",
    "Inserted": "repro.core.manager",
    "Promoted": "repro.core.manager",
    "PromotionMode": "repro.core.config",
    "UnifiedCacheManager": "repro.core.unified",
}

__all__ = [
    "AccessOutcome",
    "CacheManager",
    "Effect",
    "Evicted",
    "EvictionReason",
    "GenerationalCacheManager",
    "GenerationalConfig",
    "Inserted",
    "Promoted",
    "PromotionMode",
    "UnifiedCacheManager",
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
