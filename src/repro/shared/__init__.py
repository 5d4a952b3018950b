"""Cross-process shared code caches (ShareJIT-style extension).

The paper models one process owning one cache hierarchy.  This package
extends the reproduction to multi-tenant scenarios: N processes replay
concurrently (deterministically interleaved by :mod:`repro.sim.interleave`)
against per-process nursery/probation generations backed by one
reference-counted :class:`~repro.shared.cache.SharedPersistentCache`.
Trace identity is content-addressed (:class:`~repro.shared.identity.TraceKey`),
so structurally identical traces generated by different processes
intern to one shared copy — the footprint/compilation savings ShareJIT
(Xu et al., 2018) reports for Android JIT caches.  An optional
TRRIP-style reuse-temperature signal (Kao et al., 2025) can replace the
paper's fixed promotion threshold.

See ``docs/shared.md`` for the sharing model and invalidation
semantics.
"""

from __future__ import annotations

import importlib

#: Each public name -> its module, imported on first access (PEP 562),
#: so a module that needs only the sharing policies (the service's job
#: specs) does not load the group managers and simulators.
_EXPORTS = {
    "InsertOutcome": "repro.shared.manager",
    "MIX_KINDS": "repro.shared.policy",
    "SHARED_PERSISTENT": "repro.shared.cache",
    "MultiProcessSimulator": "repro.shared.simulator",
    "POLICY_VARIANTS": "repro.shared.policy",
    "ProcessWorkload": "repro.shared.compose",
    "SharedCacheGroup": "repro.shared.manager",
    "SharedPersistentCache": "repro.shared.cache",
    "SharedSimulationResult": "repro.shared.simulator",
    "SharingConfig": "repro.shared.policy",
    "SharingPolicy": "repro.shared.policy",
    "TemperatureTracker": "repro.shared.policy",
    "TraceInterner": "repro.shared.identity",
    "TraceKey": "repro.shared.identity",
    "compose_specs": "repro.shared.compose",
    "make_group": "repro.shared.manager",
    "sharing_config_for": "repro.shared.policy",
}

__all__ = [
    "InsertOutcome",
    "MIX_KINDS",
    "SHARED_PERSISTENT",
    "MultiProcessSimulator",
    "POLICY_VARIANTS",
    "ProcessWorkload",
    "SharedCacheGroup",
    "SharedPersistentCache",
    "SharedSimulationResult",
    "SharingConfig",
    "SharingPolicy",
    "TemperatureTracker",
    "TraceInterner",
    "TraceKey",
    "compose_specs",
    "make_group",
    "sharing_config_for",
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
