"""repro.service — the concurrent simulation service.

Turns the one-shot simulator into a schedulable, cacheable, observable
service: content-addressed jobs (:mod:`repro.service.jobs`), a
multiprocessing scheduler with timeouts and retries
(:mod:`repro.service.scheduler`), a disk result store
(:mod:`repro.service.store`) and the HTTP client
(:mod:`repro.service.client`).  The HTTP front end is
:mod:`repro.cluster.http`, which ``serve`` runs at one shard.

This package is also the repository's only sanctioned home for
concurrency primitives — the ``no-raw-concurrency`` cachelint rule
keeps ``multiprocessing``/``threading`` imports confined here so the
simulation core stays single-threaded and deterministic.
"""

from __future__ import annotations

import importlib

#: Each public name -> its module, imported on first access (PEP 562),
#: so a module that needs only the job specs does not load the HTTP
#: client or the multiprocessing scheduler.
_EXPORTS = {
    "JobRecord": "repro.service.scheduler",
    "JobSpec": "repro.service.jobs",
    "ResultStore": "repro.service.store",
    "Scheduler": "repro.service.scheduler",
    "ServiceClient": "repro.service.client",
    "job_id": "repro.service.jobs",
    "run_jobs": "repro.service.scheduler",
    "spec_from_dict": "repro.service.jobs",
}

__all__ = [
    "JobRecord",
    "JobSpec",
    "ResultStore",
    "Scheduler",
    "ServiceClient",
    "job_id",
    "run_jobs",
    "spec_from_dict",
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
