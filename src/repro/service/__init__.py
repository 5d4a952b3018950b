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

from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, job_id, spec_from_dict
from repro.service.scheduler import JobRecord, Scheduler, run_jobs
from repro.service.store import ResultStore

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
