"""The sharded cluster scheduler.

:class:`ClusterScheduler` runs N independent
:class:`~repro.service.scheduler.Scheduler` shards — each with its own
worker pool, bounded queue and retry machinery — behind one facade:

* **Routing.**  Every :class:`~repro.service.jobs.JobSpec` is addressed
  by its deterministic content hash and routed to exactly one shard by
  the rendezvous :class:`~repro.cluster.ring.ShardRing`.  Because job
  ids are content-addressed and placement is a pure function of
  ``(live shards, job id)``, a spec lands on the same shard on every
  host and every run — which is what makes 1-shard and N-shard runs
  byte-identical.
* **Admission.**  Submissions pass through the
  :class:`~repro.cluster.admission.AdmissionController` first; sheds
  raise :class:`~repro.errors.OverloadedError` before touching any
  shard.  In-flight accounting is released by the collector when the
  job reaches a terminal state, so fairness tracks real occupancy.
* **Event collection.**  Each shard gets a *cluster collector thread*:
  the shard scheduler's listener hook enqueues terminal transitions
  into a per-shard queue, and the collector drains it, releases the
  admission slots of every waiter of that job, and publishes the event
  to the :class:`~repro.cluster.events.EventBus` for streaming
  subscribers.
* **Shared store.**  Shards share one result store (typically a
  :class:`~repro.cluster.store_tier.TieredResultStore`), so a result
  computed on one shard is a cache hit on every shard.
"""

from __future__ import annotations

import collections
import queue as queue_module
import threading

from repro.cluster.admission import AdmissionController
from repro.cluster.events import EventBus
from repro.cluster.ring import ShardRing
from repro.errors import (
    ConfigError,
    JobNotFoundError,
    OverloadedError,
    ServiceError,
)
from repro.service.jobs import JobSpec, job_id as compute_job_id
from repro.service.scheduler import (
    DONE,
    TERMINAL_STATES,
    JobRecord,
    Scheduler,
)
from repro.service.store import ResultStoreBase


#: Bound on the job-id -> owning-shard index (ids past it fall back
#: to ring placement, which is identical while membership is stable).
OWNER_INDEX_LIMIT = 8192

#: Default per-shard bound on retained terminal job records.  Cluster
#: shards are long-running, so the job table must not grow without
#: limit; evicted records resolve through the shared (tiered) store.
DEFAULT_RETENTION = 1024


def shard_names(count: int) -> list[str]:
    """Canonical shard names for a *count*-shard cluster."""
    if count < 1:
        raise ConfigError(f"shard count must be >= 1, got {count}")
    return [f"shard-{index}" for index in range(count)]


class ClusterScheduler:
    """N scheduler shards behind consistent-hash routing.

    Args:
        shards: Shard count, or explicit shard names.
        workers_per_shard: Worker processes per shard.
        store: Shared result store (all shards memoize through it).
        admission: Admission controller; None admits everything.
        bus: Event bus terminal transitions are published to.
        completed_retention: Per-shard bound on retained terminal job
            records (see :class:`~repro.service.scheduler.Scheduler`).
        scheduler_kwargs: Passed through to every shard
            :class:`~repro.service.scheduler.Scheduler`.
    """

    def __init__(
        self,
        shards: int | list[str] = 2,
        workers_per_shard: int = 1,
        store: ResultStoreBase | None = None,
        admission: AdmissionController | None = None,
        bus: EventBus | None = None,
        completed_retention: int | None = DEFAULT_RETENTION,
        **scheduler_kwargs,
    ) -> None:
        names = (
            shard_names(shards) if isinstance(shards, int) else list(shards)
        )
        self.ring = ShardRing(names)
        self.store = store
        self.admission = admission
        self.bus = bus
        self._shards: dict[str, Scheduler] = {
            name: Scheduler(
                workers=workers_per_shard,
                store=store,
                completed_retention=completed_retention,
                **scheduler_kwargs,
            )
            for name in names
        }
        self._lock = threading.Lock()
        # job_id -> tenants holding an admission slot for that job;
        # popped exactly once (collector or submit-side fast path).
        self._waiters: dict[str, list[str]] = {}
        # job_id -> owning shard at submission time, for status
        # routing; LRU-bounded like the shard job tables.
        self._owner: collections.OrderedDict[str, str] = (
            collections.OrderedDict()
        )
        self._queues: dict[str, queue_module.Queue] = {}
        self._threads: list[threading.Thread] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ClusterScheduler":
        """Start every shard pool and its cluster collector thread."""
        if self._started:
            return self
        self._started = True
        for name, scheduler in self._shards.items():
            scheduler.start()
            events: queue_module.Queue = queue_module.Queue()
            self._queues[name] = events
            # The listener closure runs on the shard's bookkeeping
            # threads; it only enqueues, keeping shard dispatch fast.
            scheduler.add_listener(
                lambda job_id, state, cached, _q=events: _q.put(
                    (job_id, state, cached)
                )
            )
            thread = threading.Thread(
                target=self._collector_loop,
                args=(name, events),
                name=f"repro-cluster-collector-{name}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, grace: float = 5.0) -> None:
        """Shut down every shard, stop collectors, close the bus."""
        if not self._started:
            return
        for scheduler in self._shards.values():
            scheduler.shutdown(grace=grace)
        for events in self._queues.values():
            events.put(None)
        for thread in self._threads:
            thread.join(timeout=grace)
        if self.bus is not None:
            self.bus.close()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting on every shard and wait for in-flight jobs
        (graceful-shutdown half; the pools stay queryable)."""
        drained = True
        for scheduler in self._shards.values():
            scheduler.pause_admission()
        for scheduler in self._shards.values():
            drained = scheduler.drain(timeout=timeout) and drained
        return drained

    def __enter__(self) -> "ClusterScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Shard health
    # ------------------------------------------------------------------

    def drain_shard(
        self, shard: str, timeout: float | None = None
    ) -> bool:
        """Take *shard* out of routing and wait out its in-flight jobs.

        Keys it owned re-route deterministically to the surviving live
        shards on their next submission; every other key's placement is
        untouched.
        """
        self.ring.drain(shard)
        return self._shards[shard].drain(timeout=timeout)

    def restore_shard(self, shard: str) -> None:
        """Return *shard* to routing and re-open its admission."""
        self.ring.restore(shard)
        self._shards[shard].resume_admission()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, tenant: str = "default") -> JobRecord:
        """Admit, route and submit one job.

        Raises:
            OverloadedError: shed by admission control (the caller maps
                this to HTTP 429 + Retry-After).
            ConfigError: invalid spec.
            ShardError: every shard is drained.
            JobQueueFullError / DrainingError: from the owning shard.
        """
        if not self._started:
            raise ServiceError("cluster scheduler is not started")
        spec.validate()
        jid = compute_job_id(spec)
        if self.admission is not None:
            decision = self.admission.admit(
                tenant, queue_depth=self.queue_depth()
            )
            if not decision.accepted:
                raise OverloadedError(
                    f"cluster overloaded ({decision.reason}); retry after "
                    f"{decision.retry_after:.3g}s",
                    retry_after=decision.retry_after,
                    reason=decision.reason,
                )
        # Register the admission waiter BEFORE the shard can fire the
        # terminal event, so the collector never races past it.
        if self.admission is not None:
            with self._lock:
                self._waiters.setdefault(jid, []).append(tenant)
        shard = self.ring.route(jid)
        try:
            record = self._shards[shard].submit(spec)
        except Exception:
            if self.admission is not None:
                if self._pop_waiter(jid, tenant):
                    self.admission.release(tenant)
            raise
        with self._lock:
            self._owner[jid] = shard
            self._owner.move_to_end(jid)
            while len(self._owner) > OWNER_INDEX_LIMIT:
                self._owner.popitem(last=False)
        # Snapshot under the owning shard's lock — its collector and
        # monitor threads mutate the record concurrently.
        state = self._shards[shard].record_dict(record)["state"]
        if state in TERMINAL_STATES and self.admission is not None:
            # Deduplicated onto an already-terminal record: no event is
            # coming.  Pop-and-release is atomic with the collector's
            # pop-all, so the slot is released exactly once even when a
            # late event for this id is still in a collector queue.
            if self._pop_waiter(jid, tenant):
                self.admission.release(tenant)
        return record

    def _pop_waiter(self, jid: str, tenant: str) -> bool:
        with self._lock:
            tenants = self._waiters.get(jid)
            if not tenants or tenant not in tenants:
                return False
            tenants.remove(tenant)
            if not tenants:
                del self._waiters[jid]
            return True

    def _pop_all_waiters(self, jid: str) -> list[str]:
        with self._lock:
            return self._waiters.pop(jid, [])

    # ------------------------------------------------------------------
    # Query API (routed to the owning shard)
    # ------------------------------------------------------------------

    def _owner_of(self, job_id: str) -> Scheduler:
        with self._lock:
            shard = self._owner.get(job_id)
        if shard is not None:
            return self._shards[shard]
        # Unknown to this facade: ask the ring's canonical owner so a
        # status probe for a never-submitted id still 404s in one place.
        return self._shards[self.ring.route(job_id)]

    def status_dict(self, job_id: str) -> dict:
        """JSON status from the owning shard (JobNotFoundError when the
        id was never submitted)."""
        return self._owner_of(job_id).status_dict(job_id)

    def record_status(self, record: JobRecord) -> dict:
        """JSON snapshot of a record :meth:`submit` just returned.

        Goes by the record itself, not its id, so the snapshot survives
        the record racing out of its shard's bounded terminal table.
        """
        return self._owner_of(record.job_id).record_dict(record)

    def result(self, job_id: str) -> dict:
        """Completed payload from the owning shard.

        A completed record can age out of its shard's bounded terminal
        table (``completed_retention``) before its result is fetched;
        the payload is still in the shared store, so an id the shard
        no longer knows is looked up there before it 404s.
        """
        try:
            return self._owner_of(job_id).result(job_id)
        except JobNotFoundError:
            payload = self.store.get(job_id) if self.store is not None else None
            if payload is None:
                raise
            return payload

    def wait(
        self, job_ids: list[str] | None = None, timeout: float | None = None
    ) -> bool:
        """Block until the listed jobs (default: everything on every
        shard) are terminal; False on timeout."""
        if job_ids is None:
            done = True
            for scheduler in self._shards.values():
                done = scheduler.wait(timeout=timeout) and done
            return done
        by_shard: dict[str, list[str]] = {}
        with self._lock:
            for jid in job_ids:
                shard = self._owner.get(jid)
                if shard is not None:
                    by_shard.setdefault(shard, []).append(jid)
        done = True
        for shard, ids in by_shard.items():
            done = self._shards[shard].wait(ids, timeout=timeout) and done
        return done

    def run(self, specs: list[JobSpec], tenant: str = "default") -> list[dict]:
        """Submit *specs*, wait, and return payloads in spec order.

        The synchronous convenience the equivalence tests and the CLI
        use; failures raise :class:`~repro.errors.ServiceError`.
        """
        records = [self.submit(spec, tenant=tenant) for spec in specs]
        self.wait([record.job_id for record in records])
        payloads = []
        failures = []
        for record in records:
            status = self.status_dict(record.job_id)
            if status["state"] == DONE:
                payloads.append(self.result(record.job_id))
            else:
                failures.append(f"{record.job_id}: {status['error']}")
        if failures:
            raise ServiceError(
                f"{len(failures)} job(s) failed: " + "; ".join(failures)
            )
        return payloads

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Cluster-wide admitted-but-not-running job count (what the
        admission watermark is compared against)."""
        return sum(
            scheduler.queue_depth() for scheduler in self._shards.values()
        )

    def metrics_dict(self) -> dict:
        """The cluster ``/metrics`` document: per-shard scheduler
        metrics (including each shard's queue depth and ring state),
        cluster totals, admission counters and tiered-store counters."""
        shards = {}
        totals = {
            "queue_depth": 0,
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "cache_hits": 0,
        }
        for name, scheduler in self._shards.items():
            metrics = scheduler.metrics_dict()
            metrics["ring_state"] = self.ring.state(name)
            shards[name] = metrics
            for key in totals:
                totals[key] += metrics[key]
        document = {
            "shards": shards,
            "cluster": {
                **totals,
                "shard_count": len(self._shards),
                "live_shards": list(self.ring.live_shards()),
            },
        }
        if self.admission is not None:
            document["admission"] = self.admission.counters()
        counters = getattr(self.store, "counters", None)
        if callable(counters):
            document["store"] = counters()
        return document

    # ------------------------------------------------------------------
    # Cluster collector threads
    # ------------------------------------------------------------------

    def _collector_loop(
        self, shard: str, events: queue_module.Queue
    ) -> None:
        """Drain one shard's terminal transitions: release the job's
        admission waiters, then publish to the event bus."""
        while True:
            item = events.get()
            if item is None:
                return
            job_id, state, cached = item
            if self.admission is not None:
                for tenant in self._pop_all_waiters(job_id):
                    self.admission.release(tenant)
            if self.bus is not None:
                self.bus.publish(job_id, state, cached)
