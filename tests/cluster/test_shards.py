"""ClusterScheduler tests: routing equivalence, admission wiring,
drain/restore, and the no-dropped-jobs overload contract.

Mechanics tests run over injected echo/slow workers; the equivalence
test at the bottom runs real sweep-point jobs so "byte-identical
across shard counts" is checked on actual simulation payloads.
"""

from __future__ import annotations

import functools
import multiprocessing
import time

import pytest

from repro.cluster.admission import AdmissionController
from repro.cluster.shards import ClusterScheduler, shard_names
from repro.cluster.store_tier import TieredResultStore
from repro.errors import (
    ConfigError,
    JobNotFoundError,
    OverloadedError,
    ServiceError,
    ShardError,
)
from repro.service.jobs import JobSpec, job_id
from repro.service.scheduler import DONE, TERMINAL_STATES
from repro.service.store import ResultStore
from tests.service.test_scheduler import echo_worker

SPEC = JobSpec(kind="experiment", experiment_id="figure-1")


def _spec(n: int) -> JobSpec:
    return JobSpec(kind="experiment", experiment_id="figure-1", seed=n)


def slow_worker(slot: int, tasks, events) -> None:
    """Takes ~50ms per job, so queues observably build up."""
    import time as _time

    while True:
        item = tasks.get()
        if item is None:
            return
        jid, spec = item
        _time.sleep(0.05)
        events.put(("done", jid, {"echo": spec["experiment_id"]}))


def gated_worker(gate, slot: int, tasks, events) -> None:
    """Holds every job it takes until *gate* is set, so a running job
    stays running for as long as the test needs."""
    while True:
        item = tasks.get()
        if item is None:
            return
        jid, spec = item
        gate.wait()
        events.put(("done", jid, {"echo": spec["experiment_id"]}))


def test_shard_names_validation():
    assert shard_names(2) == ["shard-0", "shard-1"]
    with pytest.raises(ConfigError, match="shard count"):
        shard_names(0)


def test_submit_before_start_rejected():
    cluster = ClusterScheduler(shards=2, worker_target=echo_worker)
    with pytest.raises(ServiceError, match="not started"):
        cluster.submit(SPEC)


class TestRoutingAndQueries:
    def test_jobs_land_on_their_ring_shard(self):
        with ClusterScheduler(shards=3, worker_target=echo_worker) as cluster:
            specs = [_spec(n) for n in range(12)]
            records = [cluster.submit(spec) for spec in specs]
            assert cluster.wait(timeout=30)
            for spec, record in zip(specs, records):
                owner = cluster.ring.route(record.job_id)
                shard = cluster._shards[owner]
                assert shard.status(record.job_id).state == DONE
            # Queries route back to the owner transparently.
            for record in records:
                assert cluster.status_dict(record.job_id)["state"] == DONE
                assert cluster.result(record.job_id)["echo"] == "figure-1"

    def test_unknown_job_404s_via_canonical_owner(self):
        with ClusterScheduler(shards=2, worker_target=echo_worker) as cluster:
            with pytest.raises(JobNotFoundError):
                cluster.status_dict("j" + "0" * 31)

    def test_metrics_shape(self):
        store = TieredResultStore()
        with ClusterScheduler(
            shards=2,
            store=store,
            admission=AdmissionController(watermark=16),
            worker_target=echo_worker,
        ) as cluster:
            cluster.submit(SPEC)
            assert cluster.wait(timeout=30)
            metrics = cluster.metrics_dict()
            assert set(metrics["shards"]) == {"shard-0", "shard-1"}
            for shard in metrics["shards"].values():
                assert "queue_depth" in shard
                assert shard["ring_state"] == "live"
            assert metrics["cluster"]["shard_count"] == 2
            assert metrics["cluster"]["live_shards"] == ["shard-0", "shard-1"]
            assert metrics["cluster"]["jobs_completed"] == 1
            assert metrics["admission"]["accepted"] == 1
            assert "nursery_hits" in metrics["store"]

    def test_run_convenience(self):
        with ClusterScheduler(shards=2, worker_target=echo_worker) as cluster:
            payloads = cluster.run([_spec(1), _spec(2)])
            assert [p["echo"] for p in payloads] == ["figure-1", "figure-1"]


class TestDrainAndRestore:
    def test_drained_shard_receives_nothing_new(self):
        with ClusterScheduler(shards=2, worker_target=echo_worker) as cluster:
            assert cluster.drain_shard("shard-0", timeout=10)
            assert cluster.ring.live_shards() == ("shard-1",)
            records = [cluster.submit(_spec(n)) for n in range(8)]
            assert cluster.wait(timeout=30)
            for record in records:
                assert cluster.ring.route(record.job_id) == "shard-1"
            cluster.restore_shard("shard-0")
            assert cluster.ring.live_shards() == ("shard-0", "shard-1")

    def test_all_drained_is_shard_error(self):
        with ClusterScheduler(shards=1, worker_target=echo_worker) as cluster:
            cluster.drain_shard("shard-0", timeout=10)
            with pytest.raises(ShardError, match="no live shard"):
                cluster.submit(SPEC)

    def test_cluster_drain_pauses_admission(self):
        with ClusterScheduler(shards=2, worker_target=echo_worker) as cluster:
            cluster.submit(SPEC)
            assert cluster.drain(timeout=30)
            from repro.errors import DrainingError

            with pytest.raises(DrainingError):
                cluster.submit(_spec(99))


class TestOverloadContract:
    def test_shed_is_429_shaped_and_no_accepted_job_is_dropped(self):
        # Watermark 4 over two worker slots.  Gated workers hold one job
        # on each shard, so every later job waits in a queue and each
        # state below is exact, not a race against dispatch.
        gate = multiprocessing.Event()
        admission = AdmissionController(watermark=4)
        with ClusterScheduler(
            shards=2,
            admission=admission,
            worker_target=functools.partial(gated_worker, gate),
        ) as cluster:
            accepted: list[str] = []
            numbers = iter(range(1000))

            def submit(tenant: str, n: int | None = None) -> None:
                spec = _spec(next(numbers) if n is None else n)
                accepted.append(cluster.submit(spec, tenant=tenant).job_id)

            def shed(tenant: str) -> str:
                with pytest.raises(OverloadedError) as info:
                    cluster.submit(_spec(next(numbers)), tenant=tenant)
                assert info.value.retry_after > 0
                return info.value.reason

            try:
                # Tenant t's first job on each shard takes its slot.
                first: dict[str, int] = {}
                for n in numbers:
                    first.setdefault(cluster.ring.route(job_id(_spec(n))), n)
                    if len(first) == 2:
                        break
                for n in first.values():
                    submit("t", n)
                deadline = time.monotonic() + 10
                while any(
                    cluster.status_dict(jid)["state"] != "running"
                    for jid in accepted
                ):
                    assert time.monotonic() < deadline, "slots never filled"
                    time.sleep(0.01)
                # Alone, t may fill the whole in-flight budget: two
                # jobs wait.
                submit("t")
                submit("t")
                assert cluster.queue_depth() == 2
                # t is at its share with the queue below the
                # watermark: the fair-share gate.
                assert [shed("t") for _ in range(3)] == ["fair-share"] * 3
                # Tenant u's share is free: two more jobs wait, and the
                # queue reaches the watermark.
                submit("u")
                submit("u")
                assert cluster.queue_depth() == 4
                # Now every submission, from either tenant, sheds at the
                # queue gate.
                assert [shed(tenant) for tenant in "tutu"] == ["queue"] * 4
            finally:
                gate.set()
            # The drain must terminate (no deadlock) and every accepted
            # job must reach a terminal state (none dropped).
            assert cluster.wait(timeout=60)
            for jid in accepted:
                state = cluster.status_dict(jid)["state"]
                assert state in TERMINAL_STATES
            # Exactly-once slot accounting: nothing left in flight.
            counters = admission.counters()
            assert counters["tenants"]["t"]["inflight"] == 0
            assert counters["tenants"]["u"]["inflight"] == 0
            assert counters["accepted"] == len(accepted) == 6
            assert counters["shed_by_reason"] == {
                "queue": 4,
                "rate": 0,
                "fair-share": 3,
            }

    def test_terminal_dedup_releases_admission_slot(self):
        admission = AdmissionController(watermark=64)
        store = TieredResultStore()
        with ClusterScheduler(
            shards=2,
            store=store,
            admission=admission,
            completed_retention=1,
            worker_target=echo_worker,
        ) as cluster:
            cluster.submit(SPEC, tenant="t")
            assert cluster.wait(timeout=30)
            # Resubmit: served terminally (record or store) with no
            # completion event coming; the slot must still be released.
            cluster.submit(SPEC, tenant="t")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if admission.counters()["tenants"]["t"]["inflight"] == 0:
                    break
                time.sleep(0.01)
            assert admission.counters()["tenants"]["t"]["inflight"] == 0


class TestRetentionAndStore:
    def test_evicted_completions_resolve_through_the_tiered_store(self):
        store = TieredResultStore()
        with ClusterScheduler(
            shards=1,
            store=store,
            completed_retention=1,
            worker_target=echo_worker,
        ) as cluster:
            specs = [_spec(n) for n in range(4)]
            for spec in specs:
                cluster.submit(spec)
            assert cluster.wait(timeout=30)
            # Only the newest terminal record survives per shard; the
            # rest must come back as store-served cache hits.
            before = store.counters()["hot_hits"]
            record = cluster.submit(specs[0])
            assert record.state == DONE
            assert record.cached
            assert store.counters()["hot_hits"] > before

    def test_result_of_an_evicted_completion_comes_from_the_store(self):
        with ClusterScheduler(
            shards=1,
            store=TieredResultStore(),
            completed_retention=1,
            worker_target=echo_worker,
        ) as cluster:
            records = [cluster.submit(_spec(n)) for n in range(4)]
            assert cluster.wait(timeout=30)
            first = records[0].job_id
            # Retention dropped the record, not the result.
            with pytest.raises(JobNotFoundError):
                cluster.status_dict(first)
            assert cluster.result(first)["echo"] == "figure-1"
            with pytest.raises(JobNotFoundError):
                cluster.result("j" + "0" * 31)


class TestShardEquivalence:
    def test_one_and_three_shard_results_byte_identical(self, tmp_path):
        # Real sweep-point simulations, tiny via the scale divisor; the
        # payloads written through the tiered store to disk must be
        # byte-for-byte identical however many shards computed them.
        specs = [
            JobSpec(
                kind="sweep-point",
                benchmark=benchmark,
                seed=7,
                scale_multiplier=512.0,
                manager=manager,
                **(
                    {}
                    if manager == "unified"
                    else {
                        "nursery": 0.1,
                        "probation": 0.3,
                        "persistent": 0.6,
                        "threshold": 2,
                    }
                ),
            )
            for benchmark in ("gzip", "word")
            for manager in ("unified", "generational")
        ]
        blobs: dict[int, dict[str, bytes]] = {}
        for count in (1, 3):
            disk = ResultStore(tmp_path / f"store-{count}")
            with ClusterScheduler(
                shards=count, store=TieredResultStore(disk)
            ) as cluster:
                cluster.run(specs)
            blobs[count] = {
                jid: disk.path_for(jid).read_bytes()
                for jid in disk.job_ids()
            }
        assert set(blobs[1]) == {job_id(spec) for spec in specs}
        assert blobs[1] == blobs[3]
