"""Cluster HTTP front end tests: JSON API, SSE streams, 429 shedding.

Runs the real asyncio server on a free port with echo/slow workers and
drives it through the hardened ServiceClient.
"""

from __future__ import annotations

import functools
import http.client
import json
import multiprocessing
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.admission import AdmissionController
from repro.cluster.events import EventBus
from repro.cluster.http import ClusterServer, make_cluster_server
from repro.cluster.shards import ClusterScheduler
from repro.cluster.store_tier import TieredResultStore
from repro.errors import ConfigError, OverloadedError, ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, job_id
from repro.service.store import ResultStore
from tests.cluster.test_shards import gated_worker, slow_worker
from tests.service.test_scheduler import echo_worker

SPEC = JobSpec(kind="experiment", experiment_id="figure-1")


def _spec(n: int) -> JobSpec:
    return JobSpec(kind="experiment", experiment_id="figure-1", seed=n)


def _wait_running(client: ServiceClient, job_id: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while client.status(job_id)["state"] != "running":
        assert time.monotonic() < deadline, "job never started running"
        time.sleep(0.01)


@pytest.fixture
def service(tmp_path):
    """A live 2-shard cluster server; yields (client, cluster)."""
    store = TieredResultStore()
    cluster = ClusterScheduler(
        shards=2,
        store=store,
        admission=AdmissionController(watermark=64),
        bus=EventBus(),
        worker_target=echo_worker,
    )
    cluster.start()
    server = ClusterServer(cluster, port=0)
    host, port = server.start()
    client = ServiceClient(f"http://{host}:{port}", tenant="tester")
    try:
        yield client, cluster
    finally:
        client.close()
        server.stop()
        cluster.shutdown()


class TestEndpoints:
    def test_healthz(self, service):
        client, _ = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["shards"]) == {"shard-0", "shard-1"}

    def test_submit_and_result_round_trip(self, service):
        client, _ = service
        status = client.submit(SPEC)
        assert status["job_id"] == job_id(SPEC)
        status = client.wait(status["job_id"], timeout=30)
        assert status["state"] == "done"
        payload = client.result(status["job_id"])
        assert payload["echo"] == "figure-1"

    def test_metrics_exposes_shards_admission_store(self, service):
        client, _ = service
        client.submit_and_wait(SPEC, timeout=30)
        metrics = client.metrics()
        for shard in metrics["shards"].values():
            assert "queue_depth" in shard
            assert shard["ring_state"] == "live"
        assert metrics["admission"]["accepted"] >= 1
        assert "nursery_insertions" in metrics["store"]
        assert metrics["cluster"]["jobs_completed"] >= 1

    def test_invalid_spec_is_400(self, service):
        client, _ = service
        with pytest.raises(ConfigError, match="HTTP 400"):
            client.submit({"kind": "experiment"})

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.status("j" + "0" * 31)

    def test_restart_serves_from_disk_store(self, tmp_path):
        # A fresh server over the same disk tier answers a repeated
        # submission from it, the way a restarted `serve` does.
        for cached in (False, True):
            cluster = ClusterScheduler(
                shards=1,
                store=TieredResultStore(ResultStore(tmp_path / "store")),
                worker_target=echo_worker,
            )
            cluster.start()
            server = make_cluster_server(cluster, port=0)
            host, port = server.address
            try:
                with ServiceClient(f"http://{host}:{port}") as client:
                    status, payload = client.submit_and_wait(SPEC, timeout=30)
                    assert status["cached"] is cached
                    assert payload["echo"] == "figure-1"
                    counters = client.metrics()["cluster"]
                    assert counters["cache_hits"] == int(cached)
                    assert counters["jobs_completed"] == int(not cached)
            finally:
                server.stop()
                cluster.shutdown()

    def test_unfinished_result_is_409(self, tmp_path):
        cluster = ClusterScheduler(shards=1, worker_target=slow_worker)
        cluster.start()
        server = make_cluster_server(cluster, port=0)
        host, port = server.address
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                status = client.submit(SPEC)
                with pytest.raises(ServiceError, match="HTTP 409"):
                    client.result(status["job_id"])
        finally:
            server.stop()
            cluster.shutdown()

    def test_result_survives_record_retention(self):
        cluster = ClusterScheduler(
            shards=1,
            store=TieredResultStore(),
            completed_retention=1,
            worker_target=echo_worker,
        )
        cluster.start()
        server = make_cluster_server(cluster, port=0)
        host, port = server.address
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                ids = [client.submit(_spec(n))["job_id"] for n in range(4)]
                assert cluster.wait(timeout=30)
                with pytest.raises(ServiceError, match="HTTP 404"):
                    client.status(ids[0])
                assert client.result(ids[0])["echo"] == "figure-1"
                with pytest.raises(ServiceError, match="HTTP 404"):
                    client.result("j" + "0" * 31)
        finally:
            server.stop()
            cluster.shutdown()

    def test_unknown_endpoint_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            client._request("GET", "/nope")

    def test_connection_reuse_across_requests(self, service):
        client, _ = service
        client.healthz()
        first = client._conn
        client.metrics()
        assert client._conn is first


class TestOverload:
    def test_shed_is_429_with_retry_after(self, tmp_path):
        # Watermark 1: one tenant owns the whole in-flight budget, and a
        # single waiting job fills the queue.  The gated worker holds
        # the first job, so each state below is exact, not a race
        # against dispatch.
        gate = multiprocessing.Event()
        cluster = ClusterScheduler(
            shards=1,
            admission=AdmissionController(watermark=1),
            worker_target=functools.partial(gated_worker, gate),
        )
        cluster.start()
        server = make_cluster_server(cluster, port=0)
        host, port = server.address
        url = f"http://{host}:{port}"
        try:
            with ServiceClient(url, tenant="t") as client, ServiceClient(
                url, tenant="u"
            ) as other:
                held = client.submit(_spec(0))
                _wait_running(client, held["job_id"])
                # Queue empty, tenant t at its share: the fair-share gate.
                for n in range(1, 4):
                    with pytest.raises(OverloadedError) as shed:
                        client.submit(_spec(n))
                    assert shed.value.reason == "fair-share"
                    assert shed.value.retry_after > 0
                # Tenant u's share is free, so its job is admitted and
                # waits behind the held one: queue depth == watermark.
                waiting = other.submit(_spec(4))
                assert waiting["state"] == "queued"
                assert cluster.queue_depth() == 1
                # Now every submission, from either tenant, sheds at
                # the queue gate.
                for n in range(5, 11):
                    with pytest.raises(OverloadedError) as shed:
                        (client if n % 2 else other).submit(_spec(n))
                    assert shed.value.reason == "queue"
                    assert shed.value.retry_after > 0
                # The raw response carries the Retry-After header too.
                request = urllib.request.Request(
                    f"{url}/jobs",
                    data=json.dumps(_spec(50).to_dict()).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as raw:
                    urllib.request.urlopen(request, timeout=10).read()
                assert raw.value.code == 429
                assert int(raw.value.headers["Retry-After"]) >= 1
                body = json.load(raw.value)
                assert body["reason"] == "queue"
                assert body["retry_after"] > 0
                assert cluster.queue_depth() == 1
        finally:
            gate.set()
            server.stop()
            cluster.shutdown()


class TestEventStream:
    def test_stream_reaches_terminal_state(self, service):
        client, _ = service
        status = client.submit(SPEC)
        states = [event["state"] for event in client.events(status["job_id"])]
        assert states[-1] == "done"
        # No duplicate terminal events despite the replay/live overlap.
        assert states.count("done") == 1

    def test_subscribe_after_done_replays_terminal_event(self, service):
        client, _ = service
        status = client.submit_and_wait(SPEC, timeout=30)[0]
        events = list(client.events(status["job_id"]))
        assert len(events) == 1
        assert events[0]["state"] == "done"
        assert events[0]["job_id"] == status["job_id"]

    def test_stream_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError, match="HTTP 404"):
            list(client.events("j" + "0" * 31))

    def test_live_stream_sees_running_then_done(self, tmp_path):
        cluster = ClusterScheduler(
            shards=1, bus=EventBus(), worker_target=slow_worker
        )
        cluster.start()
        server = make_cluster_server(cluster, port=0)
        host, port = server.address
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                status = client.submit(SPEC)
                seen: list[str] = []
                for event in client.events(status["job_id"]):
                    seen.append(event["state"])
                assert seen[-1] == "done"
                assert seen[0] in ("queued", "running")
        finally:
            server.stop()
            cluster.shutdown()


class TestServerLifecycle:
    def test_double_start_rejected(self, service):
        _, cluster = service
        server = ClusterServer(cluster, port=0)
        server.start()
        try:
            with pytest.raises(ServiceError, match="already started"):
                server.start()
        finally:
            server.stop()

    def test_stop_does_not_wait_on_an_idle_keep_alive_client(self):
        cluster = ClusterScheduler(shards=1, worker_target=echo_worker)
        cluster.start()
        server = ClusterServer(cluster, port=0)
        host, port = server.start()
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert not response.will_close
            started = time.monotonic()
            server.stop(grace=5)
            assert time.monotonic() - started < 1.0
        finally:
            conn.close()
            server.stop()
            cluster.shutdown()

    def test_stop_is_idempotent(self, tmp_path):
        cluster = ClusterScheduler(shards=1, worker_target=echo_worker)
        cluster.start()
        try:
            server = ClusterServer(cluster, port=0)
            server.start()
            server.stop()
            server.stop()
        finally:
            cluster.shutdown()
