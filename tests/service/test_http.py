"""`serve` front end tests: the JSON API at one shard (echo workers,
free port).

`serve --jobs N --store DIR` runs the cluster server over one shard of
N workers and a disk-backed tiered store; the fixture builds that same
shape and drives it through ServiceClient.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    AdmissionController,
    ClusterScheduler,
    EventBus,
    TieredResultStore,
)
from repro.cluster.http import ClusterServer
from repro.errors import ConfigError, ServiceError
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, job_id
from repro.service.store import ResultStore
from tests.service.test_scheduler import echo_worker, sleepy_worker

SPEC = JobSpec(kind="experiment", experiment_id="figure-1")


def _serve(tmp_path, jobs: int, worker_target, **scheduler_kwargs):
    """Start the cluster server the way `serve --jobs <jobs>` does."""
    cluster = ClusterScheduler(
        shards=1,
        workers_per_shard=jobs,
        store=TieredResultStore(ResultStore(tmp_path / "store")),
        admission=AdmissionController(),
        bus=EventBus(),
        worker_target=worker_target,
        **scheduler_kwargs,
    )
    cluster.start()
    server = ClusterServer(cluster, port=0)
    host, port = server.start()
    return cluster, server, ServiceClient(f"http://{host}:{port}")


@pytest.fixture
def service(tmp_path):
    """A live one-shard server over echo workers; yields the client."""
    cluster, server, client = _serve(tmp_path, jobs=2, worker_target=echo_worker)
    try:
        yield client
    finally:
        client.close()
        server.stop()
        cluster.shutdown()


class TestEndpoints:
    def test_submit_and_wait_round_trip(self, service):
        status, payload = service.submit_and_wait(SPEC, timeout=30)
        assert status["state"] == "done"
        assert status["job_id"] == job_id(SPEC)
        assert payload["echo"] == "figure-1"

    def test_invalid_spec_is_400(self, service):
        # A rejected spec is the caller's configuration error (CLI exit
        # code 2), not a service failure.
        with pytest.raises(ConfigError, match="HTTP 400"):
            service.submit({"kind": "experiment"})  # missing experiment_id

    def test_unknown_field_is_400(self, service):
        with pytest.raises(ConfigError, match="HTTP 400"):
            service.submit({**SPEC.to_dict(), "bogus": 1})

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service.status("j" + "0" * 31)
        with pytest.raises(ServiceError, match="HTTP 404"):
            service.result("j" + "0" * 31)

    def test_unknown_endpoint_is_404(self, service):
        with pytest.raises(ServiceError, match="HTTP 404"):
            service._request("GET", "/nope")

    def test_metrics_shape(self, service):
        service.submit_and_wait(SPEC, timeout=30)
        metrics = service.metrics()
        assert set(metrics) >= {"shards", "cluster", "admission", "store"}
        assert metrics["cluster"]["jobs_completed"] == 1
        assert metrics["cluster"]["shard_count"] == 1
        (shard,) = metrics["shards"].values()
        assert shard["workers_total"] == 2
        assert set(shard) >= {
            "queue_depth",
            "cache_hit_rate",
            "worker_utilization",
            "jobs_failed",
        }

    def test_bad_json_body_is_400(self, service):
        request = urllib.request.Request(
            service.base_url + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read().decode())


class TestUnfinishedResult:
    def test_result_of_running_job_is_409(self, tmp_path):
        cluster, server, client = _serve(
            tmp_path, jobs=1, worker_target=sleepy_worker, timeout=60
        )
        try:
            status = client.submit(SPEC)
            with pytest.raises(ServiceError, match="HTTP 409"):
                client.result(status["job_id"])
        finally:
            client.close()
            server.stop()
            cluster.shutdown()
