"""Graceful shutdown regression tests: SIGTERM mid-job must drain.

Runs the real CLI verbs (``serve`` and ``cluster-serve``) as
subprocesses, submits real sweep-point jobs over HTTP, signals the
process while work is queued, and asserts the accepted jobs all made
it to the on-disk store before the process exited cleanly.  One more
check pins what ``serve`` runs: the cluster front end at one shard.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec, job_id
from repro.service.store import ResultStore

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")


def _specs(count: int) -> list[JobSpec]:
    return [
        JobSpec(
            kind="sweep-point",
            benchmark="gzip",
            seed=seed,
            scale_multiplier=256.0,
            manager="unified",
        )
        for seed in range(count)
    ]


def _spawn(verb_args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *verb_args],
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_listen(process: subprocess.Popen) -> str:
    line = process.stdout.readline()
    match = LISTEN_RE.search(line)
    if match is None:  # pragma: no cover - diagnostics only
        process.kill()
        raise AssertionError(f"no listen line, got {line!r}")
    return f"http://{match.group(1)}:{match.group(2)}"


def _drain_under_signal(process: subprocess.Popen, base_url: str, store_dir):
    specs = _specs(3)
    with ServiceClient(base_url) as client:
        for spec in specs:
            client.submit(spec)
        # Signal while jobs are queued behind a single worker: the
        # server must stop accepting, finish what it took, then exit.
        process.send_signal(signal.SIGTERM)
    _, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    assert "drained in-flight jobs" in stderr
    store = ResultStore(store_dir)
    for spec in specs:
        payload = store.get(job_id(spec))
        assert payload is not None, f"accepted job {job_id(spec)} dropped"


class TestServeDrainsOnSignal:
    def test_sigterm_mid_job_drains_then_exits_zero(self, tmp_path):
        store_dir = tmp_path / "store"
        process = _spawn(
            [
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--jobs",
                "1",
                "--store",
                str(store_dir),
            ]
        )
        try:
            base_url = _wait_for_listen(process)
            _drain_under_signal(process, base_url, store_dir)
        finally:
            if process.poll() is None:
                process.kill()

    def test_sigint_also_drains(self, tmp_path):
        store_dir = tmp_path / "store"
        process = _spawn(
            [
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--jobs",
                "1",
                "--store",
                str(store_dir),
            ]
        )
        try:
            base_url = _wait_for_listen(process)
            specs = _specs(1)
            with ServiceClient(base_url) as client:
                client.submit(specs[0])
                process.send_signal(signal.SIGINT)
            _, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
            assert "drained in-flight jobs" in stderr
            assert ResultStore(store_dir).get(job_id(specs[0])) is not None
        finally:
            if process.poll() is None:
                process.kill()


class TestServeRunsOneShard:
    def test_healthz_reports_one_shard_of_jobs_workers(self):
        process = _spawn(
            ["serve", "--port", "0", "--jobs", "1", "--store", ""]
        )
        try:
            base_url = _wait_for_listen(process)
            with ServiceClient(base_url) as client:
                health = client.healthz()
            assert health["status"] == "ok"
            assert health["shards"] == {
                "shard-0": {
                    "workers_alive": 1,
                    "workers_total": 1,
                    "ring_state": "live",
                }
            }
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
            assert process.returncode == 0, stderr
        finally:
            if process.poll() is None:
                process.kill()


class TestClusterServeDrainsOnSignal:
    def test_sigterm_mid_job_drains_then_exits_zero(self, tmp_path):
        store_dir = tmp_path / "store"
        process = _spawn(
            [
                "cluster-serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--shards",
                "2",
                "--workers-per-shard",
                "1",
                "--store",
                str(store_dir),
            ]
        )
        try:
            base_url = _wait_for_listen(process)
            _drain_under_signal(process, base_url, store_dir)
        finally:
            if process.poll() is None:
                process.kill()
