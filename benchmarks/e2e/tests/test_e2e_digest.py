"""An output-digest mismatch is a failed operation and counts in the
error rate."""

from dataclasses import replace

import bench
from workloads import FULL, SMOKE, Round, Setup


def test_digest_failures_against_the_pin_or_the_majority():
    assert bench.digest_failures(["a", "a", "b"], "a") == 1
    assert bench.digest_failures(["a", "a", "b"], "c") == 3
    assert bench.digest_failures(["a", "b", "b"], None) == 1
    assert bench.digest_failures([None, "a", "a"], None) == 0
    assert bench.digest_failures([], "a") == 0


def test_pins_apply_only_at_the_pinned_seed_and_sizes():
    assert bench.pinned_digest("paper-cold", 7, FULL) is None
    assert bench.pinned_digest("paper-warm", bench.PIN_SEED, SMOKE) is None
    for name in ("paper-cold", "paper-warm", "fleet-256", "service-zipf"):
        assert bench.pinned_digest(name, bench.PIN_SEED, FULL)
    assert bench.pinned_digest("paper-cold", 42, FULL) == bench.pinned_digest(
        "paper-warm", 42, FULL
    )


class _StubWorkload:
    """Rounds whose outputs disagree once."""

    setup_runs = 1

    def __init__(self, digests):
        self.digests = list(digests)

    def setup(self):
        return Setup(0.5, False, digest="x")

    def round(self, traced=False):
        return Round(1.0, 10.0, [1.0], self.digests.pop(0), 1, 0)

    def close(self):
        pass


def test_a_digest_mismatch_counts_in_the_error_rate(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(
        bench, "make_workload", lambda name, ctx: _StubWorkload(["x", "y", "x"])
    )
    document = bench.measure("paper-warm", 7, 0.0, replace(SMOKE, min_rounds=3))
    assert document["attempted"] == 4
    assert document["failed"] == 1
    assert document["error_rate"] == 0.25
    assert not document["correct"]
    assert any("differ from the reference digest" in n for n in document["notes"])


def test_matching_digests_are_correct(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(
        bench, "make_workload", lambda name, ctx: _StubWorkload(["x"])
    )
    document = bench.measure("paper-warm", 7, 0.0, SMOKE)
    assert document["correct"] and document["failed"] == 0
    assert document["metrics"]["setup_s"] == 0.5
    assert document["metrics"]["jobs_per_s"] == 1.0
    assert document["samples"]["job_p50_ms"] == 1000.0
