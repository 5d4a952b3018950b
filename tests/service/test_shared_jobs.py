"""shared-cell jobs of both shared-cache tables: spec validation,
execution, fail-fast rejects, and the submit CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.shared import simulate_cell
from repro.service.jobs import JobSpec, job_id, spec_from_dict
from repro.service.scheduler import FAILED, Scheduler
from repro.service.workers import execute_job
from repro.shared.policy import MIX_KINDS

#: A small cell of each table, keyed by the runner id the job names.
CELLS = {
    "shared": dict(mix="homogeneous", processes=2, scale_multiplier=16.0),
    "fleet": dict(mix="heterogeneous", processes=8, scale_multiplier=128.0),
}


def _spec(table: str = "shared", **overrides) -> JobSpec:
    fields = dict(
        kind="shared-cell",
        experiment_id=table,
        policy="shared-persistent",
        **CELLS[table],
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestSpecValidation:
    #: The table whose cell every spec names; the fleet subclass below
    #: runs each case again on the other table.
    table = "shared"

    def test_valid_spec_passes(self):
        _spec(self.table).validate()

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("mix", "bimodal", "mix"),
            ("mix", None, "mix"),
            ("processes", 1, "processes"),
            ("processes", None, "processes"),
            ("policy", "shared-sometimes", "policy"),
            ("policy", None, "policy"),
            ("schedule", "fifo", "schedule"),
            ("quantum", 0, "quantum"),
        ],
    )
    def test_invalid_field_rejected(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            _spec(self.table, **{field: value}).validate()

    def test_round_trips_through_dict(self):
        spec = _spec(self.table, schedule="random", quantum=16, seed=7)
        again = spec_from_dict(spec.to_dict())
        assert again == spec
        assert job_id(again) == job_id(spec)

    def test_job_id_covers_cell_fields(self):
        base = job_id(_spec(self.table))
        other_mix = next(m for m in MIX_KINDS if m != CELLS[self.table]["mix"])
        assert job_id(_spec(self.table, policy="private")) != base
        assert job_id(_spec(self.table, processes=64)) != base
        assert job_id(_spec(self.table, mix=other_mix)) != base
        assert job_id(_spec(self.table, quantum=8)) != base

    def test_distinct_from_other_table(self):
        # Same cell fields, other table: distinct content addresses, so
        # the store never conflates the two tables' cells.
        other_table = next(name for name in CELLS if name != self.table)
        assert job_id(_spec(self.table, experiment_id=other_table)) != job_id(
            _spec(self.table)
        )


class TestFleetSpecValidation(TestSpecValidation):
    table = "fleet"


class TestKindChecks:
    @pytest.mark.parametrize("kind", ["shared-mix", "fleet-cell"])
    def test_retired_cell_kinds_rejected(self, kind):
        with pytest.raises(ConfigError, match="unknown job kind"):
            spec_from_dict(
                {
                    "kind": kind,
                    "mix": "homogeneous",
                    "processes": 2,
                    "policy": "private",
                }
            )

    @pytest.mark.parametrize(
        "experiment_id", [None, "", "shared-cache", "figure-9"]
    )
    def test_table_must_be_shared_or_fleet(self, experiment_id):
        with pytest.raises(ConfigError, match="experiment_id"):
            _spec(experiment_id=experiment_id).validate()


class TestExecution:
    #: The table whose cell every job runs; the fleet subclass below
    #: runs each case again on the other table.
    table = "shared"

    def test_execute_job_returns_cell_with_provenance(self):
        spec = _spec(self.table, seed=11)
        payload = execute_job(spec)
        assert payload["kind"] == "shared-cell"
        assert payload["seed"] == 11
        assert payload["config_digest"] == job_id(spec)
        cell = payload["result"]
        assert cell["mix"] == spec.mix
        assert cell["processes"] == spec.processes
        assert cell["policy"] == "shared-persistent"
        assert cell["accesses"] > 0
        assert 0.0 <= cell["miss_rate"] <= 1.0
        assert cell == simulate_cell(
            self.table,
            spec.mix,
            spec.processes,
            spec.policy,
            seed=11,
            scale_multiplier=spec.scale_multiplier,
            schedule=spec.schedule,
            quantum=spec.quantum,
        )

    def test_result_is_json_safe(self):
        payload = execute_job(_spec(self.table, processes=4))
        json.dumps(payload)

    def test_execute_job_rejects_invalid_spec(self):
        with pytest.raises(ConfigError):
            execute_job(_spec(self.table, policy="bogus"))


class TestFleetExecution(TestExecution):
    table = "fleet"


def config_error_worker(slot: int, tasks, events) -> None:
    """Rejects every job the way the real worker reports a bad spec."""
    while True:
        item = tasks.get()
        if item is None:
            return
        jid, spec = item
        events.put(("error", jid, "ConfigError: deterministic rejection"))


def flaky_error_worker(slot: int, tasks, events) -> None:
    """Reports a transient (non-config) error on every job."""
    while True:
        item = tasks.get()
        if item is None:
            return
        jid, spec = item
        events.put(("error", jid, "OSError: transient"))


class TestFailFast:
    def test_config_error_is_not_retried(self):
        with Scheduler(
            workers=1,
            worker_target=config_error_worker,
            max_retries=3,
            backoff_base=0.01,
        ) as scheduler:
            record = scheduler.submit(_spec())
            assert scheduler.wait([record.job_id], timeout=30)
            assert record.state == FAILED
            assert record.attempts == 1  # no retry burned on a bad spec
            assert "ConfigError" in record.error
            assert scheduler.metrics.retried == 0

    def test_transient_error_still_retries(self):
        with Scheduler(
            workers=1,
            worker_target=flaky_error_worker,
            max_retries=2,
            backoff_base=0.01,
        ) as scheduler:
            record = scheduler.submit(_spec())
            assert scheduler.wait([record.job_id], timeout=30)
            assert record.state == FAILED
            assert record.attempts == 3  # initial try + both retries
            assert scheduler.metrics.retried == 2


class TestSubmitCli:
    def test_unknown_policy_exits_2_before_any_request(self, capsys):
        code = main(
            [
                "submit",
                "--spec",
                '{"kind": "shared-cell", "experiment_id": "shared", '
                '"mix": "heterogeneous", "processes": 2, "policy": "bogus"}',
                "--server",
                "http://127.0.0.1:1",  # would refuse the connection
            ]
        )
        assert code == 2
        assert "policy" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, capsys):
        assert main(["submit", "--spec", "{not json"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_spec_and_experiment_are_exclusive(self, capsys):
        assert main(["submit", "figure-9", "--spec", "{}"]) == 2

    def test_submit_without_target_exits_2(self, capsys):
        assert main(["submit"]) == 2
