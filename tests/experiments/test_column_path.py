"""The paper path never converts between log representations.

``run all`` synthesizes, characterizes and replays packed columns end
to end.  With both conversions (record objects -> columns and back)
made to raise, a cold run on an empty artifact store and a warm run on
the filled store must still succeed and render the same tables.
"""

from __future__ import annotations

import pytest

from repro.experiments.dataset import quick_subset
from repro.experiments.runner import render_all, run_all
from repro.fastpath import CompiledTraceLog
from repro.fastpath import artifacts as artifacts_module
from repro.fastpath.artifacts import ARTIFACT_TOTALS, configure


def _refuse(*_args, **_kwargs):
    raise AssertionError("the paper path converted a log between forms")


@pytest.fixture
def fresh_store(tmp_path):
    previous = artifacts_module._cache
    configure(tmp_path / "store")
    yield
    artifacts_module._cache = previous


@pytest.fixture
def no_conversions(monkeypatch):
    monkeypatch.setattr(CompiledTraceLog, "decompile", _refuse)
    monkeypatch.setattr("repro.fastpath.compiled.compile_log", _refuse)
    monkeypatch.setattr("repro.fastpath.compile_log", _refuse)


def _run() -> str:
    return render_all(run_all(seed=42, scale_multiplier=64.0, subset=quick_subset()))


def test_cold_and_warm_runs_stay_packed(fresh_store, no_conversions):
    cold = _run()
    before = dict(ARTIFACT_TOTALS)
    warm = _run()
    assert ARTIFACT_TOTALS["logs_synthesized"] == before["logs_synthesized"]
    assert ARTIFACT_TOTALS["misses"] == before["misses"]
    assert warm == cold
