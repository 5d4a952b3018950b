"""Production paths never convert between log representations.

``run all``, the shared-cache, fleet, headroom and reuse tables,
``record`` and ``replay`` jobs synthesize, decode, compose and replay
packed columns end to end.  With both conversions (record objects ->
columns and back) made to raise, each must still succeed, and a cold
and a warm ``run all`` must render the same tables.
"""

from __future__ import annotations

import base64

import pytest

from repro.cli import main
from repro.errors import LogFormatError, LogOrderError
from repro.experiments.dataset import quick_subset
from repro.experiments.runner import ALL_EXPERIMENT_IDS, render_all, run_all
from repro.fastpath import CompiledTraceLog
from repro.fastpath import artifacts as artifacts_module
from repro.fastpath.artifacts import ARTIFACT_TOTALS, configure
from repro.service.jobs import JobSpec
from repro.service.workers import execute_job
from repro.tracelog.binary import read_binary_log
from repro.tracelog.reader import read_log
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_compiled


def _refuse(*_args, **_kwargs):
    raise AssertionError("a production path converted a log between forms")


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


def _run(experiment_ids: tuple[str, ...] = ALL_EXPERIMENT_IDS) -> list:
    return run_all(
        seed=42,
        scale_multiplier=64.0,
        subset=quick_subset(),
        experiment_ids=experiment_ids,
    )


def test_cold_and_warm_runs_stay_packed(fresh_store, no_conversions):
    cold = render_all(_run())
    before = dict(ARTIFACT_TOTALS)
    warm = render_all(_run())
    assert ARTIFACT_TOTALS["logs_synthesized"] == before["logs_synthesized"]
    assert ARTIFACT_TOTALS["misses"] == before["misses"]
    assert warm == cold


@pytest.mark.parametrize("experiment", ["shared", "fleet", "headroom", "reuse"])
def test_extension_tables_stay_packed(fresh_store, no_conversions, experiment):
    (result,) = _run((experiment,))
    assert result.rows


@pytest.fixture
def recorded(tmp_path, fresh_store, no_conversions, capsys):
    """``record gzip`` at default scale, as text and as RTL2."""
    text, rtl = tmp_path / "gzip.log", tmp_path / "gzip.rtl"
    assert main(["record", "gzip", str(text)]) == 0
    assert main(["record", "gzip", str(rtl), "--binary"]) == 0
    capsys.readouterr()
    return text, rtl


def test_recorded_files_decode_to_the_synthesized_columns(recorded):
    expected = synthesize_compiled(get_profile("gzip"), seed=42)
    text, rtl = recorded
    for decoded in (read_log(text), read_binary_log(rtl)):
        assert isinstance(decoded, CompiledTraceLog)
        assert list(decoded.rows()) == list(expected.rows())
        assert decoded.benchmark == expected.benchmark
        assert decoded.duration_seconds == expected.duration_seconds
        assert decoded.code_footprint == expected.code_footprint


def _replay(**log) -> dict:
    return execute_job(JobSpec(kind="replay", manager="unified", **log))


def test_replay_jobs_stay_packed_and_agree(recorded):
    text, rtl = recorded
    inline = base64.b64encode(rtl.read_bytes()).decode()
    payloads = [
        _replay(log_path=str(text)),
        _replay(log_path=str(rtl)),
        _replay(log_inline=inline),
    ]
    assert payloads[0]["result"]["benchmark"] == "gzip"
    assert payloads[0]["result"]["accesses"] > 0
    assert all(p["result"] == payloads[0]["result"] for p in payloads)


_HEADER = "# repro-tracelog v1\n# benchmark=x duration=1.0 footprint=10\n"


@pytest.mark.parametrize(
    ("body", "error"),
    [
        ("C 1 notanint 10 0\n", LogFormatError),
        ("C 1 0 10 0\nZ 2 0\n", LogFormatError),
        ("C 5 0 10 0\nA 3 0 1\n", LogOrderError),
    ],
    ids=["malformed", "unknown-tag", "time-disorder"],
)
def test_replay_job_rejects_a_bad_text_log(tmp_path, body, error):
    path = tmp_path / "bad.log"
    path.write_text(_HEADER + body, encoding="utf-8")
    with pytest.raises(error):
        _replay(log_path=str(path))


def test_replay_job_rejects_a_malformed_header_value(tmp_path):
    path = tmp_path / "bad.log"
    path.write_text(
        _HEADER.replace("duration=1.0", "duration=abc") + "E 1\n",
        encoding="utf-8",
    )
    with pytest.raises(LogFormatError, match="duration='abc'"):
        _replay(log_path=str(path))


def _truncated(blob: bytes) -> bytes:
    return blob[:-3]


def _bad_magic(blob: bytes) -> bytes:
    return b"NOPE" + blob[4:]


@pytest.mark.parametrize(
    ("damage", "inline"),
    # A path is sniffed by its magic, so only inline bytes can carry a
    # bad one.
    [(_truncated, False), (_truncated, True), (_bad_magic, True)],
    ids=["truncated-path", "truncated-inline", "bad-magic-inline"],
)
def test_replay_job_rejects_a_bad_rtl2_log(recorded, tmp_path, damage, inline):
    blob = damage(recorded[1].read_bytes())
    if inline:
        log = {"log_inline": base64.b64encode(blob).decode()}
    else:
        path = tmp_path / "bad.rtl"
        path.write_bytes(blob)
        log = {"log_path": str(path)}
    with pytest.raises(LogFormatError):
        _replay(**log)
