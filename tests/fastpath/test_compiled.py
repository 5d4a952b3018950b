"""Compiled-log representation: lossless packing and serialization."""

from __future__ import annotations

import io

import pytest

from repro.errors import LogFormatError, LogOrderError
from repro.fastpath import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    compile_log,
    ensure_compiled,
    pack_columns,
)
from repro.tracelog.binary import (
    dumps_binary,
    load_binary,
    loads_binary,
    read_binary_log,
    write_binary_log,
)
from repro.tracelog.records import TraceLog
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_log


@pytest.fixture(scope="module")
def synth_log():
    return synthesize_log(get_profile("gzip"), seed=3, scale=4.0)


def test_compile_decompile_roundtrip(small_log):
    compiled = compile_log(small_log)
    assert len(compiled) == len(small_log.records)
    restored = compiled.decompile()
    assert restored.records == small_log.records
    assert restored.benchmark == small_log.benchmark
    assert restored.duration_seconds == small_log.duration_seconds
    assert restored.code_footprint == small_log.code_footprint


def test_compile_decompile_roundtrip_synthesized(synth_log):
    compiled = compile_log(synth_log)
    assert compiled.decompile().records == synth_log.records


def test_summary_properties_match(synth_log):
    compiled = compile_log(synth_log)
    assert compiled.n_records == len(synth_log.records)
    assert compiled.n_traces == synth_log.n_traces
    assert compiled.n_accesses == synth_log.n_accesses
    assert compiled.total_trace_bytes == synth_log.total_trace_bytes
    assert compiled.end_time == synth_log.end_time


def test_iter_records_matches_decompile(small_log):
    compiled = compile_log(small_log)
    assert list(compiled.iter_records()) == small_log.records


def test_tracelog_compile_method(small_log):
    assert small_log.compile().decompile().records == small_log.records


def test_ensure_compiled_passthrough(small_log):
    compiled = compile_log(small_log)
    assert ensure_compiled(compiled) is compiled
    assert ensure_compiled(small_log).decompile().records == small_log.records


def test_compile_rejects_foreign_record(small_log):
    small_log.records.insert(0, object())
    with pytest.raises(LogFormatError, match="cannot compile"):
        compile_log(small_log)


def test_empty_log_compiles():
    log = TraceLog(benchmark="empty", duration_seconds=0.0, code_footprint=0)
    compiled = compile_log(log)
    assert len(compiled) == 0
    assert compiled.end_time == 0
    assert compiled.decompile().records == []


# ----------------------------------------------------------------------
# RTL2 interop: compiled logs serialize without decompiling
# ----------------------------------------------------------------------


def test_validate_rejects_a_repeat_on_a_non_access_row():
    # The replay loop counts accesses from the repeat column, so this
    # log would replay to 3 accesses on the object path and to 8 on
    # the fast path.
    compiled = pack_columns(
        "create-with-repeat",
        1.0,
        100,
        [
            [OP_CREATE, OP_ACCESS, OP_END],  # op
            [1, 2, 3],  # time
            [0, 0, 0],  # trace_id
            [40, 0, 0],  # size
            [0, 0, 0],  # module
            [5, 3, 0],  # repeat
        ],
    )
    with pytest.raises(LogOrderError, match="repeat 5"):
        compiled.validate()


def test_dump_binary_compiled_is_byte_identical(synth_log):
    compiled = compile_log(synth_log)
    assert dumps_binary(compiled) == dumps_binary(synth_log)


def test_loads_binary_compiled(synth_log):
    blob = dumps_binary(synth_log)
    compiled = loads_binary(blob)
    assert list(compiled.rows()) == list(compile_log(synth_log).rows())
    assert compiled.benchmark == synth_log.benchmark
    assert compiled.duration_seconds == synth_log.duration_seconds
    assert compiled.code_footprint == synth_log.code_footprint


def test_load_binary_compiled_streaming(small_log):
    blob = dumps_binary(small_log)
    compiled = load_binary(io.BytesIO(blob), chunk_size=7)
    assert compiled.decompile().records == small_log.records


def test_write_read_compiled_file(tmp_path, small_log):
    compiled = compile_log(small_log)
    path = tmp_path / "log.bin"
    write_binary_log(compiled, path)
    assert read_binary_log(path).decompile().records == small_log.records
    assert loads_binary(path.read_bytes()).decompile().records == small_log.records


def test_loads_binary_compiled_rejects_garbage():
    with pytest.raises(LogFormatError):
        loads_binary(b"NOPE")
