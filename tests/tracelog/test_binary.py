"""Tests for the binary trace-log format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import LogFormatError, LogOrderError
from repro.fastpath import pack_columns
from repro.tracelog.binary import (
    dumps_binary,
    loads_binary,
    read_binary_log,
    write_binary_log,
)
from repro.tracelog.writer import dumps_log

from tests.property.test_property_log_roundtrip import arbitrary_logs


class TestRoundTrip:
    def test_small_log(self, small_log):
        parsed = loads_binary(dumps_binary(small_log))
        assert parsed.decompile().records == small_log.records
        assert parsed.benchmark == small_log.benchmark
        assert parsed.duration_seconds == small_log.duration_seconds
        assert parsed.code_footprint == small_log.code_footprint

    def test_file_round_trip(self, small_log, tmp_path):
        path = tmp_path / "log.bin"
        write_binary_log(small_log, path)
        parsed = read_binary_log(path)
        assert parsed.decompile().records == small_log.records

    def test_smaller_than_text_for_real_logs(self):
        from repro.workloads import get_profile, synthesize_log

        log = synthesize_log(get_profile("gzip"), seed=3, scale=2.0)
        assert len(dumps_binary(log)) < len(dumps_log(log).encode("utf-8"))

    @given(arbitrary_logs())
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, log):
        parsed = loads_binary(dumps_binary(log))
        assert parsed.decompile().records == log.records
        assert parsed.benchmark == log.benchmark


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(LogFormatError):
            loads_binary(b"NOPE" + b"\x00" * 30)

    def test_truncated(self, small_log):
        data = dumps_binary(small_log)
        with pytest.raises(LogFormatError):
            loads_binary(data[:-3])

    def test_empty(self):
        with pytest.raises(LogFormatError):
            loads_binary(b"")

    def test_unknown_tag(self):
        # One end record (tag 6, time delta 1), retagged as 9.
        data = dumps_binary(pack_columns("x", 1.0, 10, [[6], [1], [0], [0], [0], [0]]))
        with pytest.raises(LogFormatError, match="tag 9"):
            loads_binary(data[:-2] + bytes([9, 1]))

    def test_validates_by_default(self):
        # The encoder does not validate: an access to a trace that was
        # never created still writes, and the decoder rejects it.
        data = dumps_binary(pack_columns("x", 1.0, 10, [[2], [1], [7], [0], [0], [1]]))
        with pytest.raises(LogOrderError, match="never-created"):
            loads_binary(data)
        assert len(loads_binary(data, validate=False)) == 1

    def test_synthesized_workload_round_trips(self):
        from repro.workloads import get_profile, synthesize_log

        log = synthesize_log(get_profile("art"), seed=5, scale=2.0)
        parsed = loads_binary(dumps_binary(log))
        assert parsed.decompile().records == log.records


class TestStreaming:
    """Chunk-buffered dump_binary/load_binary match the in-memory API."""

    def test_stream_bytes_identical(self, small_log):
        import io

        from repro.tracelog.binary import dump_binary

        buffer = io.BytesIO()
        written = dump_binary(small_log, buffer)
        assert buffer.getvalue() == dumps_binary(small_log)
        assert written == len(buffer.getvalue())

    def test_tiny_chunks_round_trip(self, small_log):
        import io

        from repro.tracelog.binary import dump_binary, load_binary

        # chunk_size=1 forces a flush per record and a refill per byte:
        # the worst case for the buffering logic.
        buffer = io.BytesIO()
        dump_binary(small_log, buffer, chunk_size=1)
        assert buffer.getvalue() == dumps_binary(small_log)
        buffer.seek(0)
        parsed = load_binary(buffer, chunk_size=1)
        assert parsed.decompile().records == small_log.records
        assert parsed.benchmark == small_log.benchmark

    def test_truncated_stream(self, small_log):
        import io

        from repro.tracelog.binary import load_binary

        data = dumps_binary(small_log)
        with pytest.raises(LogFormatError):
            load_binary(io.BytesIO(data[:-3]))

    def test_invalid_chunk_size(self, small_log):
        import io

        from repro.tracelog.binary import dump_binary, load_binary

        with pytest.raises(LogFormatError):
            dump_binary(small_log, io.BytesIO(), chunk_size=0)
        with pytest.raises(LogFormatError):
            load_binary(io.BytesIO(b""), chunk_size=0)
