"""Microbenchmarks for the binary trace-log round trip.

Measures the chunk-buffered :func:`repro.tracelog.binary.dump_binary` /
:func:`repro.tracelog.binary.load_binary` streaming path against the
degenerate one-write-per-flush configuration it replaced, on a synthetic
interactive-application log.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.tracelog.binary import (
    CHUNK_BYTES,
    dump_binary,
    dumps_binary,
    load_binary,
)
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_compiled

#: Scale divisor for the bench log (~140k records for "word").
BENCH_SCALE = 64.0


def _bench_log():
    return synthesize_compiled(get_profile("word"), seed=7, scale=BENCH_SCALE)


def test_bench_binary_round_trip(benchmark, tmp_path):
    """Chunk-buffered file round trip of a word-processor log."""
    log = _bench_log()
    path = tmp_path / "word.bin"

    def round_trip():
        with open(path, "wb") as stream:
            dump_binary(log, stream)
        with open(path, "rb") as stream:
            return load_binary(stream)

    parsed = run_once(benchmark, round_trip)
    assert list(parsed.rows()) == list(log.rows())
    assert parsed.benchmark == log.benchmark


def test_bench_chunking_beats_per_record_flushes(tmp_path):
    """The 64 KiB encode buffer must beat per-record writes to an
    unbuffered file, and both must produce identical bytes."""
    log = _bench_log()
    naive_path = tmp_path / "naive.bin"
    chunked_path = tmp_path / "chunked.bin"

    def timed_write(path, chunk_size):
        best = None
        for _ in range(3):
            start = time.perf_counter()
            # buffering=0 so each flushed chunk is one real write: the
            # naive configuration pays one syscall per record.
            with open(path, "wb", buffering=0) as stream:
                dump_binary(log, stream, chunk_size=chunk_size)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return best

    naive_secs = timed_write(naive_path, chunk_size=1)
    chunked_secs = timed_write(chunked_path, chunk_size=CHUNK_BYTES)

    data = chunked_path.read_bytes()
    assert data == naive_path.read_bytes()
    assert data == dumps_binary(log)

    print(
        f"\nper-record flushes: {naive_secs * 1000:.1f} ms, "
        f"64 KiB chunks: {chunked_secs * 1000:.1f} ms "
        f"({naive_secs / chunked_secs:.1f}x)"
    )
    assert chunked_secs < naive_secs
