"""Property-based round-trip tests for the trace-log serialization."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.lifetimes import lifetime_histogram, trace_lifetimes
from repro.tracelog.reader import loads_log
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)
from repro.tracelog.writer import dumps_log


@st.composite
def arbitrary_logs(draw):
    benchmark = draw(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
            min_size=1,
            max_size=12,
        )
    )
    duration = draw(
        st.floats(min_value=0.001, max_value=10_000, allow_nan=False)
    )
    footprint = draw(st.integers(min_value=1, max_value=10**9))
    log = TraceLog(
        benchmark=benchmark, duration_seconds=duration, code_footprint=footprint
    )
    time = 0
    created: list[int] = []
    pinned: set[int] = set()
    n_records = draw(st.integers(min_value=0, max_value=60))
    for index in range(n_records):
        time += draw(st.integers(min_value=0, max_value=100))
        choice = draw(st.integers(0, 9))
        if choice <= 3 or not created:
            trace_id = len(created)
            log.append(
                TraceCreate(
                    time=time,
                    trace_id=trace_id,
                    size=draw(st.integers(1, 10_000)),
                    module_id=draw(st.integers(0, 20)),
                )
            )
            created.append(trace_id)
        elif choice <= 7:
            log.append(
                TraceAccess(
                    time=time,
                    trace_id=draw(st.sampled_from(created)),
                    repeat=draw(st.integers(1, 1000)),
                )
            )
        elif choice == 8:
            log.append(ModuleUnmap(time=time, module_id=draw(st.integers(0, 20))))
        else:
            trace_id = draw(st.sampled_from(created))
            if trace_id in pinned:
                log.append(TraceUnpin(time=time, trace_id=trace_id))
                pinned.discard(trace_id)
            else:
                log.append(TracePin(time=time, trace_id=trace_id))
                pinned.add(trace_id)
    log.append(EndOfLog(time=time + 1))
    return log


@given(arbitrary_logs())
@settings(max_examples=100, deadline=None)
def test_write_read_round_trip_is_identity(log):
    parsed = loads_log(dumps_log(log))
    assert parsed.decompile().records == log.records
    assert parsed.benchmark == log.benchmark
    assert parsed.code_footprint == log.code_footprint


@given(arbitrary_logs())
@settings(max_examples=60, deadline=None)
def test_lifetimes_always_in_unit_interval(log):
    if log.end_time <= 0:
        return
    lifetimes = trace_lifetimes(log)
    for value in lifetimes.values():
        assert 0.0 <= value <= 1.0
    histogram = lifetime_histogram(log)
    if histogram.n_traces:
        assert sum(histogram.fractions) == 100.0 or abs(
            sum(histogram.fractions) - 100.0
        ) < 1e-6
