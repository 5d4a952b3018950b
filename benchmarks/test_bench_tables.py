"""Benchmarks regenerating Table 1 and Table 2."""

from __future__ import annotations

from bench_common import run_once

from repro.experiments import table01_benchmarks, table02_overheads


def test_bench_table01_roster(benchmark, publish):
    """Table 1: the interactive benchmark roster."""
    result = run_once(benchmark, table01_benchmarks.run)
    publish(result)
    assert len(result.rows) == 12


def test_bench_table02_overheads(benchmark, publish):
    """Table 2: the fitted cost formulas at the 242-byte median."""
    result = run_once(benchmark, table02_overheads.run)
    publish(result)
    by_event = {row["Event"]: row["Instructions"] for row in result.rows}
    assert by_event["Trace Generation"] == 69834
    assert by_event["Eviction"] == 3316
    assert by_event["Promotion"] == 13354
