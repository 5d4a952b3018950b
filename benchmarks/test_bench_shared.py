"""Benchmarks for the cross-process shared-cache extension.

* the shared experiment table itself (the acceptance comparison);
* interleaver throughput — records/sec merging 2/4/8 process logs;
* interner throughput — content keys/sec under heavy duplication.
"""

from __future__ import annotations

import pytest
from bench_common import process_workloads, run_once

from repro.experiments import shared as shared_experiment
from repro.experiments.dataset import quick_subset
from repro.experiments.runner import run_all
from repro.shared import TraceInterner, TraceKey
from repro.sim.interleave import interleave_logs


def mix_workloads(mix: str, processes: int) -> list:
    """The shared table's (mix, count) processes, one workload each,
    at scale divisor 4, with record-object logs."""
    names = shared_experiment.mix_benchmarks(mix, processes)
    return process_workloads(
        [(name, 1) for name in names], 4.0, decompiled=True
    )


def test_bench_shared_table(benchmark, publish):
    """Shared-persistent strictly beats private on the heterogeneous
    mix: lower miss rate, fewer generated bytes, fewer duplicate
    resident bytes — at equal total capacity."""
    (result,) = run_once(
        benchmark,
        lambda: run_all(
            seed=42,
            scale_multiplier=8.0,
            subset=quick_subset(),
            experiment_ids=("shared",),
        ),
    )
    publish(result)
    rows = {(r["Mix"], r["Policy"]): r for r in result.rows}
    private = rows[("heterogeneous", "private")]
    pooled = rows[("heterogeneous", "shared-persistent")]
    assert pooled["MissPct"] < private["MissPct"]
    assert pooled["GeneratedKB"] < private["GeneratedKB"]
    assert pooled["DupKB"] < private["DupKB"]
    # shared-all holds exactly one copy of everything.
    assert rows[("heterogeneous", "shared-all")]["DupKB"] == 0.0


@pytest.mark.parametrize("processes", [2, 4, 8])
def test_bench_interleave_throughput(benchmark, processes):
    """Deterministic round-robin merge of N heterogeneous logs."""
    logs = [w.log for w in mix_workloads("heterogeneous", processes)]

    def merge() -> int:
        return sum(1 for _ in interleave_logs(logs, schedule="round-robin"))

    total = run_once(benchmark, merge)
    assert total == sum(len(log.records) for log in logs)


@pytest.mark.parametrize("processes", [2, 4, 8])
def test_bench_interner_throughput(benchmark, processes):
    """Interning N processes' workload keys: every cross-process
    duplicate resolves to the gid minted by the first process."""
    sizes: list[tuple[TraceKey, int]] = []
    for workload in mix_workloads("homogeneous", processes):
        by_id = {r.trace_id: r.size for r in workload.log.creates()}
        sizes.extend((key, by_id[tid]) for tid, key in workload.keys.items())

    def intern_all() -> TraceInterner:
        interner = TraceInterner()
        for key, size in sizes:
            interner.intern(key, size)
        return interner

    interner = run_once(benchmark, intern_all)
    # Homogeneous mix: identical app content across all N processes, so
    # at least the app portion of every later process deduplicates.
    assert interner.duplicate_requests > 0
    assert interner.n_unique < len(sizes)
