"""Multi-process replay: accounting, dedup, and composition."""

from __future__ import annotations

import pytest

from repro.core.config import GenerationalConfig
from repro.errors import ConfigError, LogFormatError
from repro.shared.compose import (
    LIBRARY_TRACE_BASE,
    ProcessWorkload,
    build_library_catalog,
    compose_specs,
    compose_with_libraries,
    prepare_library,
    workload_keys,
)
from repro.shared.manager import make_group
from repro.shared.policy import sharing_config_for
from repro.shared.simulator import MultiProcessSimulator
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
)

CONFIG = GenerationalConfig()


def _tiny_log(name: str) -> TraceLog:
    log = TraceLog(benchmark=name, duration_seconds=1.0, code_footprint=2000)
    for record in [
        TraceCreate(time=10, trace_id=0, size=100, module_id=0),
        TraceAccess(time=20, trace_id=0, repeat=3),
        TraceCreate(time=30, trace_id=1, size=120, module_id=1),
        TraceAccess(time=40, trace_id=1, repeat=2),
        TraceAccess(time=50, trace_id=0),
        ModuleUnmap(time=60, module_id=1),
        TraceCreate(time=70, trace_id=2, size=80, module_id=0),
        TraceAccess(time=80, trace_id=2),
        EndOfLog(time=100),
    ]:
        log.append(record)
    return log


def _workload(name: str, namespace: str | None = None) -> ProcessWorkload:
    log = _tiny_log(name)
    return ProcessWorkload(
        name=name, log=log, keys=workload_keys(namespace or name, log)
    )


def _run(policy: str, workloads: list[ProcessWorkload], **kwargs):
    capacities = tuple(1000 for _ in workloads)
    group = make_group(capacities, CONFIG, sharing_config_for(policy))
    return MultiProcessSimulator(group, workloads, **kwargs).run()


class TestAccounting:
    def test_stats_invariants_hold(self):
        result = _run("private", [_workload("a"), _workload("b", "other")])
        for summary in result.processes:
            assert summary.stats.accesses == (
                summary.stats.hits + summary.stats.misses
            )
            assert summary.stats.creations == 3
            assert summary.stats.accesses == 7

    def test_private_never_dedups(self):
        result = _run("private", [_workload("a"), _workload("a")])
        assert result.dedup_generations == 0
        assert result.dedup_bytes == 0
        assert result.generated_bytes == 2 * 300

    def test_shared_all_dedups_identical_processes(self):
        # Same binary twice: the second process's creations find every
        # content already resident.
        result = _run("shared-all", [_workload("a"), _workload("a")])
        assert result.dedup_generations > 0
        assert result.generated_bytes + result.dedup_bytes == 2 * 300
        assert result.duplicated_bytes == 0

    def test_distinct_content_never_dedups(self):
        result = _run("shared-all", [_workload("a"), _workload("b", "other")])
        assert result.dedup_generations == 0

    def test_aggregate_properties_sum_processes(self):
        result = _run("shared-all", [_workload("a"), _workload("a")])
        assert result.accesses == sum(
            p.stats.accesses for p in result.processes
        )
        assert result.misses == sum(p.stats.misses for p in result.processes)
        assert 0.0 <= result.miss_rate <= 1.0

    def test_unmap_is_per_process_under_sharing(self):
        # Process 0's unmap of module 1 must not invalidate process 1's
        # later access to its own module-1 trace.
        result = _run("shared-all", [_workload("a"), _workload("a")])
        for summary in result.processes:
            summary.stats.check_invariants()


class TestValidation:
    def test_workload_count_must_match_group(self):
        group = make_group((1000, 1000), CONFIG, sharing_config_for("private"))
        with pytest.raises(ConfigError, match="workloads"):
            MultiProcessSimulator(group, [_workload("a")])

    def test_missing_content_key_is_a_log_error(self):
        workload = _workload("a")
        workload.keys.pop(1)
        group = make_group((1000,), CONFIG, sharing_config_for("private"))
        with pytest.raises(LogFormatError, match="content key"):
            MultiProcessSimulator(group, [workload]).run()


class TestDeterminism:
    @pytest.mark.parametrize("schedule", ["round-robin", "random"])
    def test_repeated_runs_identical(self, schedule):
        def once():
            result = _run(
                "shared-persistent",
                [_workload("a"), _workload("a")],
                schedule=schedule,
                seed=7,
            )
            return (
                result.accesses,
                result.misses,
                result.generated_bytes,
                result.dedup_bytes,
                result.resident_bytes,
                [(p.stats.hits, p.stats.misses) for p in result.processes],
            )

        assert once() == once()


def composed(specs, **kwargs) -> list[ProcessWorkload]:
    """The one mix builder's workload for each process of *specs*."""
    assignment, distinct = compose_specs(specs, **kwargs)
    distinct = list(distinct)
    return [distinct[index] for index in assignment]


class TestComposition:
    def test_library_overlay_shares_keys_across_apps(self):
        workloads = composed(
            [("word", 1), ("gzip", 1)], seed=42, scale_multiplier=0.5
        )
        word_lib = {
            key
            for tid, key in workloads[0].keys.items()
            if tid >= LIBRARY_TRACE_BASE
        }
        gzip_lib = {
            key
            for tid, key in workloads[1].keys.items()
            if tid >= LIBRARY_TRACE_BASE
        }
        assert word_lib and word_lib == gzip_lib
        # App code, by contrast, never collides across benchmarks.
        word_app = {
            key
            for tid, key in workloads[0].keys.items()
            if tid < LIBRARY_TRACE_BASE
        }
        gzip_app = {
            key
            for tid, key in workloads[1].keys.items()
            if tid < LIBRARY_TRACE_BASE
        }
        assert not word_app & gzip_app

    def test_same_benchmark_shares_the_composed_workload(self):
        workloads = composed(
            [("word", 1), ("word", 1)], seed=42, scale_multiplier=0.5
        )
        assert workloads[0] is workloads[1]
        assert workloads[0].keys == workloads[1].keys

    def test_composed_log_validates_and_covers_creates(self):
        workloads = composed([("word", 1)], seed=42, scale_multiplier=0.5)
        log = workloads[0].log
        log.validate()
        created = {r.trace_id for r in log.creates()}
        assert created == set(workloads[0].keys)
        assert log.benchmark == "word+shlib"

    def test_library_unmaps_are_dropped(self):
        app = _tiny_log("app")
        lib = _tiny_log("lib")
        workload = compose_with_libraries(
            "app", app, [prepare_library("lib", lib)]
        )
        unmapped = [
            r for r in workload.log.records if isinstance(r, ModuleUnmap)
        ]
        # Only the app's own unmap survives the overlay.
        assert len(unmapped) == 1
        assert unmapped[0].module_id == 1

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            compose_specs([])

    def test_bad_library_scale_rejected(self):
        with pytest.raises(ConfigError, match="library scale"):
            build_library_catalog(library_scale=0.0)
