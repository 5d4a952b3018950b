"""Unit tests for log summary statistics."""

from __future__ import annotations

import pytest

from repro.cachesim.simulator import simulate_log
from repro.core.unified import UnifiedCacheManager
from repro.metrics.lifetimes import lifetime_histogram
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
)
from repro.tracelog.stats import summarize_log
from repro.workloads.catalog import all_profiles
from repro.workloads.synthesis import synthesize_compiled


def _log(*records) -> TraceLog:
    log = TraceLog(benchmark="x", duration_seconds=1.0, code_footprint=10)
    for record in records:
        log.append(record)
    return log


def _unbounded_high_water_mark(log) -> int:
    """The oracle for ``unbounded_bytes``: replay against an unbounded
    cache."""
    manager = UnifiedCacheManager(1 << 40, local_policy="unbounded")
    simulate_log(log, manager)
    return manager.cache.high_water_mark


class TestSummarize:
    def test_small_log_counts(self, small_log):
        stats = summarize_log(small_log)
        assert stats.n_traces == 6
        assert stats.total_trace_bytes == 770
        assert stats.n_accesses == 8
        assert stats.n_unmaps == 1
        assert stats.end_time == 200

    def test_unmapped_bytes_counts_traces_created_before_unmap(self, small_log):
        stats = summarize_log(small_log)
        # Only trace 2 (120 B, module 1) existed when module 1 unmapped.
        assert stats.unmapped_trace_bytes == 120
        assert stats.unmapped_n_traces == 1
        assert stats.unmapped_fraction == pytest.approx(120 / 770)

    def test_median_trace_size(self, small_log):
        stats = summarize_log(small_log)
        # Sizes: 90, 100, 110, 120, 150, 200 -> median (110+120)/2.
        assert stats.median_trace_size == pytest.approx(115.0)

    def test_insertion_rate(self, small_log):
        stats = summarize_log(small_log)
        assert stats.insertion_rate_bytes_per_second == pytest.approx(770.0)

    def test_empty_log(self):
        log = TraceLog(benchmark="e", duration_seconds=2.0, code_footprint=10)
        stats = summarize_log(log)
        assert stats.n_traces == 0
        assert stats.unmapped_fraction == 0.0
        assert stats.median_trace_size == 0.0

    def test_trace_created_after_unmap_not_counted(self):
        log = TraceLog(benchmark="x", duration_seconds=1.0, code_footprint=10)
        log.append(TraceCreate(time=1, trace_id=0, size=100, module_id=5))
        log.append(ModuleUnmap(time=2, module_id=5))
        log.append(TraceCreate(time=3, trace_id=1, size=100, module_id=5))
        log.append(EndOfLog(time=4))
        stats = summarize_log(log)
        assert stats.unmapped_trace_bytes == 100

    def test_double_unmap_counts_each_generation(self):
        log = TraceLog(benchmark="x", duration_seconds=1.0, code_footprint=10)
        log.append(TraceCreate(time=1, trace_id=0, size=100, module_id=5))
        log.append(ModuleUnmap(time=2, module_id=5))
        log.append(TraceCreate(time=3, trace_id=1, size=50, module_id=5))
        log.append(ModuleUnmap(time=4, module_id=5))
        log.append(EndOfLog(time=5))
        stats = summarize_log(log)
        assert stats.unmapped_trace_bytes == 150
        assert stats.n_unmaps == 2

    def test_repeats_expand_in_access_count(self):
        log = TraceLog(benchmark="x", duration_seconds=1.0, code_footprint=10)
        log.append(TraceCreate(time=1, trace_id=0, size=100, module_id=0))
        log.append(TraceAccess(time=2, trace_id=0, repeat=17))
        stats = summarize_log(log)
        assert stats.n_accesses == 17


class TestCharacterizationOracles:
    """The summary's Figure 1 and Figure 6 numbers against the replay
    and the lifetime scan they replace."""

    @pytest.mark.parametrize(
        "profile", all_profiles(), ids=lambda profile: profile.name
    )
    def test_catalog_benchmark_matches_oracles(self, profile):
        log = synthesize_compiled(
            profile, seed=42, scale=profile.default_scale * 64
        )
        stats = summarize_log(log)
        assert stats.unbounded_bytes == _unbounded_high_water_mark(log)
        assert stats.lifetime_buckets == lifetime_histogram(log).counts

    def test_small_log_matches_oracles(self, small_log):
        stats = summarize_log(small_log)
        # Nothing re-enters trace 2 after module 1's unmap.
        assert stats.unbounded_bytes == 770
        assert stats.unbounded_bytes == _unbounded_high_water_mark(small_log)
        assert stats.lifetime_buckets == lifetime_histogram(small_log).counts

    def test_reentry_after_unmap_regenerates(self):
        log = _log(
            TraceCreate(time=0, trace_id=0, size=100, module_id=5),
            TraceCreate(time=1, trace_id=1, size=40, module_id=6),
            TracePin(time=2, trace_id=0),
            ModuleUnmap(time=3, module_id=5),
            TraceAccess(time=4, trace_id=0, repeat=3),
            TraceAccess(time=5, trace_id=0),
            TraceAccess(time=6, trace_id=1),
            ModuleUnmap(time=7, module_id=5),
            TraceAccess(time=8, trace_id=0),
            EndOfLog(time=10),
        )
        stats = summarize_log(log)
        # Two creations, then one regeneration after each unmap of
        # module 5; the repeats and the second access hit the copy.
        assert stats.unbounded_bytes == 140 + 100 + 100
        assert stats.unbounded_bytes == _unbounded_high_water_mark(log)
        assert stats.lifetime_buckets == lifetime_histogram(log).counts
        # Figure 4 still counts only the creation the unmap removed.
        assert stats.unmapped_trace_bytes == 100

    def test_recreation_after_unmap_is_a_creation(self):
        log = _log(
            TraceCreate(time=0, trace_id=0, size=100, module_id=5),
            ModuleUnmap(time=1, module_id=5),
            TraceCreate(time=2, trace_id=0, size=60, module_id=7),
            TraceAccess(time=3, trace_id=0),
            ModuleUnmap(time=4, module_id=7),
            TraceAccess(time=5, trace_id=0),
            EndOfLog(time=6),
        )
        stats = summarize_log(log)
        # The regeneration takes the latest creation's size.
        assert stats.unbounded_bytes == 100 + 60 + 60
        assert stats.unbounded_bytes == _unbounded_high_water_mark(log)
        assert stats.lifetime_buckets == lifetime_histogram(log).counts

    def test_double_unmap_of_one_module(self):
        log = _log(
            TraceCreate(time=0, trace_id=0, size=100, module_id=5),
            TraceCreate(time=1, trace_id=1, size=30, module_id=5),
            ModuleUnmap(time=2, module_id=5),
            ModuleUnmap(time=3, module_id=5),
            TraceAccess(time=4, trace_id=1),
            EndOfLog(time=5),
        )
        stats = summarize_log(log)
        assert stats.unbounded_bytes == 130 + 30
        assert stats.unbounded_bytes == _unbounded_high_water_mark(log)
        assert stats.lifetime_buckets == lifetime_histogram(log).counts
        assert stats.n_unmaps == 2

    def test_records_after_the_end_record(self):
        log = _log(
            TraceCreate(time=0, trace_id=0, size=100, module_id=5),
            ModuleUnmap(time=10, module_id=5),
            EndOfLog(time=20),
            TraceAccess(time=30, trace_id=0),
            TraceCreate(time=40, trace_id=1, size=70, module_id=6),
            TraceAccess(time=60, trace_id=1),
            EndOfLog(time=100),
        )
        stats = summarize_log(log)
        # Replay stops at the first end record; the other statistics
        # and the lifetimes cover the whole log.
        assert stats.unbounded_bytes == 100
        assert stats.unbounded_bytes == _unbounded_high_water_mark(log)
        assert stats.total_trace_bytes == 170
        assert stats.lifetime_buckets == (1, 1, 0, 0, 0)
        assert stats.lifetime_buckets == lifetime_histogram(log).counts

    def test_log_without_execution_time_has_empty_buckets(self):
        log = _log(TraceCreate(time=0, trace_id=0, size=100, module_id=5))
        stats = summarize_log(log)
        assert stats.unbounded_bytes == 100
        assert stats.lifetime_buckets == (0, 0, 0, 0, 0)
