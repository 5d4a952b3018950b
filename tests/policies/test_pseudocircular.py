"""Unit tests for the pseudo-circular local policy (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.errors import CacheFullError, DuplicateTraceError, TraceTooLargeError
from repro.policies.base import CachedTrace
from repro.policies.pseudocircular import PseudoCircularCache
from repro.rand import Random


def fill_sequential(cache: PseudoCircularCache, n: int, size: int = 100):
    """Insert traces 0..n-1 of equal size."""
    for trace_id in range(n):
        cache.insert(trace_id, size, module_id=0, time=trace_id)


class TestBasicRotation:
    def test_fills_empty_cache_without_eviction(self):
        cache = PseudoCircularCache(1000)
        for trace_id in range(10):
            result = cache.insert(trace_id, 100, 0)
            assert result.evicted == []
        assert cache.used_bytes == 1000

    def test_pointer_advances_with_insertions(self):
        cache = PseudoCircularCache(1000)
        cache.insert(1, 100, 0)
        assert cache.pointer == 100
        cache.insert(2, 300, 0)
        assert cache.pointer == 400

    def test_wraps_and_evicts_oldest_first(self):
        cache = PseudoCircularCache(1000)
        fill_sequential(cache, 10)  # full
        result = cache.insert(10, 100, 0)
        assert [t.trace_id for t in result.evicted] == [0]
        assert 0 not in cache
        assert 10 in cache

    def test_fifo_order_over_many_insertions(self):
        cache = PseudoCircularCache(500)
        evicted_order = []
        for trace_id in range(20):
            result = cache.insert(trace_id, 100, 0)
            evicted_order.extend(t.trace_id for t in result.evicted)
        # Strict FIFO: evictions happen in insertion order.
        assert evicted_order == list(range(15))

    def test_pointer_wraps_to_zero_at_capacity(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        assert cache.pointer == 0

    def test_large_insert_evicts_multiple(self):
        cache = PseudoCircularCache(1000)
        fill_sequential(cache, 10)
        result = cache.insert(100, 250, 0)
        assert [t.trace_id for t in result.evicted] == [0, 1, 2]

    def test_hits_do_not_affect_eviction_order(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        cache.touch(0, time=100, count=50)  # FIFO ignores recency
        result = cache.insert(3, 100, 0)
        assert [t.trace_id for t in result.evicted] == [0]


class TestPinnedTraces:
    def test_pinned_trace_never_evicted(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        cache.pin(0)
        for trace_id in range(3, 9):
            cache.insert(trace_id, 100, 0)
            assert 0 in cache

    def test_pointer_resets_after_pinned_run(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        cache.pin(0)
        result = cache.insert(3, 100, 0)
        # Trace 0 occupies [0,100); the insert wraps, skips it and
        # evicts trace 1 at [100,200).
        assert [t.trace_id for t in result.evicted] == [1]
        assert cache.arena.placement_of(3).start == 100

    def test_unpinned_trace_becomes_evictable(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        cache.pin(0)
        cache.insert(3, 100, 0)  # evicts 1
        cache.unpin(0)
        evicted = []
        for trace_id in range(4, 7):
            evicted.extend(
                t.trace_id for t in cache.insert(trace_id, 100, 0).evicted
            )
        assert 0 in evicted

    def test_all_pinned_raises_cache_full(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        for trace_id in range(3):
            cache.pin(trace_id)
        with pytest.raises(CacheFullError):
            cache.insert(99, 100, 0)

    def test_insert_fits_between_pinned_traces(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        cache.pin(0)
        cache.pin(2)
        result = cache.insert(3, 100, 0)
        assert [t.trace_id for t in result.evicted] == [1]
        assert cache.arena.placement_of(3).start == 100


class TestForcedEvictionsAndHoles:
    def test_remove_leaves_hole_that_rotation_ignores(self):
        cache = PseudoCircularCache(400)
        fill_sequential(cache, 4)
        cache.remove(1)  # hole at [100,200)
        # Pointer is at 0 (wrapped); next insert goes at 0, not the hole.
        result = cache.insert(4, 100, 0)
        assert cache.arena.placement_of(4).start == 0
        assert [t.trace_id for t in result.evicted] == [0]

    def test_fill_holes_mode_uses_hole_first(self):
        cache = PseudoCircularCache(400, fill_holes=True)
        fill_sequential(cache, 4)
        cache.remove(1)
        result = cache.insert(4, 100, 0)
        assert cache.arena.placement_of(4).start == 100
        assert result.evicted == []

    def test_fill_holes_set_after_construction_uses_hole_first(self):
        """Switching the flag on a built cache must leave the fused
        admit, which never fills holes."""
        cache = PseudoCircularCache(400)
        fill_sequential(cache, 4)
        cache.remove(1)
        cache.fill_holes = True
        result = cache.insert(4, 100, 0)
        assert cache.arena.placement_of(4).start == 100
        assert result.evicted == []

    def test_remove_module_removes_only_that_module(self):
        cache = PseudoCircularCache(400)
        cache.insert(0, 100, module_id=0)
        cache.insert(1, 100, module_id=7)
        cache.insert(2, 100, module_id=7)
        victims = cache.remove_module(7)
        assert sorted(t.trace_id for t in victims) == [1, 2]
        assert 0 in cache


class TestErrors:
    def test_trace_too_large(self):
        cache = PseudoCircularCache(100)
        with pytest.raises(TraceTooLargeError):
            cache.insert(1, 101, 0)

    def test_duplicate_insert(self):
        cache = PseudoCircularCache(300)
        cache.insert(1, 100, 0)
        with pytest.raises(DuplicateTraceError):
            cache.insert(1, 100, 0)

    def test_exact_capacity_trace_fits(self):
        cache = PseudoCircularCache(100)
        cache.insert(1, 100, 0)
        assert cache.used_bytes == 100


class TestInvariantsUnderChurn:
    def test_mixed_workload_stays_consistent(self):
        cache = PseudoCircularCache(1000)
        for trace_id in range(50):
            cache.insert(trace_id, 60 + (trace_id * 13) % 90, 0, time=trace_id)
            if trace_id % 7 == 0 and trace_id in cache:
                cache.pin(trace_id)
            if trace_id % 11 == 3:
                resident = cache.arena.trace_ids()
                victim = resident[len(resident) // 2]
                if not cache.get(victim).pinned:
                    cache.remove(victim)
            if trace_id % 13 == 5 and (trace_id - 5) in cache:
                cache.unpin(trace_id - 5)
            cache.check_invariants()
        assert cache.used_bytes <= cache.capacity


class GeneralPathCache(PseudoCircularCache):
    """Overriding a placement hook opts out of the fused admit, so this
    cache places through the general allocate/drop/place pipeline with
    the same policy."""

    def _allocate(self, trace):
        return super()._allocate(trace)


def detached(trace_id: int, size: int, pinned: bool = False) -> CachedTrace:
    """A record as a promotion hands it over: stale counters, maybe a
    pin."""
    return CachedTrace(
        trace_id, size, module_id=3, insert_time=1, access_count=9,
        last_access=2, pinned=pinned,
    )


class TestAdmit:
    def test_admit_places_the_given_record_with_fresh_counters(self):
        cache = PseudoCircularCache(1000)
        record = detached(7, 100)
        assert cache.admit(record, time=50) == []
        assert cache.get(7) is record
        assert (record.insert_time, record.access_count, record.last_access) == (
            50, 0, 50,
        )
        assert cache.arena.placement_of(7).start == 0
        assert cache.pointer == 100

    def test_admit_keeps_the_pin_and_the_pinned_count(self):
        for cache in (PseudoCircularCache(500), GeneralPathCache(500)):
            record = detached(0, 100, pinned=True)
            cache.admit(record, time=1)
            assert cache.get(0).pinned
            assert cache._pinned_count == 1
            cache.check_invariants()
            for trace_id in range(1, 12):
                cache.insert(trace_id, 100, 0, time=trace_id)
                cache.check_invariants()
            assert cache.get(0) is record

    def test_admit_returns_the_victim_records(self):
        cache = PseudoCircularCache(300)
        fill_sequential(cache, 3)
        victims = [cache.get(0), cache.get(1)]
        assert cache.admit(detached(9, 150), time=5) == victims
        assert 0 not in cache and 1 not in cache

    def test_admit_rejects_duplicates_and_oversized_records(self):
        cache = PseudoCircularCache(300)
        cache.insert(0, 100, 0)
        with pytest.raises(DuplicateTraceError):
            cache.admit(detached(0, 100), time=1)
        with pytest.raises(TraceTooLargeError):
            cache.admit(detached(1, 400), time=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_and_general_paths_agree(self, seed):
        """Same admits, removals and pins on the fused cache and on a
        general-path twin: same victims, placements and pointer after
        every step."""
        rng = Random(seed)
        fused, general = PseudoCircularCache(2000), GeneralPathCache(2000)
        assert fused._fused_admit and not general._fused_admit
        for step in range(300):
            action = rng.random()
            resident = fused.arena.trace_ids()
            if action < 0.08 and resident:
                victim = resident[rng.randrange(len(resident))]
                fused.remove(victim)
                general.remove(victim)
            elif action < 0.12 and resident:
                target = resident[rng.randrange(len(resident))]
                if fused.get(target).pinned:
                    fused.unpin(target)
                    general.unpin(target)
                elif fused._pinned_count < 2:
                    fused.pin(target)
                    general.pin(target)
            else:
                size = rng.randint(40, 260)
                got = fused.admit(detached(1000 + step, size), time=step)
                want = general.admit(detached(1000 + step, size), time=step)
                assert [t.trace_id for t in got] == [t.trace_id for t in want]
            assert fused.arena.placements() == general.arena.placements()
            assert fused.pointer == general.pointer
            fused.check_invariants()
            general.check_invariants()

    def test_hole_filling_matches_the_fused_path_without_holes(self):
        fused = PseudoCircularCache(1000)
        filling = PseudoCircularCache(1000, fill_holes=True)
        for trace_id in range(40):
            got = fused.admit(detached(trace_id, 300), time=trace_id)
            want = filling.admit(detached(trace_id, 300), time=trace_id)
            assert [t.trace_id for t in got] == [t.trace_id for t in want]
            assert fused.arena.placements() == filling.arena.placements()

