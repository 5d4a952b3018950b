"""Unit tests for the generational manager (Figure 8's algorithm)."""

from __future__ import annotations

import pytest

from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.effects import Evicted, EvictionReason, Inserted, Promoted
from repro.core.generational import GenerationalCacheManager


def equal_thirds(threshold: int = 1, mode: PromotionMode = PromotionMode.ON_HIT):
    return GenerationalConfig(
        nursery_fraction=0.34,
        probation_fraction=0.33,
        persistent_fraction=0.33,
        promotion_threshold=threshold,
        promotion_mode=mode,
    )


def make_manager(
    total: int = 900,
    threshold: int = 1,
    mode: PromotionMode = PromotionMode.ON_HIT,
) -> GenerationalCacheManager:
    return GenerationalCacheManager(total, equal_thirds(threshold, mode))


def fill_nursery(manager: GenerationalCacheManager, n: int, size: int = 100, base: int = 0):
    for i in range(n):
        manager.insert(base + i, size, 0, time=base + i)


class TestBasicFlow:
    def test_new_trace_lands_in_nursery(self):
        manager = make_manager()
        effects = manager.insert(1, 100, 0, time=0)
        assert effects == [Inserted(trace_id=1, size=100, cache="nursery")]
        assert manager.lookup(1) == "nursery"

    def test_nursery_eviction_promotes_to_probation(self):
        manager = make_manager()  # nursery 306 bytes -> 3 traces of 100
        fill_nursery(manager, 3)
        effects = manager.insert(3, 100, 0, time=3)
        promotions = [e for e in effects if isinstance(e, Promoted)]
        assert promotions == [
            Promoted(trace_id=0, size=100, src="nursery", dst="probation")
        ]
        assert manager.lookup(0) == "probation"

    def test_probation_eviction_without_hits_deletes(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        # Push enough traces through that probation (297 bytes) evicts.
        all_effects = []
        for trace_id in range(8):
            all_effects.extend(manager.insert(trace_id, 100, 0, time=trace_id))
        deleted = [
            e for e in all_effects
            if isinstance(e, Evicted) and e.cache == "probation"
        ]
        assert deleted, "probation must have deleted unhit traces"
        for effect in deleted:
            assert effect.reason is EvictionReason.CAPACITY
            assert manager.lookup(effect.trace_id) is None

    def test_trace_lives_in_exactly_one_cache(self):
        manager = make_manager()
        for trace_id in range(20):
            manager.insert(trace_id, 90, 0, time=trace_id)
            manager.check_invariants()


class TestOnHitPromotion:
    def test_single_probation_hit_promotes_to_persistent(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)  # trace 0 -> probation
        assert manager.lookup(0) == "probation"
        outcome = manager.on_hit(0, time=10)
        promotions = [e for e in outcome.effects if isinstance(e, Promoted)]
        assert promotions == [
            Promoted(trace_id=0, size=100, src="probation", dst="persistent")
        ]
        assert manager.lookup(0) == "persistent"
        assert outcome.cache == "probation"

    def test_nursery_hit_never_promotes(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        manager.insert(0, 100, 0, time=0)
        outcome = manager.on_hit(0, time=1, count=50)
        assert outcome.effects == []
        assert manager.lookup(0) == "nursery"

    def test_threshold_two_needs_two_hits(self):
        manager = make_manager(threshold=2, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)
        manager.on_hit(0, time=10)
        assert manager.lookup(0) == "probation"
        manager.on_hit(0, time=11)
        assert manager.lookup(0) == "persistent"

    def test_repeat_counts_accumulate_toward_threshold(self):
        manager = make_manager(threshold=5, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)
        manager.on_hit(0, time=10, count=5)
        assert manager.lookup(0) == "persistent"

    def test_persistent_hit_is_plain_hit(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)
        manager.on_hit(0, time=10)  # promoted to persistent
        outcome = manager.on_hit(0, time=11)
        assert outcome.cache == "persistent"
        assert outcome.effects == []


class TestOnEvictionPromotion:
    def test_hit_trace_graduates_at_probation_eviction(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_EVICTION)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)  # 0 -> probation
        manager.on_hit(0, time=5)  # count 1 in probation; stays put
        assert manager.lookup(0) == "probation"
        # Push probation to evict trace 0.
        all_effects = []
        for trace_id in range(4, 11):
            all_effects.extend(manager.insert(trace_id, 100, 0, time=trace_id))
        graduate = [
            e for e in all_effects
            if isinstance(e, Promoted) and e.dst == "persistent"
        ]
        assert [e.trace_id for e in graduate] == [0]
        assert manager.lookup(0) == "persistent"

    def test_unhit_trace_dies_at_probation_eviction(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_EVICTION)
        all_effects = []
        for trace_id in range(12):
            all_effects.extend(manager.insert(trace_id, 100, 0, time=trace_id))
        died = [
            e.trace_id for e in all_effects
            if isinstance(e, Evicted) and e.cache == "probation"
        ]
        assert died
        assert all(manager.lookup(t) is None for t in died)

    def test_below_threshold_dies(self):
        manager = make_manager(threshold=10, mode=PromotionMode.ON_EVICTION)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)
        manager.on_hit(0, time=5, count=9)  # 9 < 10
        for trace_id in range(4, 11):
            manager.insert(trace_id, 100, 0, time=trace_id)
        assert manager.lookup(0) is None


class TestPersistentChurn:
    def test_persistent_eviction_deletes(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        # Promote four 100-byte traces into a 297-byte persistent cache.
        all_effects = []
        for round_no in range(6):
            base = round_no * 10
            fill_nursery(manager, 3, base=base)
            all_effects.extend(manager.insert(base + 3, 100, 0, time=base + 3))
            probation_resident = [
                t for t in (base, base + 1, base + 2, base + 3)
                if manager.lookup(t) == "probation"
            ]
            for trace_id in probation_resident:
                all_effects.extend(
                    manager.on_hit(trace_id, time=base + 5).effects
                )
        persistent_deaths = [
            e for e in all_effects
            if isinstance(e, Evicted) and e.cache == "persistent"
        ]
        assert persistent_deaths, "persistent cache must eventually evict"
        manager.check_invariants()


class TestUnmapAndPins:
    def test_unmap_removes_from_all_caches(self):
        manager = make_manager()
        fill_nursery(manager, 3)  # traces 0-2 in nursery
        manager.insert(3, 100, 0, time=3)  # 0 -> probation
        manager.on_hit(0, time=5)  # 0 -> persistent
        manager.insert(4, 100, 0, time=6)  # 1 -> probation
        assert manager.lookup(1) == "probation"
        # All traces belong to module 0; unmap module 0.
        effects = manager.unmap_module(0, time=10)
        assert {e.cache for e in effects} == {"nursery", "probation", "persistent"}
        for trace_id in range(5):
            assert manager.lookup(trace_id) is None

    def test_pinned_trace_survives_churn_in_nursery(self):
        manager = make_manager()
        manager.insert(0, 100, 0, time=0)
        manager.pin(0)
        for trace_id in range(1, 15):
            manager.insert(trace_id, 100, 0, time=trace_id)
        assert manager.lookup(0) == "nursery"

    def test_oversized_trace_falls_back_to_largest_cache(self):
        config = GenerationalConfig(
            nursery_fraction=0.10,
            probation_fraction=0.10,
            persistent_fraction=0.80,
            promotion_threshold=1,
        )
        manager = GenerationalCacheManager(1000, config)
        effects = manager.insert(0, 500, 0, time=0)  # > nursery (100 B)
        inserted = [e for e in effects if isinstance(e, Inserted)]
        assert inserted[0].cache == "persistent"
        assert manager.lookup(0) == "persistent"

    def test_trace_too_big_for_probation_is_deleted_not_crashed(self):
        config = GenerationalConfig(
            nursery_fraction=0.60,
            probation_fraction=0.05,
            persistent_fraction=0.35,
            promotion_threshold=1,
        )
        manager = GenerationalCacheManager(1000, config)
        # 300-byte traces fit the 600-byte nursery but not the 50-byte
        # probation cache; nursery evictions must delete them cleanly.
        all_effects = []
        for trace_id in range(6):
            all_effects.extend(manager.insert(trace_id, 300, 0, time=trace_id))
        deleted = [e for e in all_effects if isinstance(e, Evicted)]
        assert deleted
        manager.check_invariants()


class TestNaming:
    def test_manager_name_carries_config_label(self):
        manager = make_manager()
        assert "34-33-33" in manager.name

    def test_cache_names(self):
        manager = make_manager()
        assert [c.name for c in manager.caches()] == [
            "nursery", "probation", "persistent",
        ]


class TestPromotionsMoveTheRecord:
    """A promotion admits the record the junior cache released, so a
    trace keeps one CachedTrace from creation to deletion."""

    def test_one_record_from_nursery_to_persistent(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        record = manager.nursery.get(0)
        manager.on_hit(0, time=2, count=4)
        assert (record.access_count, record.last_access) == (4, 2)
        manager.insert(3, 100, 0, time=3)  # 0 comes of age
        assert manager.probation.get(0) is record
        assert (record.insert_time, record.access_count, record.last_access) == (
            3, 0, 3,
        )
        manager.on_hit(0, time=10)  # single-hit promotion
        assert manager.persistent.get(0) is record
        assert (record.insert_time, record.access_count, record.last_access) == (
            10, 0, 10,
        )
        manager.check_invariants()

    def test_graduation_at_probation_eviction_moves_the_record(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_EVICTION)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)  # 0 -> probation
        record = manager.probation.get(0)
        manager.on_hit(0, time=5)
        for trace_id in range(4, 11):
            manager.insert(trace_id, 100, 0, time=trace_id)
        assert manager.persistent.get(0) is record
        assert record.access_count == 0
        assert record.insert_time == record.last_access >= 4
        manager.check_invariants()

    def test_pinned_probation_trace_is_not_promoted_on_hit(self):
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)  # 0 -> probation
        manager.pin(0)
        assert manager.on_hit(0, time=10).effects == []
        assert manager.lookup(0) == "probation"

    def test_on_hit_promotion_of_a_pinned_trace_keeps_the_pin(self):
        # The public hit path never promotes a pinned trace (see the
        # test above); the promotion routine it calls must still carry
        # a pin, and the pinned counts, across the move.
        manager = make_manager(threshold=1, mode=PromotionMode.ON_HIT)
        fill_nursery(manager, 3)
        manager.insert(3, 100, 0, time=3)  # 0 -> probation
        manager.pin(0)
        record = manager.probation.get(0)
        effects = []
        manager._promote(
            record, manager.probation, manager.persistent, 10, effects
        )
        assert effects == [
            Promoted(trace_id=0, size=100, src="probation", dst="persistent")
        ]
        assert manager.persistent.get(0) is record
        assert record.pinned
        assert manager.probation._pinned_count == 0
        assert manager.persistent._pinned_count == 1
        for cache in manager.caches():
            cache.check_invariants()
        manager.check_invariants()
        # Still undeletable in its new home: persistent churn evicts
        # around it.
        churn = []
        for round_no in range(1, 5):
            base = round_no * 10
            fill_nursery(manager, 3, base=base)
            churn.extend(manager.insert(base + 3, 100, 0, time=base + 3))
            for trace_id in range(base, base + 4):
                if manager.lookup(trace_id) == "probation":
                    churn.extend(manager.on_hit(trace_id, time=base + 5).effects)
        assert any(
            isinstance(e, Evicted) and e.cache == "persistent" for e in churn
        )
        assert manager.persistent.get(0) is record
        manager.check_invariants()

    def test_oversized_fallback_admits_a_fresh_record(self):
        config = GenerationalConfig(
            nursery_fraction=0.10,
            probation_fraction=0.10,
            persistent_fraction=0.80,
            promotion_threshold=1,
        )
        manager = GenerationalCacheManager(1000, config)
        manager.insert(0, 500, 7, time=4)
        record = manager.persistent.get(0)
        assert (record.size, record.module_id, record.insert_time) == (500, 7, 4)
        assert not record.pinned
        manager.check_invariants()
