"""Cache groups: private / shared-persistent / shared-all behaviour."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.cachesim.stats import CacheStats
from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.effects import Evicted, EvictionReason, Promoted
from repro.errors import CacheFullError, ConfigError
from repro.fastpath import check_residency, fold_effects
from repro.shared.cache import SHARED_PERSISTENT
from repro.shared.manager import (
    PrivateCacheGroup,
    SharedAllGroup,
    SharedPersistentGroup,
    make_group,
)
from repro.shared.policy import (
    POLICY_VARIANTS,
    SharingConfig,
    SharingPolicy,
    TemperatureTracker,
    sharing_config_for,
)

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    HAVE_HYPOTHESIS = False

#: Nursery holds two 100-byte traces; probation and persistent are
#: roomy, so promotion flows are easy to drive deterministically.
CONFIG = GenerationalConfig(
    nursery_fraction=0.2, probation_fraction=0.4, persistent_fraction=0.4
)

CAPS = (1000, 1000)


def _shared_group(**sharing_kwargs) -> SharedPersistentGroup:
    sharing = SharingConfig(
        policy=SharingPolicy.SHARED_PERSISTENT, **sharing_kwargs
    )
    return make_group(CAPS, CONFIG, sharing)


def _graduate(group, process: int, gid: int, time: int) -> list:
    """Drive *gid* from nursery to the (shared) persistent cache: fill
    the nursery behind it, then hit it in probation (threshold 1)."""
    group.insert(process, gid, 100, module_id=0, time=time)
    filler = gid + 1000
    while group.lookup(process, gid) == "nursery":
        time += 1
        group.insert(process, filler, 100, module_id=0, time=time)
        filler += 1
    assert group.lookup(process, gid) == "probation"
    outcome = group.on_hit(process, gid, time + 1, 1, module_id=0)
    return outcome.effects


class TestMakeGroup:
    def test_policy_dispatch(self):
        assert isinstance(
            make_group(CAPS, CONFIG, sharing_config_for("private")),
            PrivateCacheGroup,
        )
        assert isinstance(
            make_group(CAPS, CONFIG, sharing_config_for("shared-persistent")),
            SharedPersistentGroup,
        )
        assert isinstance(
            make_group(CAPS, CONFIG, sharing_config_for("shared-all")),
            SharedAllGroup,
        )

    def test_temperature_requires_shared_persistent(self):
        sharing = SharingConfig(policy=SharingPolicy.PRIVATE, temperature=True)
        with pytest.raises(ConfigError, match="temperature"):
            make_group(CAPS, CONFIG, sharing)

    def test_equal_total_capacity_across_policies(self):
        totals = {
            variant: make_group(
                CAPS, CONFIG, sharing_config_for(variant)
            ).total_capacity
            for variant in ("private", "shared-persistent", "shared-all")
        }
        assert len(set(totals.values())) == 1, totals

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigError):
            make_group((), CONFIG, sharing_config_for("private"))


class TestPrivateGroup:
    def test_no_dedup_ever(self):
        group = make_group(CAPS, CONFIG, sharing_config_for("private"))
        first = group.insert(0, 7, 100, module_id=0, time=1)
        second = group.insert(1, 7, 100, module_id=0, time=2)
        assert not first.deduped and not second.deduped
        assert group.resident_copies()[7] == 2
        assert group.duplicated_bytes(lambda gid: 100) == 100
        group.check_invariants()


class TestSharedPersistentGroup:
    def test_promotion_reaches_shared_cache(self):
        group = _shared_group()
        effects = _graduate(group, process=0, gid=7, time=10)
        promoted = [e for e in effects if isinstance(e, Promoted)]
        assert [e.dst for e in promoted] == [SHARED_PERSISTENT]
        assert group.lookup(0, 7) == SHARED_PERSISTENT
        group.check_invariants()

    def test_insert_dedups_against_shared_copy(self):
        group = _shared_group()
        _graduate(group, process=0, gid=7, time=10)
        outcome = group.insert(1, 7, 100, module_id=3, time=50)
        assert outcome.deduped and outcome.effects == []
        assert group.shared.processes_of(7) == (0, 1)
        # One physical copy: nothing duplicated anywhere in the group.
        assert group.resident_copies()[7] == 1

    def test_hit_on_foreign_shared_copy_attaches(self):
        group = _shared_group()
        _graduate(group, process=0, gid=7, time=10)
        before = group.shared.trace(7).access_count
        outcome = group.on_hit(1, 7, 60, 2, module_id=3)
        assert outcome.cache == SHARED_PERSISTENT
        assert group.shared.processes_of(7) == (0, 1)
        touched = group.shared.trace(7)
        assert (touched.access_count, touched.last_access) == (before + 2, 60)

    def test_unmap_waits_for_last_sharer(self):
        group = _shared_group()
        _graduate(group, process=0, gid=7, time=10)
        group.insert(1, 7, 100, module_id=0, time=50)  # dedup attach

        effects = group.unmap_module(0, module_id=0, time=60)
        assert all(
            not (isinstance(e, Evicted) and e.trace_id == 7) for e in effects
        )
        assert group.lookup(1, 7) == SHARED_PERSISTENT

        effects = group.unmap_module(1, module_id=0, time=70)
        evictions = [
            e for e in effects if isinstance(e, Evicted) and e.trace_id == 7
        ]
        assert len(evictions) == 1
        assert evictions[0].reason is EvictionReason.UNMAP
        assert group.lookup(0, 7) is None and group.lookup(1, 7) is None
        group.check_invariants()

    def test_shared_pin_claims_are_refcounted(self):
        group = _shared_group()
        _graduate(group, process=0, gid=7, time=10)
        group.insert(1, 7, 100, module_id=0, time=50)
        assert group.pin(0, 7) and group.pin(1, 7)
        assert group.shared.trace(7).pinned

        group.unpin(0, 7)
        assert group.shared.trace(7).pinned  # process 1 still claims it
        group.unpin(1, 7)
        assert not group.shared.trace(7).pinned

    def test_unmap_drops_that_processs_pin_claim(self):
        group = _shared_group()
        _graduate(group, process=0, gid=7, time=10)
        group.insert(1, 7, 100, module_id=0, time=50)
        group.pin(0, 7)
        group.unmap_module(0, module_id=0, time=60)
        # Process 0 is gone, and so is its pin claim.
        assert not group.shared.trace(7).pinned

    def test_pinned_graduate_claim_goes_to_its_process(self):
        # No public call graduates a pinned trace (a pinned probation
        # hit stays put, and pinned traces are never displaced), so
        # drive the process's cascade directly.
        group = _shared_group()
        for gid in (7, 8, 9):
            group.insert(0, gid, 100, module_id=0, time=gid)
        group.pin(0, 7)
        manager = group._managers[0]
        trace = manager.probation.get(7)
        manager._promote(trace, manager.probation, manager.persistent, 10, [])
        assert group.shared.trace(7).pinned
        group.unpin(1, 7)  # process 1 holds no claim
        assert group.shared.trace(7).pinned
        group.unpin(0, 7)
        assert not group.shared.trace(7).pinned

    def test_pin_miss_returns_false(self):
        group = _shared_group()
        assert not group.pin(0, 99)
        assert not group.unpin(0, 99)


class TestGroupsFreedByReferenceCounting:
    """A replay builds one group per policy; one caught in a reference
    cycle would stay alive until a collector pass."""

    @pytest.mark.parametrize(
        "variant",
        ["private", "shared-persistent", "shared-persistent-temp", "shared-all"],
    )
    def test_used_group_dies_with_its_last_reference(self, variant):
        group = make_group(CAPS, CONFIG, sharing_config_for(variant))
        _graduate(group, process=0, gid=7, time=10)
        group.insert(1, 7, 100, module_id=0, time=50)
        group.pin(1, 7)
        group.unmap_module(0, module_id=0, time=60)
        entries = [group.hit_entries(p) for p in range(group.n_processes)]
        ref = weakref.ref(group)
        gc.disable()
        try:
            del group, entries
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("variant", ["shared-all", "shared-persistent"])
def test_pin_claims_die_with_their_copy(variant):
    """A claim from a process that pinned a copy without mapping it
    must not outlive the copy and keep a re-created copy pinned."""
    group = make_group(CAPS, CONFIG, sharing_config_for(variant))
    _graduate(group, process=0, gid=7, time=10)
    assert group.pin(1, 7)
    group.unmap_module(0, module_id=0, time=20)  # the copy dies
    assert group.lookup(0, 7) is None
    _graduate(group, process=0, gid=7, time=30)
    assert group.pin(0, 7) and group.unpin(0, 7)
    for cache in group._iter_caches():
        if 7 in cache:
            assert not cache.get(7).pinned
    group.check_invariants()


class TestTemperaturePromotion:
    def test_cold_trace_is_not_promoted(self):
        group = _shared_group(
            temperature=True, temperature_threshold=2.5,
            temperature_half_life=1_000_000,
        )
        group.insert(0, 7, 100, module_id=0, time=1)
        group.insert(0, 8, 100, module_id=0, time=2)
        group.insert(0, 9, 100, module_id=0, time=3)
        assert group.lookup(0, 7) == "probation"
        # Two hits leave the temperature at ~2 < 2.5: stays in probation
        # (the fixed threshold 1 would already have promoted it).
        group.on_hit(0, 7, 10, 1, module_id=0)
        group.on_hit(0, 7, 11, 1, module_id=0)
        assert group.lookup(0, 7) == "probation"
        group.on_hit(0, 7, 12, 1, module_id=0)
        assert group.lookup(0, 7) == SHARED_PERSISTENT

    def test_hot_probation_victim_graduates_on_eviction(self):
        group = _shared_group(temperature=True, temperature_half_life=1_000_000)
        group.insert(0, 7, 100, module_id=0, time=1)
        # Nursery hits warm the trace past the threshold (2.0).
        group.on_hit(0, 7, 2, 3, module_id=0)
        # Six more traces push it through the nursery and then out of
        # the 400-byte probation cache without a probation hit.
        effects = []
        for gid in range(8, 14):
            effects += group.insert(0, gid, 100, module_id=0, time=gid).effects
        assert Promoted(7, 100, "probation", SHARED_PERSISTENT) in effects
        assert group.lookup(0, 7) == SHARED_PERSISTENT

    def test_failed_on_hit_leaves_the_tracker_cold(self):
        group = _shared_group(temperature=True)
        with pytest.raises(KeyError):
            group.on_hit(0, 999, 10, 1, module_id=0)
        # A later insert of gid 999 must not start warm.
        assert group._tracker.temperature(999, time=10) == 0.0

    def test_tracker_decay_halves_per_half_life(self):
        tracker = TemperatureTracker(threshold=2.0, half_life=100)
        tracker.observe(1, time=0, count=4)
        assert tracker.temperature(1, time=0) == pytest.approx(4.0)
        assert tracker.temperature(1, time=100) == pytest.approx(2.0)
        assert tracker.temperature(1, time=200) == pytest.approx(1.0)
        assert tracker.is_hot(1, time=100)
        assert not tracker.is_hot(1, time=201)
        tracker.forget(1)
        assert tracker.temperature(1, time=0) == 0.0


class TestSharedAllGroup:
    def test_second_create_dedups(self):
        group = make_group(CAPS, CONFIG, sharing_config_for("shared-all"))
        first = group.insert(0, 7, 100, module_id=0, time=1)
        second = group.insert(1, 7, 100, module_id=0, time=2)
        assert not first.deduped and second.deduped
        assert group.resident_copies()[7] == 1
        assert group.duplicated_bytes(lambda gid: 100) == 0
        group.check_invariants()

    def test_unmap_refcounting(self):
        group = make_group(CAPS, CONFIG, sharing_config_for("shared-all"))
        group.insert(0, 7, 100, module_id=0, time=1)
        group.insert(1, 7, 100, module_id=0, time=2)

        assert group.unmap_module(0, module_id=0, time=3) == []
        assert group.lookup(1, 7) is not None

        effects = group.unmap_module(1, module_id=0, time=4)
        assert [e.trace_id for e in effects if isinstance(e, Evicted)] == [7]
        assert group.lookup(0, 7) is None
        group.check_invariants()

    def test_pin_claims_are_refcounted(self):
        group = make_group(CAPS, CONFIG, sharing_config_for("shared-all"))
        group.insert(0, 7, 100, module_id=0, time=1)
        assert group.pin(0, 7) and group.pin(1, 7)
        group.unpin(0, 7)
        group.unpin(1, 7)
        group.check_invariants()


#: Differential-test sizing: three processes whose hierarchies each
#: hold only a few of the candidate traces (the largest sizes overflow
#: a private nursery and take the oversized-trace fallback).
DIFF_CAPS = (500, 500, 500)
DIFF_SIZES = (40, 60, 90, 120)
DIFF_GIDS = 10


def _diff_sharing(variant: str) -> SharingConfig:
    if variant == "shared-persistent-temp":
        # A short half-life, so decay decides promotions within one
        # random sequence.
        return SharingConfig(
            policy=SharingPolicy.SHARED_PERSISTENT,
            temperature=True,
            temperature_half_life=20,
        )
    return sharing_config_for(variant)


def _state(group) -> tuple:
    """Everything a hit can change: residency and per-trace counters in
    every cache, LRU recency, the temperatures and the sharing
    bookkeeping."""
    caches = [
        (
            cache.name,
            [
                (t.trace_id, t.access_count, t.last_access, t.pinned)
                for t in cache.traces()
            ],
            list(getattr(cache, "_recency", ())),
        )
        for cache in group._iter_caches()
    ]
    tracker = getattr(group, "_tracker", None)
    shared = getattr(group, "shared", None)
    sharers = getattr(group, "_sharers", None) or getattr(shared, "sharers", None)
    return (
        group.resident_copies(),
        caches,
        dict(tracker._state) if tracker is not None else None,
        None if sharers is None else sharers.holders,
        None if sharers is None else sharers.pin_claims,
        None
        if shared is None
        else (shared.attach_reuses, shared.reused_bytes),
    )


def _apply(group, op, time):
    """Run one non-access operation the way the replay engines do."""
    kind, process, gid, module, _count, _advance = op
    if kind == "insert":
        if group.lookup(process, gid) is not None:
            return "resident"  # engines only (re)insert missing traces
        outcome = group.insert(
            process, gid, DIFF_SIZES[gid % len(DIFF_SIZES)], module, time
        )
        return outcome.effects, outcome.deduped
    if kind == "unmap":
        return group.unmap_module(process, module, time)
    if kind == "pin":
        return group.pin(process, gid)
    return group.unpin(process, gid)


def _reference_access(group, process, gid, time, count, module):
    """The reference simulator's access: lookup, then on_hit."""
    if group.lookup(process, gid) is None:
        return None
    outcome = group.on_hit(process, gid, time, count, module)
    return outcome.cache, outcome.effects


class _ResidencyMaps:
    """Residency maps kept the way ``FleetSimulator`` keeps them, through
    the production fold and drift check: one map for the shared caches,
    one per process for its local caches, each gid -> ``(cache name,
    handler, trace record)``."""

    def __init__(self, group):
        self.group = group
        self.shared = {}
        self.local = [{} for _ in range(group.n_processes)]
        self.protos = [
            {
                name: (self.shared if shared else local, name, handler, cache)
                for name, shared, handler, cache in group.hit_entries(
                    process
                ).values()
            }
            for process, local in enumerate(self.local)
        ]
        self.stats = CacheStats()

    def fold(self, process, effects):
        fold_effects(effects, self.protos[process], self.stats)

    def access(self, process, gid, time, count, module):
        """Serve an access from the maps: None when not resident."""
        entry = self.local[process].get(gid) or self.shared.get(gid)
        if entry is None:
            return None
        name, handler, trace = entry
        if handler is None:
            trace.access_count += count
            trace.last_access = time
            return name, []
        effects = list(handler(process, gid, time, count, module))
        self.fold(process, effects)
        return name, effects

    def assert_agrees(self):
        """Every cache holds exactly the gids its map entries name, and
        every entry holds the live trace record."""
        views = list(zip(self.local, self.protos))
        views.append((self.shared, self.protos[0]))
        check_residency(views, sum(self.group.resident_copies().values()))


def _folded(maps, process, result):
    """Fold an applied operation's effects into *maps*; returns
    *result* unchanged."""
    if isinstance(result, tuple):  # insert: (effects, deduped)
        maps.fold(process, result[0])
    elif isinstance(result, list):  # unmap
        maps.fold(process, result)
    return result


def _guarded(call, *args):
    """A starved, pin-blocked cache legitimately raises CacheFullError;
    both paths must agree on that too."""
    try:
        return call(*args)
    except CacheFullError:
        return "cache-full"


if HAVE_HYPOTHESIS:

    #: Random operation sequences: (kind, process, gid, module, hit
    #: count, time advance).
    DIFF_OPS = st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "insert", "access", "access", "access",
                 "unmap", "pin", "unpin"]
            ),
            st.integers(min_value=0, max_value=len(DIFF_CAPS) - 1),
            st.integers(min_value=0, max_value=DIFF_GIDS - 1),
            st.integers(min_value=0, max_value=2),  # module
            st.integers(min_value=1, max_value=3),  # hit count
            st.integers(min_value=0, max_value=12),  # time advance
        ),
        max_size=80,
    )

    class TestOneCallHit:
        """A hit served the fleet engine's way, from residency maps
        folded from effects plus the groups' ``hit_entries``, must be
        exactly ``lookup`` + ``on_hit``: same returns, same state, on
        random operation sequences over every group; and the maps must
        agree with the caches after every step."""

        @pytest.mark.parametrize(
            "mode", list(PromotionMode), ids=lambda mode: mode.value
        )
        @pytest.mark.parametrize("variant", POLICY_VARIANTS)
        @settings(max_examples=40, deadline=None)
        # Two processes each push gid 0 from nursery to probation and
        # then promote it: the second graduation lands on the copy the
        # first already shared, and the fold must keep that entry.
        @example(
            ops=[
                ("insert", 0, 0, 0, 1, 1),
                ("insert", 1, 0, 0, 1, 1),
                ("insert", 0, 1, 0, 1, 1),
                ("insert", 0, 4, 0, 1, 1),
                ("insert", 1, 1, 0, 1, 1),
                ("insert", 1, 4, 0, 1, 1),
                ("access", 0, 0, 0, 3, 1),
                ("access", 1, 0, 0, 3, 1),
            ]
        )
        @given(ops=DIFF_OPS)
        def test_hit_matches_lookup_plus_on_hit(self, variant, mode, ops):
            _check_one_call_hits(variant, _diff_config(mode), ops)

        @pytest.mark.parametrize("variant", POLICY_VARIANTS)
        @settings(max_examples=30, deadline=None)
        # A nursery hit on the older of two traces reorders recency.
        @example(
            ops=[
                ("insert", 0, 0, 0, 1, 1),
                ("insert", 0, 1, 0, 1, 1),
                ("access", 0, 0, 0, 1, 1),
            ]
        )
        @given(ops=DIFF_OPS)
        def test_touch_hooks_run_on_one_call_hits(self, variant, ops):
            """LRU caches keep recency in a touch hook, so no hit on
            them is plain and every handler must run the hook."""
            config = dataclasses.replace(
                _diff_config(PromotionMode.ON_HIT), local_policy="lru"
            )
            _check_one_call_hits(variant, config, ops)

    def _diff_config(mode: PromotionMode) -> GenerationalConfig:
        return GenerationalConfig(
            nursery_fraction=0.2,
            probation_fraction=0.4,
            persistent_fraction=0.4,
            promotion_threshold=2,
            promotion_mode=mode,
        )

    def _check_one_call_hits(variant, config, ops):
        """Run *ops* on two identical groups, one answering accesses
        with ``lookup`` + ``on_hit``, the other from residency maps and
        ``hit_entries``; returns and state must agree after each op."""
        reference = make_group(DIFF_CAPS, config, _diff_sharing(variant))
        candidate = make_group(DIFF_CAPS, config, _diff_sharing(variant))
        maps = _ResidencyMaps(candidate)
        time = 0
        for op in ops:
            kind, process, gid, module, count, advance = op
            time += advance
            if kind == "access":
                args = (process, gid, time, count, module)
                before = _state(candidate)
                expected = _guarded(_reference_access, reference, *args)
                got = _guarded(maps.access, *args)
                assert got == expected, op
                if expected is None:
                    # Not resident: nothing may change.
                    assert _state(candidate) == before, op
            else:
                expected = _guarded(_apply, reference, op, time)
                got = _guarded(
                    lambda: _folded(maps, process, _apply(candidate, op, time))
                )
                assert got == expected, op
            assert _state(candidate) == _state(reference), op
            if expected == "cache-full":
                return  # a failed placement ends the sequence
            maps.assert_agrees()
