"""The residency core (``fold_effects``, ``check_residency``) and the
batched loop's residency map against the caches it mirrors.

At the end of every replay the loop checks that each residency entry's
cache holds its trace, that the entry carries that cache's live record,
and that the map holds exactly as many entries as the caches hold
traces.  A manager that breaks the ``fastpath_safe`` contract — a
promotion that places a new record instead of moving the old one, or a
residency change with no effect — must trip that check.
"""

from __future__ import annotations

import pytest

from repro.cachesim.simulator import simulate_log
from repro.cachesim.stats import CacheStats
from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.effects import Promoted
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.errors import InvariantViolation
from repro.fastpath import compile_log, fold_effects, object_path
from repro.policies.base import CachedTrace
from repro.tracelog.records import EndOfLog, TraceAccess, TraceCreate, TraceLog
from tests.conftest import make_churn_log

CONFIG = GenerationalConfig(
    nursery_fraction=0.34,
    probation_fraction=0.33,
    persistent_fraction=0.33,
    promotion_threshold=1,
    promotion_mode=PromotionMode.ON_EVICTION,
)


class CopyingPromotions(GenerationalCacheManager):
    """Places a fresh copy on every promotion, so the record the fast
    path carries over is no longer the one the cache holds."""

    def _promote(self, trace, src, dst, time, effects):
        if trace.trace_id in src:
            src.remove(trace.trace_id)
        copy = CachedTrace(
            trace.trace_id, trace.size, trace.module_id, pinned=trace.pinned
        )
        super()._promote(copy, src, dst, time, effects)


class SilentUnmaps(GenerationalCacheManager):
    """Deletes an unmapped module's traces without reporting them."""

    def unmap_module(self, module_id, time):
        super().unmap_module(module_id, time)
        return []


def test_moved_records_pass_the_check():
    log = compile_log(make_churn_log())
    result = simulate_log(log, GenerationalCacheManager(1500, CONFIG))
    assert result.stats.promotions > 0
    assert result.stats.accesses == log.replayed_accesses()


def test_a_copied_promotion_fires_the_check():
    log = compile_log(make_churn_log())
    with pytest.raises(InvariantViolation) as info:
        simulate_log(log, CopyingPromotions(1500, CONFIG))
    assert info.value.invariant == "fastpath-residency"
    # The object path has no residency map to drift, and the manager's
    # caches stay consistent: only the fast path's contract is broken.
    with object_path():
        simulate_log(log, CopyingPromotions(1500, CONFIG))


def test_an_unreported_eviction_fires_the_check(small_log):
    with pytest.raises(InvariantViolation) as info:
        simulate_log(compile_log(small_log), SilentUnmaps(3000, CONFIG))
    assert info.value.invariant == "fastpath-residency"
    assert info.value.trace_id == 2  # the unmapped module's resident


def test_accesses_come_from_the_log_up_to_its_end_record():
    log = TraceLog(benchmark="tail", duration_seconds=1.0, code_footprint=100)
    for record in (
        TraceCreate(time=1, trace_id=0, size=40, module_id=0),
        TraceAccess(time=2, trace_id=0, repeat=3),
        EndOfLog(time=3),
        TraceAccess(time=4, trace_id=0, repeat=5),
    ):
        log.append(record)
    compiled = compile_log(log)
    assert compiled.replayed_accesses() == 3
    fast = simulate_log(compiled, UnifiedCacheManager(4096))
    with object_path():
        reference = simulate_log(log, UnifiedCacheManager(4096))
    assert fast.stats == reference.stats
    assert fast.stats.accesses == 3


def _shared_hit(process, gid, time, count, module_id):
    return ()


def _graduation(local: dict, shared: dict) -> dict:
    """Prototypes of one process's probation (plain, local map) and a
    shared persistent cache (handler, shared map)."""
    return {
        "probation": (local, "probation", None, None),
        "shared-persistent": (shared, "shared-persistent", _shared_hit, None),
    }


GRADUATE = Promoted(trace_id=7, size=40, src="probation", dst="shared-persistent")


def test_a_promotion_carries_its_record_into_the_destination_map():
    local, shared = {}, {}
    record = CachedTrace(7, 40, 0)
    local[7] = ("probation", None, record)
    stats = CacheStats()
    fold_effects([GRADUATE], _graduation(local, shared), stats)
    assert local == {}
    key, handler, carried = shared[7]
    assert (key, handler) == ("shared-persistent", _shared_hit)
    assert carried is record
    assert (stats.promotions, stats.promoted_bytes) == (1, 40)


def test_a_graduation_onto_a_shared_copy_keeps_the_destination_entry():
    # Another process already shared trace 7: the graduating process
    # drops its local record and attaches, so the shared map must keep
    # the entry that holds the shared copy's record.
    held = ("shared-persistent", _shared_hit, CachedTrace(7, 40, 0))
    local = {7: ("probation", None, CachedTrace(7, 40, 0))}
    shared = {7: held}
    stats = CacheStats()
    fold_effects([GRADUATE], _graduation(local, shared), stats)
    assert local == {}
    assert shared[7] is held
    assert (stats.promotions, stats.promoted_bytes) == (1, 40)
