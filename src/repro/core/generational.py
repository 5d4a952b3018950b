"""Generational code-cache management (Section 5, Figures 7 and 8).

Three caches, most-junior first:

* **nursery** — every newly generated trace is inserted here;
* **probation** — a victim-cache-like filter: traces evicted from the
  nursery land here and must prove they are still live;
* **persistent** — traces that hit in probation (reaching the promotion
  threshold) are relocated here and protected from nursery churn.

Traces evicted from probation without reaching the threshold, and
traces evicted from the persistent cache, are deleted — they must be
regenerated if executed again.  Each cache runs the paper's
pseudo-circular local policy (configurable).

The cascade exists once, here.  A shared-persistent cache group
(:mod:`repro.shared.manager`) runs one manager per process over that
process's view of a pooled persistent cache, through three internal
seams: the qualification test (:meth:`_qualifies`), where in the
cascade it runs (a probation hit, a probation eviction, or both), and
the oversized-trace fallback (:meth:`_fallback`).

The entry point mirroring Figure 8's ``insertNewTrace`` is
:meth:`GenerationalCacheManager.insert`; unlike the pseudocode, the
implementation handles the general case where placing one trace
displaces *several* residents, cascading each displacement through the
same promotion rules.  A promotion moves the trace's record: the
caches' one placement primitive, :meth:`CodeCache.admit`, places the
record the junior cache released instead of allocating a new one.
"""

from __future__ import annotations

from repro.core.config import GenerationalConfig, PromotionMode
from repro.core.manager import (
    AccessOutcome,
    CacheManager,
    Effect,
    Evicted,
    EvictionReason,
    Inserted,
    Promoted,
    make_cache,
)
from repro.policies.base import CachedTrace, CodeCache

NURSERY = "nursery"
PROBATION = "probation"
PERSISTENT = "persistent"


class GenerationalCacheManager(CacheManager):
    """Nursery / probation / persistent hierarchy."""

    # Every residency change (insert cascades, promotions, unmaps)
    # emits its effect, so the effect stream is complete, and every
    # promotion admits the record it moves.
    fastpath_safe = True

    def __init__(
        self,
        total_capacity: int,
        config: GenerationalConfig,
        persistent: CodeCache | None = None,
    ) -> None:
        """*persistent*, when given, replaces the persistent cache the
        configured fraction would build (a shared-persistent group
        passes each process's view of its pooled cache)."""
        nursery_size, probation_size, persistent_size = config.sizes(total_capacity)
        policy = config.local_policy
        self.nursery = make_cache(policy, nursery_size, NURSERY)
        self.probation = make_cache(policy, probation_size, PROBATION)
        if persistent is None:
            persistent = make_cache(policy, persistent_size, PERSISTENT)
        self.persistent = persistent
        self.config = config
        self.name = f"generational[{config.label()}]"
        self._by_name = {cache.name: cache for cache in self.caches()}
        # Where the qualification test runs; hoisted for the per-hit
        # fast path.
        self._promote_on_hit = config.promotion_mode is PromotionMode.ON_HIT
        self._promote_on_eviction = not self._promote_on_hit
        self._threshold = config.promotion_threshold

    def caches(self) -> list[CodeCache]:
        return [self.nursery, self.probation, self.persistent]

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------

    def on_hit(self, trace_id: int, time: int, count: int = 1) -> AccessOutcome:
        """Record a hit; in on-hit promotion mode a probation hit that
        qualifies the trace (:meth:`_qualifies`) relocates it to the
        persistent cache immediately."""
        for cache in self.caches():
            if trace_id in cache:
                if cache is self.probation and self._promote_on_hit:
                    effects = list(self._probation_hit(trace_id, time, count))
                else:
                    cache.touch(trace_id, time, count)
                    effects = []
                return AccessOutcome(cache=cache.name, effects=effects)
        raise KeyError(f"on_hit called for non-resident trace {trace_id}")

    def hit_handler(self, cache_name: str):
        cache = self._by_name[cache_name]
        if cache is self.probation and self._promote_on_hit:
            return self._probation_hit
        # Nursery/persistent hits never emit effects, and neither do
        # probation hits under on-eviction promotion.
        return cache.record_hits

    def plain_hit_caches(self) -> frozenset[str]:
        plain = {
            cache.name
            for cache in (self.nursery, self.persistent)
            if cache.plain_touch
        }
        # Probation hits stay plain only under on-eviction promotion;
        # on-hit mode must run the threshold check on every hit.
        if self.probation.plain_touch and not self._promote_on_hit:
            plain.add(PROBATION)
        return frozenset(plain)

    def _probation_hit(self, trace_id: int, time: int, count: int):
        """Probation hit handler under on-hit promotion: touch, then
        relocate to the persistent cache once the trace qualifies."""
        trace = self.probation.touch_resident(trace_id, time, count)
        if not trace.pinned and self._qualifies(trace, time):
            effects: list[Effect] = []
            self._promote(trace, self.probation, self.persistent, time, effects)
            return effects
        return ()

    # ------------------------------------------------------------------
    # Insertions (Figure 8)
    # ------------------------------------------------------------------

    def insert(
        self, trace_id: int, size: int, module_id: int, time: int
    ) -> list[Effect]:
        """Insert a newly generated trace into the nursery, cascading
        displaced traces per the generational rules.

        This is Figure 8's ``insertNewTrace``, generalized to
        multi-victim placements (see :meth:`_cascade`).  A trace too
        large for the nursery (possible under extreme proportions) goes
        to the cache :meth:`_fallback` picks, so an oversized trace
        degrades placement instead of aborting the run.  A trace no
        cache can hold stays uncached — the system executes it from the
        basic-block cache, paying a regeneration on every entry."""
        effects: list[Effect] = []
        target = self.nursery
        if size > target.capacity:
            target = self._fallback(size)
            if target is None:
                return effects  # uncacheable: no cache will ever hold it
        trace = CachedTrace(trace_id, size, module_id, time, 0, time, False)
        victims = target.admit(trace, time)
        effects.append(Inserted(trace_id, size, target.name))
        if victims:
            self._cascade(target, victims, time, effects)
        return effects

    def _cascade(
        self,
        cache: CodeCache,
        victims: list[CachedTrace],
        time: int,
        effects: list[Effect],
    ) -> None:
        """Route the traces a placement in *cache* displaced: nursery
        victims come of age and move to probation; a probation victim
        graduates to the persistent cache (on-eviction mode, hit count
        at the threshold, Section 5.3) or dies; persistent victims
        die."""
        for victim in victims:
            if cache is self.nursery:
                self._promote(victim, cache, self.probation, time, effects)
            elif (
                cache is self.probation
                and self._promote_on_eviction
                and self._qualifies(victim, time)
            ):
                self._promote(victim, cache, self.persistent, time, effects)
            else:
                effects.append(
                    Evicted(
                        victim.trace_id, victim.size, cache.name,
                        EvictionReason.CAPACITY,
                    )
                )

    def _promote(
        self,
        trace: CachedTrace,
        src: CodeCache,
        dst: CodeCache,
        time: int,
        effects: list[Effect],
    ) -> None:
        """Move the record *trace* from *src* to *dst*, cascading the
        traces the placement displaces.

        The trace may already be detached from *src* (when it arrived
        here as an eviction victim); if still resident (an on-hit
        promotion) it is removed first.  :meth:`CodeCache.admit`
        places the same record, so the pin travels with it.  A trace
        too large for *dst* cannot be relocated and is deleted instead.
        """
        if trace.trace_id in src:
            src.remove(trace.trace_id)
        if trace.size > dst.capacity:
            effects.append(
                Evicted(
                    trace.trace_id, trace.size, src.name, EvictionReason.CAPACITY
                )
            )
            return
        victims = dst.admit(trace, time)
        effects.append(Promoted(trace.trace_id, trace.size, src.name, dst.name))
        if victims:
            self._cascade(dst, victims, time, effects)

    # ------------------------------------------------------------------
    # Seams
    # ------------------------------------------------------------------

    def _qualifies(self, trace: CachedTrace, time: int) -> bool:
        """Whether the probation trace *trace* has earned the persistent
        cache: its probation hit count reached the threshold."""
        return trace.access_count >= self._threshold

    def _fallback(self, size: int) -> CodeCache | None:
        """The cache for a trace too large for the nursery: the largest
        one that fits it (probation on a tie), or None."""
        fitting = [
            cache
            for cache in (self.probation, self.persistent)
            if cache.capacity >= size
        ]
        return max(fitting, key=lambda cache: cache.capacity, default=None)
