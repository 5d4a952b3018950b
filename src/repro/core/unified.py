"""The unified single-cache baseline.

The paper's baseline for every benchmark is "a single pseudo-circular
cache sized at (maxCache * 0.5)" (Section 6).  This manager wraps one
local cache — pseudo-circular by default, any registered policy on
request — behind the :class:`~repro.core.manager.CacheManager`
interface.
"""

from __future__ import annotations

from repro.core.manager import (
    AccessOutcome,
    CacheManager,
    Effect,
    Evicted,
    EvictionReason,
    Inserted,
    make_cache,
)
from repro.policies.base import CodeCache
from repro.policies.flush import PreemptiveFlushCache


class UnifiedCacheManager(CacheManager):
    """One code cache under one local policy."""

    # Every residency change goes through insert/unmap, which report
    # all victims, so the effect stream is complete.
    fastpath_safe = True

    def __init__(
        self,
        capacity: int,
        local_policy: str = "pseudo-circular",
        cache_name: str = "unified",
    ) -> None:
        self._cache: CodeCache = make_cache(local_policy, capacity, cache_name)
        self.name = f"unified[{local_policy}]"
        self._is_flush_cache = isinstance(self._cache, PreemptiveFlushCache)

    @property
    def cache(self) -> CodeCache:
        """The single managed cache."""
        return self._cache

    def caches(self) -> list[CodeCache]:
        return [self._cache]

    def on_hit(self, trace_id: int, time: int, count: int = 1) -> AccessOutcome:
        self._cache.touch(trace_id, time, count)
        return AccessOutcome(cache=self._cache.name, effects=[])

    def hit_handler(self, cache_name: str):
        # Unified hits never emit effects: hand the cache's flat
        # touch-and-return-no-effects method straight to the loop.
        return self._cache.record_hits

    def plain_hit_caches(self) -> frozenset[str]:
        if self._cache.plain_touch:
            return frozenset((self._cache.name,))
        return frozenset()

    def insert(
        self, trace_id: int, size: int, module_id: int, time: int
    ) -> list[Effect]:
        result = self._cache.insert(trace_id, size, module_id, time)
        reason = (
            EvictionReason.FLUSH
            if self._is_flush_cache and result.flushed
            else EvictionReason.CAPACITY
        )
        name = self._cache.name
        effects: list[Effect] = [
            Evicted(victim.trace_id, victim.size, name, reason)
            for victim in result.evicted
        ]
        effects.append(Inserted(trace_id, size, name))
        return effects
