"""The CacheManager interface and the effect records managers emit.

A manager owns one or more :class:`~repro.policies.base.CodeCache`
instances and exposes the operations a replaying simulator needs:
lookup, hit notification, insertion (on creation or regeneration),
module unmap, and pinning.  Every mutation returns the list of
*effects* it caused — insertions, evictions, inter-cache promotions —
which is what the overhead model prices.
"""

from __future__ import annotations

import abc

from repro.core.effects import (
    AccessOutcome,
    Effect,
    Evicted,
    EvictionReason,
    Inserted,
    Promoted,
)
from repro.errors import ConfigError, InvariantViolation
from repro.policies import POLICIES
from repro.policies.base import CodeCache

__all__ = [
    "AccessOutcome",
    "CacheManager",
    "Effect",
    "Evicted",
    "EvictionReason",
    "Inserted",
    "Promoted",
    "make_cache",
]


def make_cache(policy: str, capacity: int, name: str) -> CodeCache:
    """A *capacity*-byte cache named *name* under the local *policy* (a
    key of :data:`repro.policies.POLICIES`).

    Raises:
        ConfigError: for an unknown policy name.
    """
    policy_class = POLICIES.get(policy)
    if policy_class is None:
        raise ConfigError(
            f"unknown local policy {policy!r}; choose from {sorted(POLICIES)}"
        )
    return policy_class(capacity, name=name)


class CacheManager(abc.ABC):
    """Global management of one or more code caches."""

    #: Human-readable manager description for reports.
    name: str = "abstract"

    #: Whether the compiled replay fast path may drive this manager.
    #:
    #: The fast path tracks residency purely from the effect stream, so
    #: it is only sound when *every* residency change the manager makes
    #: is reported as an :class:`Inserted`, :class:`Evicted`, or
    #: :class:`Promoted` effect.  A :class:`Promoted` effect must also
    #: move the same :class:`~repro.policies.base.CachedTrace` record
    #: (:meth:`~repro.policies.base.CodeCache.admit` of the record the
    #: source cache released): the fast path carries the record over
    #: from the trace's current entry instead of looking it up again,
    #: and its end-of-replay drift check fails a manager that breaks
    #: this.  Subclasses honouring that contract set this True;
    #: anything else replays on the object path.
    fastpath_safe: bool = False

    @abc.abstractmethod
    def caches(self) -> list[CodeCache]:
        """The managed caches, most-junior first."""

    @property
    def total_capacity(self) -> int:
        """Combined capacity of all managed caches."""
        return sum(cache.capacity for cache in self.caches())

    def lookup(self, trace_id: int) -> str | None:
        """Name of the cache holding *trace_id*, or None."""
        for cache in self.caches():
            if trace_id in cache:
                return cache.name
        return None

    @abc.abstractmethod
    def on_hit(self, trace_id: int, time: int, count: int = 1) -> AccessOutcome:
        """Notify the manager that a resident trace was entered
        *count* consecutive times starting at *time*."""

    def hit_handler(self, cache_name: str):
        """Return the fast path's bound hit callable for *cache_name*:
        ``(trace_id, time, count) -> effects``.

        The replay loop resolves one handler per cache up front and
        calls it directly on every resident access, skipping the
        per-hit method dispatch.  Subclasses return the leanest
        callable that preserves :meth:`on_hit` semantics for hits
        served by that cache; this default is :meth:`on_hit` itself.
        """

        def handler(trace_id: int, time: int, count: int):
            return self.on_hit(trace_id, time, count).effects

        return handler

    def plain_hit_caches(self) -> frozenset[str]:
        """Names of caches whose hits are *plain*: no effects, no
        promotion checks, and a :attr:`~repro.policies.base.CodeCache.plain_touch`
        local policy.  The replay fast path inlines those hits —
        mutating the trace record directly — so only declare a cache
        here if a hit served by it is exactly a plain touch.
        """
        return frozenset()

    @abc.abstractmethod
    def insert(
        self, trace_id: int, size: int, module_id: int, time: int
    ) -> list[Effect]:
        """Insert a newly generated (or regenerated) trace."""

    def unmap_module(self, module_id: int, time: int) -> list[Effect]:
        """Delete every trace of *module_id* from all caches."""
        effects: list[Effect] = []
        for cache in self.caches():
            for trace in cache.remove_module(module_id):
                effects.append(
                    Evicted(
                        trace.trace_id, trace.size, cache.name,
                        EvictionReason.UNMAP,
                    )
                )
        return effects

    def pin(self, trace_id: int) -> bool:
        """Pin the trace wherever it is resident.

        Returns:
            True if the trace was found and pinned.
        """
        for cache in self.caches():
            if trace_id in cache:
                cache.pin(trace_id)
                return True
        return False

    def unpin(self, trace_id: int) -> bool:
        """Unpin the trace wherever it is resident."""
        for cache in self.caches():
            if trace_id in cache:
                cache.unpin(trace_id)
                return True
        return False

    def fragmentation(self) -> dict[str, float]:
        """Per-cache external fragmentation."""
        return {cache.name: cache.fragmentation() for cache in self.caches()}

    def occupancy(self) -> dict[str, float]:
        """Per-cache used-byte fraction."""
        return {
            cache.name: cache.used_bytes / cache.capacity
            for cache in self.caches()
        }

    def check_invariants(self) -> None:
        """A trace must live in at most one cache; every cache must be
        internally consistent.

        Raises:
            InvariantViolation: on the first inconsistency found.
        """
        seen: set[int] = set()
        for cache in self.caches():
            cache.check_invariants()
            resident = set(cache.arena.trace_ids())
            overlap = seen & resident
            if overlap:
                raise InvariantViolation(
                    "dual-residency",
                    f"traces {sorted(overlap)} resident in two caches",
                    cache=cache.name,
                    trace_id=min(overlap),
                )
            seen |= resident
