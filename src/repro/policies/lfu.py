"""LFU local policy.

Least-frequently-used eviction with first-fit placement.  Not studied
in the paper, but a natural question about generational caches is
whether simple frequency counting in a single cache buys the same
protection the persistent cache provides; this policy answers it in
the comparison harness.  Frequency is counted while resident (counts
reset on eviction, like the probation counter), which keeps the policy
implementable with the same per-trace metadata as the paper's caches.
"""

from __future__ import annotations

from repro.errors import CacheFullError, TraceTooLargeError
from repro.policies.base import CachedTrace, CodeCache


class LFUCache(CodeCache):
    """Least-frequently-used eviction with first-fit placement."""

    policy_name = "lfu"

    def _allocate(self, trace: CachedTrace) -> tuple[int, list[int]]:
        size = trace.size
        if size > self.capacity:
            raise TraceTooLargeError(
                f"trace {trace.trace_id} ({size} B) exceeds cache "
                f"{self.name!r} capacity ({self.capacity} B)"
            )
        start = self.arena.first_fit(size)
        if start is not None:
            return start, []
        # Evict coldest-first until a contiguous hole fits; ties broken
        # by insertion age (older first) for determinism.
        victims_by_frequency = sorted(
            (t for t in self._traces.values() if not t.pinned),
            key=lambda t: (t.access_count, t.insert_time, t.trace_id),
        )
        evicted: list[int] = []
        freed: list[tuple[int, int]] = []
        for victim in victims_by_frequency:
            placement = self.arena.placement_of(victim.trace_id)
            evicted.append(victim.trace_id)
            freed.append((placement.start, placement.end))
            start = self._fit_with_freed(size, freed)
            if start is not None:
                return start, evicted
        raise CacheFullError(
            f"cache {self.name!r}: pinned traces prevent placing {size} B"
        )

    def _fit_with_freed(self, size: int, freed: list[tuple[int, int]]) -> int | None:
        """First-fit over current holes unioned with pending evictions."""
        ranges = self.arena.holes() + freed
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for lo, hi in ranges:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            if hi - lo >= size:
                return lo
        return None
