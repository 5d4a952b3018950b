"""Hit/miss/eviction/promotion statistics for one simulated run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvariantViolation


@dataclass
class CacheStats:
    """Counters accumulated while replaying one trace log.

    Attributes:
        accesses: Total trace entries (repeat-expanded).
        hits: Entries that found their trace resident.
        misses: Entries that did not (conflict/capacity misses — the
            trace had been created earlier but was evicted since).
        creations: First-time trace insertions (compulsory work that is
            identical across cache configurations, hence not a miss).
        evictions: Traces deleted from the system for capacity reasons.
        unmap_evictions: Traces deleted because their module unmapped.
        flush_evictions: Traces deleted by a preemptive flush.
        promotions: Inter-cache moves (nursery->probation counts here
            too, matching the paper's use of "promotion" overhead).
        hits_by_cache: Hits broken down by the cache that served them.
        evicted_bytes: Total bytes of capacity evictions.
        promoted_bytes: Total bytes moved between caches.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    creations: int = 0
    evictions: int = 0
    unmap_evictions: int = 0
    flush_evictions: int = 0
    promotions: int = 0
    hits_by_cache: dict[str, int] = field(default_factory=dict)
    evicted_bytes: int = 0
    promoted_bytes: int = 0

    @property
    def miss_rate(self) -> float:
        """Conflict misses per access (the paper's miss rate)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits per access."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def record_hit(self, cache_name: str, count: int = 1) -> None:
        """Count *count* hits served by *cache_name*."""
        self.hits += count
        self.hits_by_cache[cache_name] = (
            self.hits_by_cache.get(cache_name, 0) + count
        )

    def check_invariants(self) -> None:
        """Verify counter consistency (every replay engine runs this
        at the end of a replay, so it must hold under ``python -O``).
        The batched loop takes ``accesses`` from the log's own total
        and counts hits and misses itself, so there the first check
        compares two independent counts.

        Raises:
            InvariantViolation: when hits and misses do not add up to
                accesses, or the per-cache hits do not add up to hits.
        """
        if self.hits + self.misses != self.accesses:
            raise InvariantViolation(
                "stats-consistency",
                f"hits({self.hits}) + misses({self.misses}) != "
                f"accesses({self.accesses})",
            )
        by_cache = sum(self.hits_by_cache.values())
        if by_cache != self.hits:
            raise InvariantViolation(
                "stats-consistency",
                f"hits by cache sum to {by_cache}, not hits({self.hits})",
            )


@dataclass
class SimulationResult:
    """Everything a replay produces.

    Attributes:
        benchmark: Benchmark name from the log.
        manager_name: Cache-manager description.
        stats: Hit/miss counters.
        overhead_instructions: Modelled dynamic-optimizer instructions
            spent on generation/eviction/promotion/context switches
            (None when the run was made without a cost model).
        final_fragmentation: Per-cache external fragmentation at end.
        final_occupancy: Per-cache used-byte fraction at end.
    """

    benchmark: str
    manager_name: str
    stats: CacheStats
    overhead_instructions: float | None = None
    final_fragmentation: dict[str, float] = field(default_factory=dict)
    final_occupancy: dict[str, float] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        """Convenience passthrough to :attr:`CacheStats.miss_rate`."""
        return self.stats.miss_rate
