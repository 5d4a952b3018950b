"""Byte-granularity model of one code cache's address range.

The arena tracks where each trace is placed, which byte ranges are
free, and how fragmented the free space is.  It enforces the two
invariants every eviction policy relies on: placements never overlap
and never cross the capacity boundary.  Policies decide *where* to
place and *what* to evict; the arena only does the bookkeeping.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple

from repro.errors import (
    ArenaBoundsError,
    ArenaOverlapError,
    DuplicateTraceError,
    InvariantViolation,
    UnknownTraceError,
)


class Placement(NamedTuple):
    """A trace's location inside an arena.

    A NamedTuple, not a frozen dataclass: one is built on every
    insertion and frozen-dataclass construction costs ~3x more.  The
    arena builds it with ``tuple.__new__(Placement, fields)``, which
    skips the class's Python-level ``__new__`` and costs about half a
    positional call.

    Attributes:
        trace_id: The placed trace.
        start: First byte offset.
        size: Length in bytes.
    """

    trace_id: int
    start: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.start + self.size


class Arena:
    """Allocation map of a single code cache.

    Internally keeps placements sorted by start offset, so overlap
    queries, first-fit scans and hole enumeration are all simple
    ordered-list walks.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ArenaBoundsError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._starts: list[int] = []  # sorted start offsets
        self._by_start: dict[int, Placement] = {}
        self._by_trace: dict[int, Placement] = {}
        self._used = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Total bytes currently occupied by traces."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Total unoccupied bytes."""
        return self.capacity - self._used

    @property
    def n_traces(self) -> int:
        """Number of placed traces."""
        return len(self._by_trace)

    def __contains__(self, trace_id: int) -> bool:
        return trace_id in self._by_trace

    def placement_of(self, trace_id: int) -> Placement:
        """Return the placement of *trace_id*.

        Raises:
            UnknownTraceError: if the trace is not placed here.
        """
        placement = self._by_trace.get(trace_id)
        if placement is None:
            raise UnknownTraceError(f"trace {trace_id} is not placed in this arena")
        return placement

    def placements(self) -> list[Placement]:
        """All placements in address order."""
        return [self._by_start[s] for s in self._starts]

    def trace_ids(self) -> list[int]:
        """Ids of all placed traces in address order."""
        return [self._by_start[s].trace_id for s in self._starts]

    def overlapping(self, start: int, end: int) -> list[Placement]:
        """Placements intersecting the half-open window [start, end),
        in address order.  The window must not wrap."""
        if start >= end:
            return []
        result: list[Placement] = []
        # First candidate: the placement starting at or before `start`
        # could still extend into the window.
        index = bisect_right(self._starts, start) - 1
        if index >= 0:
            placement = self._by_start[self._starts[index]]
            if placement.end > start:
                result.append(placement)
        # Then every placement starting inside [start, end).
        index = bisect_right(self._starts, start)
        while index < len(self._starts) and self._starts[index] < end:
            result.append(self._by_start[self._starts[index]])
            index += 1
        return result

    def holes(self) -> list[tuple[int, int]]:
        """Free ranges as (start, end) pairs in address order."""
        gaps: list[tuple[int, int]] = []
        cursor = 0
        for start in self._starts:
            placement = self._by_start[start]
            if placement.start > cursor:
                gaps.append((cursor, placement.start))
            cursor = placement.end
        if cursor < self.capacity:
            gaps.append((cursor, self.capacity))
        return gaps

    def largest_hole(self) -> int:
        """Size of the largest contiguous free range."""
        return max((end - start for start, end in self.holes()), default=0)

    def fragmentation(self) -> float:
        """External fragmentation in [0, 1]: the fraction of free space
        that is *not* in the largest hole.  0 when free space is one
        contiguous range (or there is no free space)."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_hole() / free

    def first_fit(self, size: int) -> int | None:
        """Offset of the first hole that fits *size* bytes, or None."""
        for start, end in self.holes():
            if end - start >= size:
                return start
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def place(self, trace_id: int, start: int, size: int) -> Placement:
        """Place a trace at an explicit offset.

        Raises:
            ArenaBoundsError: placement crosses the capacity boundary.
            ArenaOverlapError: placement intersects an existing trace.
            DuplicateTraceError: the trace is already placed.
        """
        if size <= 0:
            raise ArenaBoundsError(f"trace {trace_id}: size must be positive")
        if start < 0 or start + size > self.capacity:
            raise ArenaBoundsError(
                f"trace {trace_id}: [{start}, {start + size}) outside "
                f"[0, {self.capacity})"
            )
        if trace_id in self._by_trace:
            raise DuplicateTraceError(f"trace {trace_id} is already placed")
        # Overlap can only come from the nearest placement on either
        # side, so two bisect probes replace a full window scan (this
        # runs on every insertion).
        starts = self._starts
        index = bisect_right(starts, start)
        clash = None
        if index > 0:
            before = self._by_start[starts[index - 1]]
            if before.end > start:
                clash = before
        if clash is None and index < len(starts) and starts[index] < start + size:
            clash = self._by_start[starts[index]]
        if clash is not None:
            raise ArenaOverlapError(
                f"trace {trace_id}: [{start}, {start + size}) overlaps "
                f"trace {clash.trace_id} at [{clash.start}, {clash.end})"
            )
        placement = tuple.__new__(Placement, (trace_id, start, size))
        insort(self._starts, start)
        self._by_start[start] = placement
        self._by_trace[trace_id] = placement
        self._used += size
        return placement

    def displace(self, trace_id: int, start: int, size: int) -> list[Placement]:
        """Evict everything overlapping ``[start, start + size)`` and
        place *trace_id* there, in one index pass.

        The overlap scan, victim removal, and placement insertion share
        a single bisect probe — this is the fused path for policies
        that treat the placement window's residents *as* the eviction
        set (the pseudo-circular steady state), where
        :meth:`overlapping` + per-victim :meth:`remove` + :meth:`place`
        would walk the index three or more times.  Equivalent to that
        sequence, victims returned in address order.

        Caller contract: bounds are already validated (``0 <= start``
        and ``start + size <= capacity``, positive size) and *trace_id*
        is not currently placed.
        """
        starts = self._starts
        by_start = self._by_start
        end = start + size
        lo = bisect_right(starts, start)
        if lo:
            before = by_start[starts[lo - 1]]
            if before.start + before.size > start:
                lo -= 1
        hi = lo
        n = len(starts)
        victims: list[Placement] = []
        while hi < n and starts[hi] < end:
            victims.append(by_start[starts[hi]])
            hi += 1
        used = self._used
        by_trace = self._by_trace
        for victim in victims:
            del by_start[victim.start]
            del by_trace[victim.trace_id]
            used -= victim.size
        placement = tuple.__new__(Placement, (trace_id, start, size))
        starts[lo:hi] = (start,)
        by_start[start] = placement
        by_trace[trace_id] = placement
        self._used = used + size
        return victims

    def remove(self, trace_id: int) -> Placement:
        """Remove a trace, leaving a hole.

        Raises:
            UnknownTraceError: if the trace is not placed here.
        """
        placement = self.placement_of(trace_id)
        index = bisect_left(self._starts, placement.start)
        del self._starts[index]
        del self._by_start[placement.start]
        del self._by_trace[trace_id]
        self._used -= placement.size
        return placement

    def clear(self) -> list[Placement]:
        """Remove everything (a cache flush); returns what was removed
        in address order."""
        removed = self.placements()
        self._starts.clear()
        self._by_start.clear()
        self._by_trace.clear()
        self._used = 0
        return removed

    def check_invariants(self) -> None:
        """Verify internal consistency (property tests, sanitizer).

        Raises:
            InvariantViolation: placements overlap, cross the capacity
                boundary, or disagree with the byte accounting.
        """
        previous_end = 0
        previous_id: int | None = None
        used = 0
        for start in self._starts:
            placement = self._by_start[start]
            if placement.start != start:
                raise InvariantViolation(
                    "arena-extents",
                    f"index key {start} disagrees with placement start "
                    f"{placement.start}",
                    trace_id=placement.trace_id,
                )
            if placement.start < previous_end:
                raise InvariantViolation(
                    "arena-extents",
                    f"placement [{placement.start}, {placement.end}) overlaps "
                    f"trace {previous_id} ending at {previous_end}",
                    trace_id=placement.trace_id,
                )
            if placement.end > self.capacity:
                raise InvariantViolation(
                    "arena-extents",
                    f"placement [{placement.start}, {placement.end}) outside "
                    f"arena [0, {self.capacity})",
                    trace_id=placement.trace_id,
                )
            previous_end = placement.end
            previous_id = placement.trace_id
            used += placement.size
        if used != self._used:
            raise InvariantViolation(
                "arena-extents",
                f"used-byte accounting is stale: placements sum to {used}, "
                f"arena reports {self._used}",
            )
        if not (len(self._by_start) == len(self._by_trace) == len(self._starts)):
            raise InvariantViolation(
                "arena-extents",
                f"index sizes disagree: {len(self._starts)} starts, "
                f"{len(self._by_start)} by-start, {len(self._by_trace)} by-trace",
            )
