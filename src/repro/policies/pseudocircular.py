"""The paper's pseudo-circular local policy (Section 4.3).

From a distance the policy is a circular buffer: a single pointer marks
the next eviction/insertion point, new traces are placed there, and any
traces overlapping the placement window are evicted.  Two realities
bend the pure circle:

* **Undeletable traces** — when a pinned trace lies in the placement
  window, the pointer resets to just past it and the scan restarts.
* **Program-forced evictions** — unmapped modules punch holes anywhere;
  the policy deliberately does *not* chase those holes ("this approach
  complicates the cache management design, and may reduce the benefits
  of temporal locality"), it just keeps rotating.  An optional
  ``fill_holes`` flag enables the rejected hole-filling variant so the
  trade-off can be measured (see DESIGN.md ablations).
"""

from __future__ import annotations

from repro.errors import CacheFullError, DuplicateTraceError, TraceTooLargeError
from repro.policies.base import CachedTrace, CodeCache


class PseudoCircularCache(CodeCache):
    """Circular-buffer cache tolerating pinned traces and forced holes."""

    policy_name = "pseudo-circular"

    def __init__(
        self,
        capacity: int,
        name: str = "cache",
        fill_holes: bool = False,
    ) -> None:
        super().__init__(capacity, name)
        self._pointer = 0
        self.fill_holes = fill_holes

    @property
    def fill_holes(self) -> bool:
        """Whether placements try the first hole that fits before the
        rotating scan (the variant the paper rejected)."""
        return self._fill_holes

    @fill_holes.setter
    def fill_holes(self, value: bool) -> None:
        self._fill_holes = value
        # The fused admit below hand-inlines _allocate's steady state
        # and the pointer bump, and never fills holes; a subclass
        # overriding either hook gets the general path so its
        # overrides keep working.
        cls = type(self)
        self._fused_admit = (
            not value
            and cls._allocate is PseudoCircularCache._allocate
            and cls._after_insert is PseudoCircularCache._after_insert
        )

    @property
    def pointer(self) -> int:
        """The current insertion/eviction offset."""
        return self._pointer

    def admit(self, trace: CachedTrace, time: int) -> list[CachedTrace]:
        """The steady-state placement, fused into one pass.

        With no pinned residents and hole-filling off, the placement
        window is exactly ``[pointer, pointer + size)`` (wrapped once
        if it would cross capacity) and every resident overlapping it
        is evicted — no reset loop can trigger, so the generic
        allocate / drop-each-victim / place pipeline collapses into a
        single :meth:`~repro.policies.arena.Arena.displace` call.
        Placements dominate replay wall time at the paper's capacity
        pressure, which is why this path is worth the duplication; any
        pinned resident or configuration wrinkle defers to the general
        implementation, and the outcome is identical either way (the
        equivalence suite replays both against each other).
        """
        if self._pinned_count or not self._fused_admit:
            return super().admit(trace, time)
        traces = self._traces
        trace_id = trace.trace_id
        if trace_id in traces:
            raise DuplicateTraceError(
                f"trace {trace_id} already resident in cache {self.name!r}"
            )
        arena = self.arena
        capacity = arena.capacity
        size = trace.size
        if size > capacity:
            raise TraceTooLargeError(
                f"trace {trace_id} ({size} B) exceeds cache "
                f"{self.name!r} capacity ({capacity} B)"
            )
        pointer = self._pointer
        if pointer + size > capacity:
            pointer = 0
        victims = arena.displace(trace_id, pointer, size)
        trace.insert_time = time
        trace.access_count = 0
        trace.last_access = time
        traces[trace_id] = trace
        if trace.pinned:
            self._pinned_count += 1
        pointer += size
        self._pointer = 0 if pointer >= capacity else pointer
        return [traces.pop(v.trace_id) for v in victims] if victims else []

    def _allocate(self, trace: CachedTrace) -> tuple[int, list[int]]:
        size = trace.size
        if size > self.capacity:
            raise TraceTooLargeError(
                f"trace {trace.trace_id} ({size} B) exceeds cache "
                f"{self.name!r} capacity ({self.capacity} B)"
            )
        self._placed_in_hole = False
        if self._fill_holes:
            start = self.arena.first_fit(size)
            if start is not None:
                self._placed_in_hole = True
                return start, []
        pointer = self._pointer
        wraps = 0
        resets = 0
        # Each pinned trace can cause at most one pointer reset per lap;
        # after two full laps without success nothing can ever fit.
        max_resets = 2 * (self.n_traces + 1)
        while True:
            if pointer + size > self.capacity:
                pointer = 0
                wraps += 1
                if wraps > 2:
                    raise CacheFullError(
                        f"cache {self.name!r}: no placement window of "
                        f"{size} B exists (pinned traces block the buffer)"
                    )
            window_end = pointer + size
            overlapping = self.arena.overlapping(pointer, window_end)
            traces = self._traces
            pinned = [p for p in overlapping if traces[p.trace_id].pinned]
            if pinned:
                # Reset directly after the *last* pinned trace in the
                # window and begin the eviction process again.
                pointer = max(p.end for p in pinned)
                resets += 1
                if resets > max_resets:
                    raise CacheFullError(
                        f"cache {self.name!r}: pinned traces prevent "
                        f"placing {size} B"
                    )
                continue
            return pointer, [p.trace_id for p in overlapping]

    _placed_in_hole = False

    def _after_insert(self, trace: CachedTrace, start: int) -> None:
        # In hole-filling mode the pointer only advances when the
        # placement came from the rotating scan, not from a hole.
        if self._placed_in_hole:
            return
        self._pointer = start + trace.size
        if self._pointer >= self.capacity:
            self._pointer = 0

    def reset_pointer(self, offset: int = 0) -> None:
        """Reposition the eviction pointer (used after a flush)."""
        if not 0 <= offset < self.capacity:
            raise ValueError(f"pointer offset {offset} out of range")
        self._pointer = offset
