"""The CodeCache interface shared by all local policies.

A code cache stores *traces* — variable-sized byte regions — in one
arena.  Subclasses implement :meth:`_allocate`, which chooses a
placement offset and the eviction sequence needed to make room.  The
base class implements everything policy-independent: the trace table,
pinning (undeletable traces, Section 4.2), program-forced removal
(unmapped modules, Section 3.4), and statistics hooks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.policies.arena import Arena
from repro.errors import (
    DuplicateTraceError,
    InvariantViolation,
    UnknownTraceError,
)


@dataclass(slots=True)
class CachedTrace:
    """A trace resident in a code cache.

    Attributes:
        trace_id: Globally unique trace id.
        size: Size in bytes.
        module_id: Module the trace's code came from.
        insert_time: Virtual time of insertion into *this* cache.
        access_count: Accesses observed while resident in this cache
            (the probation cache's promotion counter).
        last_access: Virtual time of the most recent access.
        pinned: True while the trace is undeletable.
    """

    trace_id: int
    size: int
    module_id: int
    insert_time: int = 0
    access_count: int = 0
    last_access: int = 0
    pinned: bool = False


@dataclass(slots=True)
class InsertResult:
    """Outcome of one insertion.

    Attributes:
        inserted: The newly resident trace.
        evicted: Traces evicted to make room, in eviction order.
        flushed: True if the policy flushed the whole cache to make
            room (preemptive-flush policy); the flushed traces appear
            in :attr:`evicted`.
    """

    inserted: CachedTrace
    evicted: list[CachedTrace] = field(default_factory=list)
    flushed: bool = False


class CodeCache(abc.ABC):
    """One software code cache under a specific local policy."""

    #: Short policy name used in configs and reports.
    policy_name: str = "abstract"

    def __init__(self, capacity: int, name: str = "cache") -> None:
        self.name = name
        self.arena = Arena(capacity)
        self._traces: dict[int, CachedTrace] = {}
        # Live count of pinned residents; pin()/unpin(), admit() and
        # _drop() keep it exact, so the count lets hot paths skip the
        # per-victim pinned scan when nothing is pinned at all.
        self._pinned_count = 0
        # Policies that track recency (LRU, oracle) override
        # _after_touch; hoisting the hook lets record_hits skip a
        # million no-op calls per replay for the ones that don't.
        self._touch_hook = (
            self._after_touch
            if type(self)._after_touch is not CodeCache._after_touch
            else None
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Cache capacity in bytes."""
        return self.arena.capacity

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied."""
        return self.arena.used_bytes

    @property
    def n_traces(self) -> int:
        """Number of resident traces."""
        return len(self._traces)

    def __contains__(self, trace_id: int) -> bool:
        return trace_id in self._traces

    @property
    def plain_touch(self) -> bool:
        """True when touching a trace is exactly ``access_count +=
        count; last_access = time`` with no policy hook — the replay
        fast path then updates the trace record in place instead of
        calling :meth:`touch_resident`."""
        return self._touch_hook is None

    def get(self, trace_id: int) -> CachedTrace:
        """Return the resident trace record.

        Raises:
            UnknownTraceError: if not resident.
        """
        trace = self._traces.get(trace_id)
        if trace is None:
            raise UnknownTraceError(
                f"trace {trace_id} is not resident in cache {self.name!r}"
            )
        return trace

    def find(self, trace_id: int) -> CachedTrace | None:
        """Return the resident trace record, or None if not resident.

        Unlike :meth:`get` this tolerates asking about a trace that was
        already displaced — an insertion cascade can insert or promote a
        trace and evict it again before the effect stream is read."""
        return self._traces.get(trace_id)

    def trace_table(self) -> dict[int, CachedTrace]:
        """The live trace id -> record table, for hit handlers that
        touch resident records in place, as :meth:`record_hits` does.
        Callers only read it and update records: adding or removing an
        entry would bypass the arena."""
        return self._traces

    def traces(self) -> list[CachedTrace]:
        """All resident traces in arena address order."""
        return [self._traces[tid] for tid in self.arena.trace_ids()]

    def fragmentation(self) -> float:
        """Current external fragmentation of the arena."""
        return self.arena.fragmentation()

    def traces_of_module(self, module_id: int) -> list[CachedTrace]:
        """Resident traces originating from *module_id*."""
        return [t for t in self._traces.values() if t.module_id == module_id]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(
        self,
        trace_id: int,
        size: int,
        module_id: int,
        time: int = 0,
    ) -> InsertResult:
        """Insert a newly generated trace: a new record, then
        :meth:`admit`.

        Raises:
            DuplicateTraceError: if the trace is already resident.
            TraceTooLargeError: if it can never fit.
            CacheFullError: if pinned traces block every placement.
        """
        trace = CachedTrace(trace_id, size, module_id, time, 0, time, False)
        return InsertResult(inserted=trace, evicted=self.admit(trace, time))

    def admit(self, trace: CachedTrace, time: int) -> list[CachedTrace]:
        """Place the detached record *trace*, evicting as the policy
        dictates — the one placement primitive.

        A generational promotion admits the record it took out of the
        junior cache, so a trace keeps one :class:`CachedTrace` from
        creation to deletion.  Placement restarts the per-cache
        counters (``insert_time``, ``access_count``, ``last_access``)
        and keeps the pin.

        Returns:
            The evicted records, in eviction order.

        Raises:
            DuplicateTraceError: if the trace is already resident.
            TraceTooLargeError: if it can never fit.
            CacheFullError: if pinned traces block every placement.
        """
        trace_id = trace.trace_id
        if trace_id in self._traces:
            raise DuplicateTraceError(
                f"trace {trace_id} already resident in cache {self.name!r}"
            )
        trace.insert_time = time
        trace.access_count = 0
        trace.last_access = time
        start, evicted_ids = self._allocate(trace)
        evicted = [self._drop(eid) for eid in evicted_ids]
        self.arena.place(trace_id, start, trace.size)
        self._traces[trace_id] = trace
        if trace.pinned:
            self._pinned_count += 1
        self._after_insert(trace, start)
        return evicted

    def touch(self, trace_id: int, time: int, count: int = 1) -> CachedTrace:
        """Record *count* accesses to a resident trace at *time*."""
        trace = self.get(trace_id)
        trace.access_count += count
        trace.last_access = time
        self._after_touch(trace)
        return trace

    def touch_resident(self, trace_id: int, time: int, count: int) -> CachedTrace:
        """:meth:`touch` for callers that already know the trace is
        resident (the replay fast path) — skips the existence check, so
        a stale caller gets a bare ``KeyError`` instead of
        :class:`UnknownTraceError`."""
        trace = self._traces[trace_id]
        trace.access_count += count
        trace.last_access = time
        hook = self._touch_hook
        if hook is not None:
            hook(trace)
        return trace

    def record_hits(self, trace_id: int, time: int, count: int) -> tuple[()]:
        """The replay fast path's hit handler for caches whose hits
        never emit effects: :meth:`touch_resident` returning the
        (empty) effect stream instead of the trace."""
        trace = self._traces[trace_id]
        trace.access_count += count
        trace.last_access = time
        hook = self._touch_hook
        if hook is not None:
            hook(trace)
        return ()

    def remove(self, trace_id: int) -> CachedTrace:
        """Program-forced removal (unmapped module, or the first half
        of a promotion that :meth:`admit` completes in another cache).
        Leaves a hole; ignores pinning because an unmapped trace *must*
        go (the paper notes such evictions inherently violate the
        circular policy)."""
        trace = self._drop(trace_id)
        self._after_remove(trace)
        return trace

    def remove_module(self, module_id: int) -> list[CachedTrace]:
        """Remove every trace of *module_id* (Section 3.4)."""
        victims = self.traces_of_module(module_id)
        return [self.remove(t.trace_id) for t in victims]

    def flush(self) -> list[CachedTrace]:
        """Remove all unpinned traces; returns them in address order."""
        victims = [t for t in self.traces() if not t.pinned]
        for trace in victims:
            self._drop(trace.trace_id)
            self._after_remove(trace)
        return victims

    def pin(self, trace_id: int) -> None:
        """Mark a trace undeletable (Section 4.2)."""
        trace = self.get(trace_id)
        if not trace.pinned:
            trace.pinned = True
            self._pinned_count += 1

    def unpin(self, trace_id: int) -> None:
        """Make a trace deletable again."""
        trace = self.get(trace_id)
        if trace.pinned:
            trace.pinned = False
            self._pinned_count -= 1

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _allocate(self, trace: CachedTrace) -> tuple[int, list[int]]:
        """Choose a placement offset for *trace*.

        Returns:
            ``(start, evicted_ids)``: the offset to place at and the
            resident trace ids that must be evicted first, in eviction
            order.  The base class performs the evictions and the
            placement.
        """

    def _after_insert(self, trace: CachedTrace, start: int) -> None:
        """Hook called after a successful insertion."""

    def _after_touch(self, trace: CachedTrace) -> None:
        """Hook called after an access."""

    def _after_remove(self, trace: CachedTrace) -> None:
        """Hook called after an external (non-policy) removal."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _drop(self, trace_id: int) -> CachedTrace:
        """Remove a trace from the arena and the table (no hooks)."""
        trace = self.get(trace_id)
        self.arena.remove(trace_id)
        del self._traces[trace_id]
        if trace.pinned:
            self._pinned_count -= 1
        return trace

    def check_invariants(self) -> None:
        """Verify arena/table consistency (property tests, sanitizer).

        Raises:
            InvariantViolation: the arena is inconsistent, or the trace
                table disagrees with the arena's placements.
        """
        try:
            self.arena.check_invariants()
        except InvariantViolation as exc:
            raise InvariantViolation(
                exc.invariant,
                exc.message,
                cache=self.name,
                trace_id=exc.trace_id,
                context=exc.context,
            ) from exc
        resident = set(self.arena.trace_ids())
        table = set(self._traces)
        if resident != table:
            raise InvariantViolation(
                "cache-consistency",
                f"arena/table disagree: arena-only={sorted(resident - table)}, "
                f"table-only={sorted(table - resident)}",
                cache=self.name,
            )
        for trace_id, trace in self._traces.items():
            placement = self.arena.placement_of(trace_id)
            if placement.size != trace.size:
                raise InvariantViolation(
                    "cache-consistency",
                    f"placement size {placement.size} disagrees with trace "
                    f"record size {trace.size}",
                    cache=self.name,
                    trace_id=trace_id,
                )
        pinned = sum(1 for trace in self._traces.values() if trace.pinned)
        if pinned != self._pinned_count:
            raise InvariantViolation(
                "cache-consistency",
                f"pinned-count accounting is stale: {pinned} pinned "
                f"residents, counter reports {self._pinned_count}",
                cache=self.name,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"{self.used_bytes}/{self.capacity} bytes, "
            f"{self.n_traces} traces)"
        )
