"""Summary statistics over a trace log.

These are the per-benchmark numbers Section 3 of the paper reports:
total trace bytes, the bytes an unbounded cache allocates (Figure 1's
maxCache), insertion rate, the fraction of trace bytes that must be
deleted because their module was unmapped, and the trace-lifetime
histogram (Figure 6).  All of them are properties of the log, not of
a cache configuration, so one pass computes them and the artifact
store memoizes the result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.tracelog.records import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fastpath import CompiledTraceLog

#: Figure 6's bucket upper bounds (fractions of execution time).
LIFETIME_BUCKETS: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class LogStatistics:
    """Aggregates over one trace log.

    Attributes:
        benchmark: Benchmark name.
        duration_seconds: Declared run duration.
        n_traces: Distinct traces created.
        total_trace_bytes: Sum of created trace sizes (paper: the
            unbounded code cache size).
        n_accesses: Total trace entries (repeat-expanded).
        n_unmaps: Module-unmap events.
        unmapped_trace_bytes: Bytes of traces that were resident targets
            of an unmap (created before the unmap of their module).
        unmapped_n_traces: Count of such traces.
        median_trace_size: Median created-trace size in bytes.
        end_time: Total virtual execution time.
        code_footprint: Static application footprint (Eq 1 denominator).
        unbounded_bytes: Bytes an unbounded cache allocates replaying
            the log (Figure 1's maxCache): every creation, plus one
            regeneration for each access to a trace that its module's
            unmap removed, up to the first end record, where replay
            stops.  Equal to ``UnboundedCache.high_water_mark`` after
            the replay.
        lifetime_buckets: Traces per Figure 6 lifetime bucket
            (Equation 2), in :data:`LIFETIME_BUCKETS` order; all zero
            when the log has no execution time.
    """

    benchmark: str
    duration_seconds: float
    n_traces: int
    total_trace_bytes: int
    n_accesses: int
    n_unmaps: int
    unmapped_trace_bytes: int
    unmapped_n_traces: int
    median_trace_size: float
    end_time: int
    code_footprint: int
    unbounded_bytes: int
    lifetime_buckets: tuple[int, ...]

    @property
    def insertion_rate_bytes_per_second(self) -> float:
        """Trace generation rate (Figure 3's metric)."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.total_trace_bytes / self.duration_seconds

    @property
    def unmapped_fraction(self) -> float:
        """Fraction of generated trace bytes deleted due to unmapped
        memory (Figure 4's metric)."""
        if self.total_trace_bytes == 0:
            return 0.0
        return self.unmapped_trace_bytes / self.total_trace_bytes


def _median(values: list[int]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def summarize_log(log: TraceLog | CompiledTraceLog) -> LogStatistics:
    """Compute :class:`LogStatistics` in one pass over *log*'s packed
    columns (a :class:`TraceLog` is compiled first)."""
    # Imported lazily: repro.fastpath packs this package's record types,
    # so a module-level import would cycle.
    from repro.fastpath import OP_ACCESS, OP_CREATE, OP_END, OP_UNMAP, log_columns

    op, times, trace_ids, size, module, repeat = log_columns(log)
    sizes: list[int] = []
    n_unmaps = 0
    unmapped_bytes = 0
    unmapped_traces = 0
    # Sizes of the traces currently attributable to each module
    # (created, and their module not yet unmapped since creation).
    live_by_module: dict[int, list[int]] = {}
    # The unbounded cache's replay state.  Only an unmap makes a trace
    # non-resident there, and the next access regenerates it with the
    # size and module of its latest creation.
    created: dict[int, tuple[int, int]] = {}
    resident_by_module: dict[int, list[int]] = {}
    unmapped: set[int] = set()
    allocated = 0
    unbounded_bytes = None
    # Equation 2's first and last execution of every trace.
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for code, time, trace_id, trace_size, module_id in zip(
        op, times, trace_ids, size, module
    ):
        if code == OP_ACCESS:
            if trace_id not in first:
                first[trace_id] = time
            last[trace_id] = time
            if trace_id in unmapped:
                unmapped.remove(trace_id)
                trace_size, module_id = created[trace_id]
                allocated += trace_size
                resident_by_module.setdefault(module_id, []).append(trace_id)
        elif code == OP_CREATE:
            sizes.append(trace_size)
            live_by_module.setdefault(module_id, []).append(trace_size)
            created[trace_id] = (trace_size, module_id)
            unmapped.discard(trace_id)
            allocated += trace_size
            resident_by_module.setdefault(module_id, []).append(trace_id)
            if trace_id not in first:
                first[trace_id] = time
            if trace_id not in last:
                last[trace_id] = time
        elif code == OP_UNMAP:
            n_unmaps += 1
            victims = live_by_module.pop(module_id, [])
            unmapped_traces += len(victims)
            unmapped_bytes += sum(victims)
            unmapped.update(resident_by_module.pop(module_id, ()))
        elif code == OP_END and unbounded_bytes is None:
            unbounded_bytes = allocated
    return LogStatistics(
        benchmark=log.benchmark,
        duration_seconds=log.duration_seconds,
        n_traces=len(sizes),
        total_trace_bytes=sum(sizes),
        # Only access rows carry a repeat count.
        n_accesses=sum(repeat),
        n_unmaps=n_unmaps,
        unmapped_trace_bytes=unmapped_bytes,
        unmapped_n_traces=unmapped_traces,
        median_trace_size=_median(sizes),
        end_time=log.end_time,
        code_footprint=log.code_footprint,
        unbounded_bytes=allocated if unbounded_bytes is None else unbounded_bytes,
        lifetime_buckets=_lifetime_buckets(first, last, log.end_time),
    )


def _lifetime_buckets(
    first: dict[int, int], last: dict[int, int], total: int
) -> tuple[int, ...]:
    """Count Equation 2 lifetimes per Figure 6 bucket.  A lifetime
    outside [0, 1], which only a log whose times run backwards or past
    its last end record yields, counts in the nearest edge bucket."""
    counts = [0] * len(LIFETIME_BUCKETS)
    if total > 0:
        top = len(LIFETIME_BUCKETS) - 1
        for trace_id, start in first.items():
            lifetime = (last[trace_id] - start) / total
            counts[min(bisect_left(LIFETIME_BUCKETS, lifetime), top)] += 1
    return tuple(counts)
