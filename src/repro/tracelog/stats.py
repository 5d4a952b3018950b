"""Summary statistics over a trace log.

These are the per-benchmark numbers Section 3 of the paper reports:
total trace bytes (the unbounded cache size), insertion rate, and the
fraction of trace bytes that must be deleted because their module was
unmapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.tracelog.records import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fastpath import CompiledTraceLog


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
    from repro.fastpath import OP_CREATE, OP_UNMAP, log_columns

    op, _time, _trace_id, size, module, repeat = log_columns(log)
    sizes: list[int] = []
    n_unmaps = 0
    unmapped_bytes = 0
    unmapped_traces = 0
    # Sizes of the traces currently attributable to each module
    # (created, and their module not yet unmapped since creation).
    live_by_module: dict[int, list[int]] = {}
    for code, trace_size, module_id in zip(op, size, module):
        if code == OP_CREATE:
            sizes.append(trace_size)
            live_by_module.setdefault(module_id, []).append(trace_size)
        elif code == OP_UNMAP:
            n_unmaps += 1
            victims = live_by_module.pop(module_id, [])
            unmapped_traces += len(victims)
            unmapped_bytes += sum(victims)
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
    )
