"""Trace lifetimes — Equation 2 and the Figure 6 histogram.

::

    lifetime_i = (lastExecution_i - firstExecution_i) / totalApplicationExecutionTime

Figure 6 buckets lifetimes into five 20%-wide categories and plots the
unweighted (static) percentage of traces per bucket; the paper's
central observation is the U shape — most traces are either short-
lived (< 20%) or long-lived (> 80%).

Figure 6 itself reads the bucket counts that the log summary
(:func:`repro.tracelog.stats.summarize_log`) computes in its one pass,
which the artifact store memoizes; :func:`lifetime_histogram` is that
pass's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.fastpath import OP_ACCESS, OP_CREATE, CompiledTraceLog, log_columns
from repro.tracelog.records import TraceLog
from repro.tracelog.stats import LIFETIME_BUCKETS

#: Human-readable bucket labels in Figure 6 order.
BUCKET_LABELS: tuple[str, ...] = (
    "0-20%",
    "20-40%",
    "40-60%",
    "60-80%",
    "80-100%",
)


def trace_lifetimes(log: TraceLog | CompiledTraceLog) -> dict[int, float]:
    """Compute Equation 2 for every trace in *log*.

    First execution is the first access (or the creation, for traces
    never re-entered); last execution is the final access.  Returns a
    mapping trace_id -> lifetime fraction in [0, 1].  Reads the packed
    columns (a :class:`TraceLog` is compiled first).
    """
    total = log.end_time
    if total <= 0:
        raise ExperimentError("log has no execution time")
    op, times, trace_ids, *_ = log_columns(log)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for code, time, trace_id in zip(op, times, trace_ids):
        if code == OP_ACCESS:
            first.setdefault(trace_id, time)
            last[trace_id] = time
        elif code == OP_CREATE:
            first.setdefault(trace_id, time)
            last.setdefault(trace_id, time)
    return {
        trace_id: (last[trace_id] - first[trace_id]) / total
        for trace_id in first
    }


@dataclass(frozen=True)
class LifetimeHistogram:
    """Static percentage of traces per Figure 6 bucket.

    Attributes:
        benchmark: Benchmark name.
        counts: Traces per bucket, in :data:`BUCKET_LABELS` order (a
            summary's ``lifetime_buckets``).
    """

    benchmark: str
    counts: tuple[int, ...]

    @property
    def n_traces(self) -> int:
        """Trace population size."""
        return sum(self.counts)

    @property
    def fractions(self) -> tuple[float, ...]:
        """Percentage (0-100) of traces per bucket; sums to 100 for a
        non-empty log."""
        population = self.n_traces
        if population == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(100.0 * count / population for count in self.counts)

    @property
    def short_lived(self) -> float:
        """Percentage of traces with lifetime < 20%."""
        return self.fractions[0]

    @property
    def long_lived(self) -> float:
        """Percentage of traces with lifetime > 80%."""
        return self.fractions[-1]

    @property
    def is_u_shaped(self) -> bool:
        """True when the extreme buckets dominate the middle ones, the
        paper's qualitative claim about both suites."""
        middle = sum(self.fractions[1:-1])
        return self.short_lived + self.long_lived > middle


def bucket_of(lifetime: float) -> int:
    """Index of the Figure 6 bucket containing *lifetime*."""
    if not 0.0 <= lifetime <= 1.0:
        raise ExperimentError(f"lifetime {lifetime} outside [0, 1]")
    for index, upper in enumerate(LIFETIME_BUCKETS):
        if lifetime <= upper:
            return index
    return len(LIFETIME_BUCKETS) - 1


def lifetime_histogram(log: TraceLog | CompiledTraceLog) -> LifetimeHistogram:
    """Build the Figure 6 histogram for one log."""
    counts = [0] * len(LIFETIME_BUCKETS)
    for lifetime in trace_lifetimes(log).values():
        counts[bucket_of(lifetime)] += 1
    return LifetimeHistogram(benchmark=log.benchmark, counts=tuple(counts))
