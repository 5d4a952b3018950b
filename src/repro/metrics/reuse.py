"""Reuse distances in insertion-volume bytes.

The FIFO-family policies the paper studies have a crisp miss
criterion: a re-access hits iff fewer bytes of insertions entered the
cache since the trace's last insertion than the cache holds.  The
*cold* reuse distance — bytes of first-time trace creations between
consecutive accesses to the same trace — therefore lower-bounds each
re-access's difficulty and explains where the Figure 9 wins come from:
the hot core's re-accesses have small distances but the unified FIFO
still cycles it out once total insertions exceed capacity, while the
persistent cache exempts it from that volume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fastpath import OP_ACCESS, OP_CREATE, CompiledTraceLog, log_columns
from repro.tracelog.records import TraceLog

#: Histogram bucket upper bounds, as fractions of the unbounded cache
#: size (the final bucket is everything at or above 1.0).
REUSE_BUCKETS: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0)

BUCKET_LABELS: tuple[str, ...] = (
    "<12.5%",
    "<25%",
    "<50%",
    "<100%",
    ">=100%",
)


def reuse_distances(log: TraceLog | CompiledTraceLog) -> list[int]:
    """Cold reuse distance of every re-access in *log*.

    For each access record after a trace's first touch, the distance is
    the total bytes of *creations* that appeared since the previous
    touch of that trace.  Repeat-compressed entries after the first
    contribute distance zero and are not reported (they are guaranteed
    hits by construction of the log format).  Reads the packed columns
    (a :class:`TraceLog` is compiled first).
    """
    op, _time, trace_id, size, _module, _repeat = log_columns(log)
    distances: list[int] = []
    created_bytes = 0
    last_seen: dict[int, int] = {}  # trace -> created_bytes at last touch
    for code, tid, trace_size in zip(op, trace_id, size):
        if code == OP_CREATE:
            created_bytes += trace_size
            last_seen[tid] = created_bytes
        elif code == OP_ACCESS:
            previous = last_seen.get(tid)
            if previous is not None:
                distances.append(created_bytes - previous)
            last_seen[tid] = created_bytes
    return distances


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse-distance summary for one log.

    Attributes:
        benchmark: Benchmark name.
        n_reaccesses: Number of re-access records measured.
        fractions: Percentage of re-accesses per
            :data:`BUCKET_LABELS` bucket (distance relative to the
            unbounded cache size).
        over_half: Percentage of re-accesses whose distance exceeds
            half the unbounded size — the ones a 0.5*maxCache FIFO
            cannot possibly hold on to.
    """

    benchmark: str
    n_reaccesses: int
    fractions: tuple[float, ...]
    over_half: float


def reuse_profile(log: TraceLog | CompiledTraceLog) -> ReuseProfile:
    """Bucket a log's reuse distances against its unbounded size."""
    distances = reuse_distances(log)
    total_bytes = max(1, log.total_trace_bytes)
    counts = [0] * (len(REUSE_BUCKETS) + 1)
    for distance in distances:
        fraction = distance / total_bytes
        for index, upper in enumerate(REUSE_BUCKETS):
            if fraction < upper:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    population = len(distances)
    if population == 0:
        fractions = tuple(0.0 for _ in counts)
        over_half = 0.0
    else:
        fractions = tuple(100.0 * c / population for c in counts)
        over_half = 100.0 * sum(
            1 for d in distances if d / total_bytes >= 0.5
        ) / population
    return ReuseProfile(
        benchmark=log.benchmark,
        n_reaccesses=population,
        fractions=fractions,
        over_half=over_half,
    )
