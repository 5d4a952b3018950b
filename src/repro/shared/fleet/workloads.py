"""Lazy per-process workloads over shared compiled logs (fleet internals).

A fleet holds the *distinct* workload contents of a process mix, not
one log per process:

* each distinct ``(benchmark, library reach)`` pair is synthesized
  once (through the artifact cache), composed and packed once by
  :func:`repro.shared.compose.compose_specs`, and its columns are
  interleaved once into one record-major array
  (:class:`DistinctWorkload`);
* every process is an *assignment* to a distinct workload — its replay
  state is just a cursor over the shared records, so fleet memory is
  O(distinct workloads) + O(P) integers, not O(P) logs.

Because per-process library sets are nested catalog prefixes (the
Zipf *reach* model — :func:`repro.shared.compose.zipf_reaches`), the
distinct count is bounded by ``len(palette) * len(catalog)`` however
large the fleet grows.

Churn plans live here too: :func:`churn_plan` draws which processes
spawn late and which are killed early from a seeded substream, so a
churned fleet remains a pure function of its cell parameters.

This module is fleet-internal (``fleet-api`` lint rule): other layers
import the package root.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Sequence

from repro.errors import ConfigError, LogOrderError
from repro.fastpath import OP_CREATE, log_columns
from repro.rand import substream
from repro.shared.compose import ProcessWorkload, compose_specs
from repro.shared.fleet.scheduler import ProcessStream
from repro.shared.identity import TraceKey

#: Fraction of fleet processes subject to each churn event kind.
DEFAULT_CHURN_FRACTION = 0.25

#: Fields per record in :attr:`DistinctWorkload.records`: ``(op, time,
#: trace_id, size, module, repeat)``, the packed column schema.
RECORD_WIDTH = 6


@dataclass
class DistinctWorkload:
    """One distinct workload content, compiled and shared by cursors.

    Attributes:
        name: Display name (mirrors :class:`ProcessWorkload` naming).
        records: The packed log, record-major: record *i* is
            ``records[RECORD_WIDTH * i : RECORD_WIDTH * (i + 1)]``, the
            ``(op, time, trace_id, size, module, repeat)`` row every
            assigned process replays.  Times never decrease.
        keys: Content key per created trace id.
        n_records: Packed record count.
        total_trace_bytes: Sum of created trace sizes (capacity sizing).
        modules: Sorted module ids the workload creates traces in
            (early-exit cleanup unmaps exactly these).
        traces_by_module: Created trace ids grouped by module.
        n_accesses: Trace entries over the whole log (the repeat
            field summed).
    """

    name: str
    records: array
    keys: dict[int, TraceKey]
    n_records: int
    total_trace_bytes: int
    modules: tuple[int, ...]
    traces_by_module: dict[int, frozenset[int]]
    n_accesses: int

    def accesses_in(self, n_records: int) -> int:
        """Trace entries in the first *n_records* records: what a
        process replaying that prefix accesses, counted from the log
        rather than by the replay."""
        if n_records == self.n_records:
            return self.n_accesses
        # The repeat field is each record's last.
        return sum(
            self.records[RECORD_WIDTH - 1 : RECORD_WIDTH * n_records : RECORD_WIDTH]
        )


def _distill(workload: ProcessWorkload) -> DistinctWorkload:
    """Interleave one workload's packed columns into one record-major
    array and index its create structure.

    Raises:
        LogOrderError: when the log's time ever decreases (the fleet
            engine derives global virtual time from ordered logs).
    """
    columns = log_columns(workload.log)
    op, time, trace_id, size, module, repeat = columns
    if not all(map(le, time, islice(time, 1, None))):
        index = next(
            i for i in range(1, len(time)) if time[i] < time[i - 1]
        )
        raise LogOrderError(
            f"{workload.name}: time went backwards at record {index}: "
            f"{time[index]} after {time[index - 1]}"
        )
    n = len(op)
    records = array("q", (0,)) * (RECORD_WIDTH * n)
    records[0::RECORD_WIDTH] = array("q", op)
    for field, column in enumerate(columns[1:], 1):
        records[field::RECORD_WIDTH] = column
    by_module: dict[int, set[int]] = {}
    total = 0
    for index, code in enumerate(op):
        if code == OP_CREATE:
            by_module.setdefault(module[index], set()).add(trace_id[index])
            total += size[index]
    return DistinctWorkload(
        name=workload.name,
        records=records,
        keys=workload.keys,
        n_records=n,
        total_trace_bytes=total,
        modules=tuple(sorted(by_module)),
        traces_by_module={
            mod: frozenset(traces) for mod, traces in by_module.items()
        },
        n_accesses=sum(repeat),
    )


class FleetWorkloads:
    """P processes assigned onto D ≤ P distinct compiled workloads."""

    def __init__(
        self, distinct: list[DistinctWorkload], assignment: list[int]
    ) -> None:
        if not assignment:
            raise ConfigError("a fleet needs at least one process")
        for index in assignment:
            if not 0 <= index < len(distinct):
                raise ConfigError(
                    f"assignment references distinct workload {index} of "
                    f"{len(distinct)}"
                )
        self.distinct = distinct
        self.assignment = assignment

    @property
    def n_processes(self) -> int:
        return len(self.assignment)

    def workload_of(self, process: int) -> DistinctWorkload:
        """The distinct workload process *process* replays."""
        return self.distinct[self.assignment[process]]

    def lengths(self) -> list[int]:
        """Per-process stream lengths (scheduler input)."""
        return [self.workload_of(p).n_records for p in range(self.n_processes)]

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[tuple[str, int]],
        seed: int = 42,
        scale_multiplier: float = 1.0,
    ) -> "FleetWorkloads":
        """Lazily build a fleet from ``(benchmark, reach)`` specs.

        :func:`~repro.shared.compose.compose_specs` composes each
        distinct spec once, and each composed workload is packed before
        the next one is composed; the remaining P − D processes only
        record an assignment.

        Raises:
            ConfigError: for an empty fleet or a reach outside the
                catalog.
        """
        assignment, composed = compose_specs(
            specs, seed=seed, scale_multiplier=scale_multiplier
        )
        return cls([_distill(workload) for workload in composed], assignment)


def churn_plan(
    lengths: Sequence[int],
    seed: int = 42,
    fraction: float = DEFAULT_CHURN_FRACTION,
) -> list[ProcessStream]:
    """Deterministic spawn/exit churn over a fleet's streams.

    Each process independently spawns late with probability *fraction*
    (uniform spawn turn within the fleet's first ``2 P`` turns) and is
    killed early with probability *fraction* (keeping a uniform
    50–90% prefix of its records).  All draws come from one seeded
    substream, so the plan is a pure function of ``(lengths, seed,
    fraction)``.

    Raises:
        ConfigError: for a fraction outside ``[0, 1]``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"churn fraction must be in [0, 1], got {fraction:g}")
    rng = substream(seed, "shared.fleet.churn")
    horizon = max(1, 2 * len(lengths))
    streams: list[ProcessStream] = []
    for length in lengths:
        spawn_turn = 0
        limit = None
        if rng.random() < fraction:
            spawn_turn = rng.randrange(1, horizon + 1)
        if rng.random() < fraction:
            limit = int(length * (0.5 + 0.4 * rng.random()))
        streams.append(
            ProcessStream(length=length, spawn_turn=spawn_turn, limit=limit)
        )
    return streams
