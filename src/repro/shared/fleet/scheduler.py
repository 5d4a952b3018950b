"""The O(1)-amortized streaming interleaver (fleet internals).

:func:`repro.sim.interleave.interleave_logs` is the small-P reference:
it yields one frozen :class:`ScheduledRecord` per log record, which is
perfect for 2–8 processes and hopeless for a thousand.  The fleet
scheduler keeps the *schedule semantics* of the reference — the same
alive-list round-robin, the same ``sim.interleave`` substream draw for
the random schedule, one draw per turn — but changes the unit of work:

* it schedules over **stream lengths**, not record objects, so P
  content-identical processes share one compiled log and differ only
  in their cursors;
* it yields one :class:`Segment` (a half-open index range) per
  scheduling *turn* rather than one object per *record*, so the
  scheduler's own cost is O(events / quantum), not O(events);
* the alive set is maintained incrementally (a process is admitted at
  its spawn turn and removed when its stream drains), so each turn is
  O(1) amortized — no per-turn rescan of all P processes.

Churn is part of the schedule: a :class:`ProcessStream` may carry a
``spawn_turn`` (the process does not exist before that many scheduling
turns have elapsed) and a ``limit`` (the process is killed after that
many records — the remainder of its stream is never replayed).  Both
are deterministic inputs, so churned schedules stay pure functions of
``(streams, schedule, seed, quantum)``.

The random draw keeps the reference implementation's ``rng.randrange``
consumption, so P ≤ 8 schedules match it exactly.

This module is fleet-internal (``fleet-api`` lint rule): other layers
import the package root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigError
from repro.rand import substream
from repro.sim.interleave import DEFAULT_QUANTUM, SCHEDULES


@dataclass(frozen=True, slots=True)
class ProcessStream:
    """One process's replay stream, described by shape alone.

    Attributes:
        length: Records available in the process's (shared) log.
        spawn_turn: Scheduling turn at which the process appears
            (0 = present from the start).
        limit: Records actually replayed before the process exits
            early (None = runs to completion).
    """

    length: int
    spawn_turn: int = 0
    limit: int | None = None

    @property
    def effective_length(self) -> int:
        """Records this stream will actually contribute."""
        if self.limit is None:
            return self.length
        return min(self.length, self.limit)


@dataclass(frozen=True, slots=True)
class Segment:
    """One scheduling turn: process *process* replays records
    ``[start, stop)`` of its log."""

    process: int
    start: int
    stop: int


def stream_segments(
    streams: Sequence[ProcessStream],
    schedule: str = "round-robin",
    seed: int = 0,
    quantum: int = DEFAULT_QUANTUM,
) -> Iterator[Segment]:
    """Schedule N process streams into one deterministic segment stream.

    Every record index below each stream's effective length appears in
    exactly one yielded segment, in cursor order; only the interleaving
    varies with *schedule*.  With ``spawn_turn``/``limit`` left at
    their defaults, expanding the segments record-by-record reproduces
    the reference interleaver's schedule exactly (same alive-list
    indexing, same substream, same per-turn rng consumption).

    Args:
        streams: One stream shape per process (index = process id).
        schedule: One of :data:`repro.sim.interleave.SCHEDULES`.
        seed: Substream seed for the ``random`` schedule.
        quantum: Records consumed per turn before rescheduling.

    Raises:
        ConfigError: for an unknown schedule, no streams, a bad
            quantum, or malformed churn fields.
    """
    if schedule not in SCHEDULES:
        raise ConfigError(
            f"unknown schedule {schedule!r}; choose from {', '.join(SCHEDULES)}"
        )
    if not streams:
        raise ConfigError("scheduling needs at least one process stream")
    if quantum < 1:
        raise ConfigError(f"quantum must be >= 1, got {quantum}")
    for index, stream in enumerate(streams):
        if stream.length < 0:
            raise ConfigError(
                f"process {index} has negative length {stream.length}"
            )
        if stream.spawn_turn < 0:
            raise ConfigError(
                f"process {index} has negative spawn turn {stream.spawn_turn}"
            )
        if stream.limit is not None and stream.limit < 0:
            raise ConfigError(
                f"process {index} has negative limit {stream.limit}"
            )

    cursor = [0] * len(streams)
    remaining = [stream.effective_length for stream in streams]
    rng = substream(seed, "sim.interleave") if schedule == "random" else None

    # Deferred arrivals, most imminent last (so admission pops); the
    # alive list is maintained incrementally from here on — no per-turn
    # rescan.
    pending = sorted(
        (
            index
            for index, stream in enumerate(streams)
            if stream.spawn_turn > 0 and remaining[index] > 0
        ),
        key=lambda index: (streams[index].spawn_turn, index),
        reverse=True,
    )
    alive = [
        index
        for index, stream in enumerate(streams)
        if stream.spawn_turn == 0 and remaining[index] > 0
    ]

    turns = 0  # total scheduling turns elapsed (the churn clock)
    rr_turn = 0  # the reference implementation's round-robin counter
    while alive or pending:
        if not alive:
            # Everyone alive drained before the next arrival: fast-
            # forward the churn clock to it.
            turns = max(turns, streams[pending[-1]].spawn_turn)
        while pending and streams[pending[-1]].spawn_turn <= turns:
            alive.append(pending.pop())
        if rng is not None:
            slot = rng.randrange(len(alive))
        else:
            slot = rr_turn % len(alive)
            rr_turn += 1
        process = alive[slot]
        turns += 1
        take = min(quantum, remaining[process])
        start = cursor[process]
        cursor[process] = start + take
        remaining[process] -= take
        yield Segment(process=process, start=start, stop=start + take)
        if not remaining[process]:
            del alive[slot]
