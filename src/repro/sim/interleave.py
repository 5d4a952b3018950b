"""Deterministic multi-process trace-log interleaving.

The shared-cache experiments replay N per-process logs against one
cache group.  Real processes interleave nondeterministically; the
simulator needs the opposite — a *schedule* that is a pure function of
its inputs, so every table is byte-reproducible.  Two schedules:

* ``round-robin`` — each process runs a fixed quantum of records, in
  process order (the fair, maximally interleaved baseline).
* ``random`` — the next process is drawn from a
  :mod:`repro.rand` substream (seeded, hence still deterministic);
  models bursty, uneven scheduling.

Each scheduled record carries a *global virtual time*: the sum of
every process's consumed per-process time deltas, which gives the cache
group one monotone clock for recency and temperature decay even though
the per-process clocks run independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import ConfigError
from repro.rand import substream

if TYPE_CHECKING:
    from repro.tracelog.records import LogRecord, TraceLog

#: Supported schedule names.
SCHEDULES = ("round-robin", "random")

#: Default records consumed per scheduling turn.
DEFAULT_QUANTUM = 32


@dataclass(frozen=True)
class ScheduledRecord:
    """One log record attributed to its process under a schedule.

    Attributes:
        process: Index of the process the record belongs to.
        record: The original log record (untouched).
        global_time: Monotone interleaved virtual time at which the
            record executes.
    """

    process: int
    record: LogRecord
    global_time: int


def interleave_logs(
    logs: Sequence[TraceLog],
    schedule: str = "round-robin",
    seed: int = 0,
    quantum: int = DEFAULT_QUANTUM,
) -> Iterator[ScheduledRecord]:
    """Merge N logs into one deterministic scheduled stream.

    Every record of every log appears exactly once, in per-process
    order; only the interleaving between processes varies with
    *schedule*.

    Args:
        logs: One log per process (index = process id).
        schedule: One of :data:`SCHEDULES`.
        seed: Substream seed for the ``random`` schedule.
        quantum: Records consumed per turn before rescheduling.

    Raises:
        ConfigError: for an unknown schedule, an empty log list, or a
            non-positive quantum.
    """
    if schedule not in SCHEDULES:
        raise ConfigError(
            f"unknown schedule {schedule!r}; choose from {', '.join(SCHEDULES)}"
        )
    if not logs:
        raise ConfigError("interleaving needs at least one log")
    if quantum < 1:
        raise ConfigError(f"quantum must be >= 1, got {quantum}")
    positions = [0] * len(logs)
    last_time = [0] * len(logs)
    global_time = 0
    remaining = [len(log.records) for log in logs]
    rng = substream(seed, "sim.interleave") if schedule == "random" else None

    # The alive list is maintained incrementally: a process is removed
    # the moment its log drains, so each scheduling turn costs O(1)
    # amortized instead of an O(P) rescan.  Removal keeps the list in
    # process order, which preserves the original schedule exactly
    # (round-robin indexes `alive[turn % len(alive)]`, and the random
    # draw consumes one rng value per turn either way).
    alive = [idx for idx, left in enumerate(remaining) if left > 0]
    turn = 0
    while alive:
        if rng is not None:
            slot = rng.randrange(len(alive))
        else:
            slot = turn % len(alive)
            turn += 1
        process = alive[slot]
        log = logs[process]
        for _ in range(min(quantum, remaining[process])):
            record = log.records[positions[process]]
            positions[process] += 1
            remaining[process] -= 1
            delta = max(0, record.time - last_time[process])
            last_time[process] = record.time
            global_time += delta
            yield ScheduledRecord(
                process=process, record=record, global_time=global_time
            )
        if not remaining[process]:
            del alive[slot]
