"""Typed trace-log records.

A trace log is the time-ordered record of everything the dynamic
optimizer did that a cache simulator needs to replay:

* :class:`TraceCreate` — a trace was generated (first insertion).
* :class:`TraceAccess` — the trace was entered from the dispatcher;
  ``repeat`` compresses consecutive entries of the same trace (the
  first entry may miss, the remainder are guaranteed hits, so the
  compression is behaviour-preserving).
* :class:`ModuleUnmap` — a code region was unmapped; all traces built
  from it must be deleted immediately (Section 3.4).
* :class:`TracePin` / :class:`TraceUnpin` — a trace became temporarily
  undeletable (e.g. an exception is being handled inside it) and later
  deletable again (Section 4.2).
* :class:`EndOfLog` — program termination, carrying the total virtual
  execution time used by lifetime analysis (Equation 2).

Times are virtual instruction counts — monotone, dimensionless, and
convertible to seconds via a benchmark's declared duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LogOrderError


@dataclass(frozen=True)
class TraceCreate:
    """A new trace entered the code cache for the first time.

    Attributes:
        time: Virtual time of creation.
        trace_id: Unique id of the trace.
        size: Trace size in bytes (drives placement and cost model).
        module_id: Module the trace's code came from (drives unmaps).
    """

    time: int
    trace_id: int
    size: int
    module_id: int


@dataclass(frozen=True)
class TraceAccess:
    """The dispatcher transferred control to a trace.

    Attributes:
        time: Virtual time of the (first) entry.
        trace_id: The trace entered.
        repeat: Number of consecutive entries this record stands for.
    """

    time: int
    trace_id: int
    repeat: int = 1


@dataclass(frozen=True)
class ModuleUnmap:
    """A module's code region was unmapped; its traces are now stale."""

    time: int
    module_id: int


@dataclass(frozen=True)
class TracePin:
    """The trace became undeletable (exception in flight, etc.)."""

    time: int
    trace_id: int


@dataclass(frozen=True)
class TraceUnpin:
    """The trace is deletable again."""

    time: int
    trace_id: int


@dataclass(frozen=True)
class EndOfLog:
    """Program termination marker.

    Attributes:
        time: Total virtual execution time (Equation 2 denominator).
    """

    time: int


LogRecord = TraceCreate | TraceAccess | ModuleUnmap | TracePin | TraceUnpin | EndOfLog

#: Record opcodes: the RTL2 binary tags and the packed ``op`` column of
#: :class:`repro.fastpath.CompiledTraceLog`, so neither codec needs a
#: translation table.
OP_CREATE = 1
OP_ACCESS = 2
OP_UNMAP = 3
OP_PIN = 4
OP_UNPIN = 5
OP_END = 6

#: One record as a packed row: ``(op, time, trace_id, size, module,
#: repeat)``, with 0 in the fields its kind does not carry.
Row = tuple[int, int, int, int, int, int]


@dataclass
class TraceLog:
    """An in-memory trace log.

    Attributes:
        benchmark: Benchmark name the log was recorded from.
        duration_seconds: Wall-clock duration of the recorded run
            (Table 1 for interactive apps); used to convert insertion
            counts into KB/s for Figure 3.
        code_footprint: Static code footprint in bytes of the recorded
            application, including libraries (Equation 1 denominator).
        records: Time-ordered records.
    """

    benchmark: str
    duration_seconds: float
    code_footprint: int
    records: list[LogRecord] = field(default_factory=list)

    def append(self, record: LogRecord) -> None:
        """Append a record, enforcing non-decreasing time order."""
        if self.records and record.time < self.records[-1].time:
            raise LogOrderError(
                f"record at time {record.time} appended after time "
                f"{self.records[-1].time}"
            )
        self.records.append(record)

    @property
    def end_time(self) -> int:
        """Total virtual execution time (from the EndOfLog record, or
        the last record's time if the log is unterminated)."""
        for record in reversed(self.records):
            if isinstance(record, EndOfLog):
                return record.time
        return self.records[-1].time if self.records else 0

    @property
    def n_traces(self) -> int:
        """Number of distinct traces created."""
        return sum(1 for r in self.records if isinstance(r, TraceCreate))

    @property
    def total_trace_bytes(self) -> int:
        """Total bytes of traces created over the whole run."""
        return sum(r.size for r in self.records if isinstance(r, TraceCreate))

    @property
    def n_accesses(self) -> int:
        """Total trace entries including compressed repeats."""
        return sum(r.repeat for r in self.records if isinstance(r, TraceAccess))

    def creates(self) -> list[TraceCreate]:
        """All TraceCreate records in order."""
        return [r for r in self.records if isinstance(r, TraceCreate)]

    def compile(self):
        """Pack into the columnar fast-path representation.

        Returns:
            repro.fastpath.CompiledTraceLog: see :mod:`repro.fastpath`.
        """
        # Imported lazily: repro.fastpath packs these record types, so
        # a module-level import would cycle.
        from repro.fastpath import compile_log

        return compile_log(self)

    def validate(self) -> None:
        """Full structural validation.

        Checks time ordering, that accesses/pins reference created
        traces, and that repeats and sizes are positive.  The checks
        run on the packed columns: see
        :meth:`repro.fastpath.CompiledTraceLog.validate`.

        Raises:
            LogOrderError: on the first offending record.
            LogFormatError: on a record type outside the LogRecord union.
        """
        self.compile().validate()
