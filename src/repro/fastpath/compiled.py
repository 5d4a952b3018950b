"""Packed struct-of-arrays trace logs (the compiled representation).

The object representation (:class:`~repro.tracelog.records.TraceLog`)
stores one frozen dataclass per record — ideal for construction and
inspection, but replay touches every record of a multi-hundred-thousand
event log once per cache configuration, and the per-object attribute
and ``isinstance`` overhead dominates the replay loop.

:class:`CompiledTraceLog` packs the same information into six parallel
``array`` columns (one machine word per field instead of one Python
object per record):

======== ========== ==================================================
column   type code  meaning
======== ========== ==================================================
op       ``B``      record opcode (same numbering as the RTL2 binary
                    format tags: 1=create 2=access 3=unmap 4=pin
                    5=unpin 6=end)
time     ``q``      virtual timestamp
trace_id ``q``      trace id (0 for unmap/end records)
size     ``q``      trace size in bytes (create records, else 0)
module   ``q``      module id (create/unmap records, else 0)
repeat   ``q``      compressed consecutive-entry count (access
                    records, else 0)
======== ========== ==================================================

Logs are born packed: the synthesizer, the text reader and
shared-library composition hand whole columns to :func:`pack_columns`,
and the RTL2 decoder and the artifact store fill columns directly.
:func:`compile_log` packs a hand-built object log, and the conversion
is **lossless** both ways: :meth:`CompiledTraceLog.decompile`
reproduces a ``TraceLog`` whose records compare equal to the source
(the object-path oracles' input), and both serializations write the
same bytes for either form (see :mod:`repro.tracelog`).

Everything that reads or writes the columns directly lives in this
package (plus the sanctioned RTL2 codec); other layers use the public
constructors, the ``TraceLog``-compatible summary properties, and the
row iterators.  The ``fastpath-api`` cachelint rule enforces this.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.errors import LogFormatError, LogOrderError
from repro.tracelog.records import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    EndOfLog,
    LogRecord,
    ModuleUnmap,
    Row,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)

#: The column attributes, in schema (and row) order.
COLUMN_NAMES = ("op", "time", "trace_id", "size", "module", "repeat")


class CompiledTraceLog:
    """A trace log packed into parallel columns.

    Build one with :func:`pack_columns` from whole columns, or with
    :func:`compile_log` (or :meth:`repro.tracelog.records.TraceLog.compile`)
    from record objects.  The RTL2 and artifact decoders fill the
    columns directly.

    The summary properties mirror :class:`TraceLog`'s so replay and
    reporting code can accept either representation.
    """

    __slots__ = (
        "benchmark",
        "duration_seconds",
        "code_footprint",
        "op",
        "time",
        "trace_id",
        "size",
        "module",
        "repeat",
        "_replayed",
    )

    def __init__(
        self,
        benchmark: str,
        duration_seconds: float,
        code_footprint: int,
    ) -> None:
        self.benchmark = benchmark
        self.duration_seconds = duration_seconds
        self.code_footprint = code_footprint
        self.op = array("B")
        self.time = array("q")
        self.trace_id = array("q")
        self.size = array("q")
        self.module = array("q")
        self.repeat = array("q")
        # (records, total) memo of replayed_accesses().
        self._replayed: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # TraceLog-compatible summary API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.op)

    @property
    def n_records(self) -> int:
        """Number of packed records."""
        return len(self.op)

    @property
    def end_time(self) -> int:
        """Total virtual execution time (EndOfLog record, or the last
        record's time if the log is unterminated)."""
        ops = self.op
        for index in range(len(ops) - 1, -1, -1):
            if ops[index] == OP_END:
                return self.time[index]
        return self.time[-1] if ops else 0

    @property
    def n_traces(self) -> int:
        """Number of distinct traces created."""
        return self.op.count(OP_CREATE)

    @property
    def total_trace_bytes(self) -> int:
        """Total bytes of traces created over the whole run."""
        return sum(self.size)

    @property
    def n_accesses(self) -> int:
        """Total trace entries including compressed repeats."""
        return sum(self.repeat)

    def replayed_accesses(self) -> int:
        """Trace entries a replay visits: the repeat column (0 on every
        non-access record) summed up to the first end record, where
        replay stops.

        The replay loop reports this as ``CacheStats.accesses``, so the
        end-of-replay check of hits plus misses against it compares
        two independent counts.  Computed once per log (recomputed
        only if the columns grew since).
        """
        n = len(self.op)
        memo = self._replayed
        if memo is None or memo[0] != n:
            end = self.op.tobytes().find(OP_END)
            repeat = self.repeat if end < 0 else self.repeat[:end]
            memo = self._replayed = (n, sum(repeat))
        return memo[1]

    # ------------------------------------------------------------------
    # Row/record iteration
    # ------------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Yield every packed record as a plain tuple."""
        return zip(
            self.op, self.time, self.trace_id, self.size, self.module, self.repeat
        )

    def iter_records(self) -> Iterator[LogRecord]:
        """Yield record *objects* lazily (the object-path fallback for
        sanitized replays, without materializing a full list)."""
        for op, time, trace_id, size, module, repeat in self.rows():
            yield _REBUILD[op](time, trace_id, size, module, repeat)

    def validate(self) -> None:
        """Full structural validation (the one implementation; an
        object log's :meth:`~repro.tracelog.records.TraceLog.validate`
        compiles and lands here).

        Checks time ordering, that accesses/pins reference created
        traces, that access repeats and create sizes are positive, and
        that every other record's repeat is 0 (the replay loop counts
        accesses from the repeat column).

        Raises:
            LogOrderError: on the first offending record.
        """
        last_time = 0
        created: set[int] = set()
        for op, time, trace_id, size, repeat in zip(
            self.op, self.time, self.trace_id, self.size, self.repeat
        ):
            if time < last_time:
                raise LogOrderError(
                    f"time went backwards: {time} after {last_time}"
                )
            last_time = time
            if op == OP_ACCESS:
                if repeat <= 0:
                    raise LogOrderError(
                        f"access to trace {trace_id} with repeat {repeat}"
                    )
                if trace_id not in created:
                    raise LogOrderError(
                        f"access to never-created trace {trace_id}"
                    )
            elif repeat:
                raise LogOrderError(
                    f"non-access record (opcode {op}) with repeat {repeat}"
                )
            elif op == OP_CREATE:
                if size <= 0:
                    raise LogOrderError(
                        f"trace {trace_id} created with size {size}"
                    )
                created.add(trace_id)
            elif (op == OP_PIN or op == OP_UNPIN) and trace_id not in created:
                raise LogOrderError(
                    f"pin/unpin of never-created trace {trace_id}"
                )

    def decompile(self) -> TraceLog:
        """Reconstruct the object representation (lossless)."""
        log = TraceLog(
            benchmark=self.benchmark,
            duration_seconds=self.duration_seconds,
            code_footprint=self.code_footprint,
        )
        log.records = list(self.iter_records())
        return log

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledTraceLog(benchmark={self.benchmark!r}, "
            f"records={len(self.op)})"
        )


# ----------------------------------------------------------------------
# Record object <-> row conversion tables
# ----------------------------------------------------------------------


def _rebuild_create(time: int, trace_id: int, size: int, module: int, _r: int):
    return TraceCreate(time=time, trace_id=trace_id, size=size, module_id=module)


def _rebuild_access(time: int, trace_id: int, _s: int, _m: int, repeat: int):
    return TraceAccess(time=time, trace_id=trace_id, repeat=repeat)


def _rebuild_unmap(time: int, _t: int, _s: int, module: int, _r: int):
    return ModuleUnmap(time=time, module_id=module)


def _rebuild_pin(time: int, trace_id: int, _s: int, _m: int, _r: int):
    return TracePin(time=time, trace_id=trace_id)


def _rebuild_unpin(time: int, trace_id: int, _s: int, _m: int, _r: int):
    return TraceUnpin(time=time, trace_id=trace_id)


def _rebuild_end(time: int, _t: int, _s: int, _m: int, _r: int):
    return EndOfLog(time=time)


_REBUILD = {
    OP_CREATE: _rebuild_create,
    OP_ACCESS: _rebuild_access,
    OP_UNMAP: _rebuild_unmap,
    OP_PIN: _rebuild_pin,
    OP_UNPIN: _rebuild_unpin,
    OP_END: _rebuild_end,
}


def _record_row(record: LogRecord) -> Row:
    kind = type(record)
    if kind is TraceAccess:
        return (OP_ACCESS, record.time, record.trace_id, 0, 0, record.repeat)
    if kind is TraceCreate:
        return (
            OP_CREATE, record.time, record.trace_id, record.size,
            record.module_id, 0,
        )
    if kind is ModuleUnmap:
        return (OP_UNMAP, record.time, 0, 0, record.module_id, 0)
    if kind is TracePin or kind is TraceUnpin:
        op = OP_PIN if kind is TracePin else OP_UNPIN
        return (op, record.time, record.trace_id, 0, 0, 0)
    if kind is EndOfLog:
        return (OP_END, record.time, 0, 0, 0, 0)
    raise LogFormatError(f"cannot compile record type {kind.__name__}")


def compile_log(log: TraceLog) -> CompiledTraceLog:
    """Pack *log* into the columnar representation (one pass).

    Raises:
        LogFormatError: on a record type outside the closed LogRecord
            union.
    """
    rows = [_record_row(record) for record in log.records]
    return pack_columns(
        log.benchmark,
        log.duration_seconds,
        log.code_footprint,
        tuple(zip(*rows)) or ((),) * len(COLUMN_NAMES),
    )


def pack_columns(
    benchmark: str,
    duration_seconds: float,
    code_footprint: int,
    columns: Sequence[Iterable[int]],
) -> CompiledTraceLog:
    """Build a compiled log from whole columns.

    *columns* holds six equal-length integer sequences in schema order
    ``(op, time, trace_id, size, module, repeat)`` — the shape
    :func:`log_columns` returns.  This is how a producer outside this
    package (the synthesizer, the text reader, composition) emits
    packed logs without touching the column writers.

    Raises:
        LogFormatError: when the columns are not six of equal length.
    """
    if len(columns) != len(COLUMN_NAMES):
        raise LogFormatError(
            f"expected {len(COLUMN_NAMES)} columns, got {len(columns)}"
        )
    compiled = CompiledTraceLog(
        benchmark=benchmark,
        duration_seconds=duration_seconds,
        code_footprint=code_footprint,
    )
    for name, values in zip(COLUMN_NAMES, columns):
        getattr(compiled, name).extend(values)
    lengths = {len(getattr(compiled, name)) for name in COLUMN_NAMES}
    if len(lengths) != 1:
        raise LogFormatError(f"column lengths differ: {sorted(lengths)}")
    return compiled


def ensure_compiled(log: TraceLog | CompiledTraceLog) -> CompiledTraceLog:
    """Return *log* packed, compiling the object form if necessary."""
    if isinstance(log, CompiledTraceLog):
        return log
    return compile_log(log)


#: One compiled log's parallel columns, in schema order.
Columns = tuple[array, array, array, array, array, array]


def log_columns(log: TraceLog | CompiledTraceLog) -> Columns:
    """The packed ``(op, time, trace_id, size, module, repeat)`` columns.

    The sanctioned *read-only* view for replay loops outside this
    package (the fleet simulator walks scheduler-issued index ranges
    over these arrays): callers get column speed without constructing
    or mutating a :class:`CompiledTraceLog` themselves, so the
    ``fastpath-api`` confinement of the column writers still holds.
    """
    compiled = ensure_compiled(log)
    return (
        compiled.op,
        compiled.time,
        compiled.trace_id,
        compiled.size,
        compiled.module,
        compiled.repeat,
    )
