"""Text serialization of trace logs.

The format is a line-oriented plain-text file, one record per line,
with a three-line header.  It is deliberately simple — the point is a
stable artifact that can be recorded once and replayed against every
cache configuration, like the paper's verbose DynamoRIO logs.

Format::

    # repro-tracelog v1
    # benchmark=<name> duration=<seconds> footprint=<bytes>
    C <time> <trace_id> <size> <module_id>     (trace create)
    A <time> <trace_id> <repeat>               (trace access)
    U <time> <module_id>                       (module unmap)
    P <time> <trace_id>                        (pin undeletable)
    N <time> <trace_id>                        (unpin)
    E <time>                                   (end of log)

Lines are rendered from packed rows
(:meth:`repro.fastpath.CompiledTraceLog.rows`); an object log is
compiled first, so both forms of one log write the same text.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import LogFormatError
from repro.tracelog.records import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    Row,
    TraceLog,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fastpath import CompiledTraceLog

HEADER_MAGIC = "# repro-tracelog v1"


def format_record(row: Row) -> str:
    """Render one packed row as its log line."""
    op, time, trace_id, size, module, repeat = row
    if op == OP_ACCESS:
        return f"A {time} {trace_id} {repeat}"
    if op == OP_CREATE:
        return f"C {time} {trace_id} {size} {module}"
    if op == OP_UNMAP:
        return f"U {time} {module}"
    if op == OP_PIN:
        return f"P {time} {trace_id}"
    if op == OP_UNPIN:
        return f"N {time} {trace_id}"
    if op == OP_END:
        return f"E {time}"
    raise LogFormatError(f"unknown opcode {op}")


def dump_log(log: TraceLog | CompiledTraceLog, stream: io.TextIOBase) -> None:
    """Write *log* to an open text stream, row by row (a
    :class:`TraceLog` is compiled first)."""
    # Imported lazily: repro.fastpath packs this package's record types,
    # so a module-level import would cycle.
    from repro.fastpath import ensure_compiled

    compiled = ensure_compiled(log)
    stream.write(HEADER_MAGIC + "\n")
    stream.write(
        f"# benchmark={compiled.benchmark} duration={compiled.duration_seconds} "
        f"footprint={compiled.code_footprint}\n"
    )
    for row in compiled.rows():
        stream.write(format_record(row) + "\n")


def write_log(log: TraceLog | CompiledTraceLog, path: str | Path) -> None:
    """Write *log* to a file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        dump_log(log, stream)


def dumps_log(log: TraceLog | CompiledTraceLog) -> str:
    """Serialize *log* to a string."""
    buffer = io.StringIO()
    dump_log(log, buffer)
    return buffer.getvalue()
