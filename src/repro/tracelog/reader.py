"""Parsing and validating trace logs written by :mod:`repro.tracelog.writer`.

Each line parses to one packed row, and the rows are packed into a
:class:`repro.fastpath.CompiledTraceLog` once, through
:func:`repro.fastpath.pack_columns`: no record object is built.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import LogFormatError
from repro.tracelog.records import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    Row,
)
from repro.tracelog.writer import HEADER_MAGIC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fastpath import CompiledTraceLog


def _parse_header_line(line: str) -> dict[str, str]:
    """Parse ``# key=value key=value`` metadata."""
    fields: dict[str, str] = {}
    for token in line.lstrip("#").split():
        if "=" not in token:
            raise LogFormatError(f"malformed header token: {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def _parse_record(line: str, line_no: int) -> Row:
    parts = line.split()
    tag = parts[0]
    try:
        if tag == "C":
            return (
                OP_CREATE, int(parts[1]), int(parts[2]), int(parts[3]),
                int(parts[4]), 0,
            )
        if tag == "A":
            repeat = int(parts[3]) if len(parts) > 3 else 1
            return (OP_ACCESS, int(parts[1]), int(parts[2]), 0, 0, repeat)
        if tag == "U":
            return (OP_UNMAP, int(parts[1]), 0, 0, int(parts[2]), 0)
        if tag == "P":
            return (OP_PIN, int(parts[1]), int(parts[2]), 0, 0, 0)
        if tag == "N":
            return (OP_UNPIN, int(parts[1]), int(parts[2]), 0, 0, 0)
        if tag == "E":
            return (OP_END, int(parts[1]), 0, 0, 0, 0)
    except (IndexError, ValueError) as exc:
        raise LogFormatError(f"line {line_no}: malformed record {line!r}") from exc
    raise LogFormatError(f"line {line_no}: unknown record tag {tag!r}")


def parse_lines(lines: Iterable[str], validate: bool = True) -> CompiledTraceLog:
    """Parse an iterable of log lines into a packed log.

    Args:
        lines: Lines including the two header lines.
        validate: Run full structural validation after parsing.

    Raises:
        LogFormatError: on any malformed line.
        LogOrderError: if *validate* and the log is structurally
            invalid (see :meth:`repro.fastpath.CompiledTraceLog.validate`).
    """
    # Imported lazily: repro.fastpath packs this package's record types,
    # so a module-level import would cycle.
    from repro.fastpath import pack_columns

    iterator = iter(lines)
    try:
        magic = next(iterator).rstrip("\n")
    except StopIteration:
        raise LogFormatError("empty log") from None
    if magic.strip() != HEADER_MAGIC:
        raise LogFormatError(f"bad magic line: {magic!r}")
    try:
        meta_line = next(iterator).rstrip("\n")
    except StopIteration:
        raise LogFormatError("missing metadata header") from None
    meta = _parse_header_line(meta_line)
    for key in ("benchmark", "duration", "footprint"):
        if key not in meta:
            raise LogFormatError(f"metadata header missing {key!r}")
    numbers = []
    for key, convert in (("duration", float), ("footprint", int)):
        try:
            numbers.append(convert(meta[key]))
        except ValueError:
            raise LogFormatError(
                f"malformed metadata value {key}={meta[key]!r}"
            ) from None

    columns = ([], [], [], [], [], [])
    add_op, add_time, add_trace, add_size, add_module, add_repeat = (
        column.append for column in columns
    )
    for line_no, raw in enumerate(iterator, start=3):
        line = raw.strip()
        if line and not line.startswith("#"):
            op, time, trace_id, size, module, repeat = _parse_record(line, line_no)
            add_op(op)
            add_time(time)
            add_trace(trace_id)
            add_size(size)
            add_module(module)
            add_repeat(repeat)
    log = pack_columns(meta["benchmark"], *numbers, columns)
    if validate:
        log.validate()
    return log


def read_log(path: str | Path, validate: bool = True) -> CompiledTraceLog:
    """Read and parse the log file at *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return parse_lines(stream, validate=validate)


def loads_log(text: str, validate: bool = True) -> CompiledTraceLog:
    """Parse a log from an in-memory string."""
    return parse_lines(text.splitlines(), validate=validate)
