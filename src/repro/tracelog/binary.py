"""Compact binary serialization of trace logs.

The text format (:mod:`repro.tracelog.writer`) is the canonical,
inspectable artifact; this module adds a varint-packed binary variant
several times smaller and faster to parse, for archiving the large
interactive-application logs.

Encoding: every integer is an unsigned LEB128 varint, and record times
are *delta-encoded* against the previous record (logs are time-sorted,
so deltas are small).  Layout::

    header:  magic "RTL2" | varint name_len | name utf-8
             f64 duration_seconds | varint code_footprint
             varint n_records
    record:  varint tag | varint dtime | payload
       tag 1 create:  varint trace_id | varint size | varint module_id
       tag 2 access:  varint trace_id | varint repeat
       tag 3 unmap:   varint module_id
       tag 4 pin:     varint trace_id
       tag 5 unpin:   varint trace_id
       tag 6 end:     (no payload)

The tags are the packed opcodes, so one encoder writes straight from a
:class:`repro.fastpath.CompiledTraceLog`'s rows (an object log is
compiled first) and one decoder fills packed columns: no record object
is built either way.

File I/O is *chunk-buffered*: :func:`dump_binary` flushes the encode
buffer to the stream every ~64 KiB instead of materializing the whole
log (or issuing one tiny write per record), and :func:`load_binary`
refills its decode window in 64 KiB reads.  The byte stream is
identical to :func:`dumps_binary`'s in-memory output.
"""

from __future__ import annotations

import io
import struct
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
    TraceLog,
)
from repro.units import KB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fastpath import CompiledTraceLog

MAGIC = b"RTL2"

#: Encode/decode buffer target, in bytes.  Large enough to amortize
#: stream-write syscalls, small enough to keep peak memory flat even
#: for the interactive-application logs.
CHUNK_BYTES = 64 * KB


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise LogFormatError(f"cannot varint-encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def dump_binary(
    log: TraceLog | CompiledTraceLog, stream, chunk_size: int = CHUNK_BYTES
) -> int:
    """Stream *log* to a writable binary *stream* in buffered chunks.

    The packed rows are encoded directly; a :class:`TraceLog` is
    compiled first, so both forms of one log write the same bytes.

    Returns the number of bytes written.  The output is byte-identical
    to :func:`dumps_binary`.
    """
    # Imported lazily: repro.fastpath packs this package's record types,
    # so a module-level import would cycle.
    from repro.fastpath import ensure_compiled

    if chunk_size < 1:
        raise LogFormatError(f"chunk_size must be >= 1, got {chunk_size}")
    compiled = ensure_compiled(log)
    out = bytearray(MAGIC)
    name = compiled.benchmark.encode("utf-8")
    _write_varint(out, len(name))
    out += name
    out += struct.pack("<d", compiled.duration_seconds)
    _write_varint(out, compiled.code_footprint)
    _write_varint(out, len(compiled))
    written = 0
    previous_time = 0
    write = _write_varint
    for op, time, trace_id, size, module_id, repeat in compiled.rows():
        delta = time - previous_time
        if delta < 0:
            raise LogFormatError("binary format requires time-sorted records")
        previous_time = time
        write(out, op)
        write(out, delta)
        if op == OP_ACCESS:
            write(out, trace_id)
            write(out, repeat)
        elif op == OP_CREATE:
            write(out, trace_id)
            write(out, size)
            write(out, module_id)
        elif op == OP_UNMAP:
            write(out, module_id)
        elif op == OP_PIN or op == OP_UNPIN:
            write(out, trace_id)
        elif op != OP_END:
            raise LogFormatError(f"unknown compiled opcode {op}")
        if len(out) >= chunk_size:
            stream.write(out)
            written += len(out)
            out = bytearray()
    if out:
        stream.write(out)
        written += len(out)
    return written


def dumps_binary(log: TraceLog | CompiledTraceLog) -> bytes:
    """Serialize a :class:`TraceLog` or compiled log to compact bytes."""
    buffer = io.BytesIO()
    dump_binary(log, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Reader:
    """Byte cursor with varint decoding over an in-memory buffer.

    Multi-byte reads slice a :class:`memoryview`, so no per-record
    bytes copies are made; single-byte varint reads index the view
    directly (an int, copy-free either way).
    """

    def __init__(self, data: bytes) -> None:
        self.data = memoryview(data)
        self.pos = 0

    def bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise LogFormatError("truncated binary log")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk.tobytes()

    def varint(self) -> int:
        result = 0
        shift = 0
        data = self.data
        pos = self.pos
        end = len(data)
        while True:
            if pos >= end:
                raise LogFormatError("truncated varint in binary log")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7
            if shift > 63:
                raise LogFormatError("varint too long in binary log")


class _StreamReader:
    """Same cursor interface, refilled from a stream in buffered chunks.

    The buffer is a :class:`bytearray` compacted in place (``del
    buffer[:pos]``) instead of re-sliced into a fresh bytes object on
    every refill, and multi-byte reads go through a memoryview.
    """

    def __init__(self, stream, chunk_size: int = CHUNK_BYTES) -> None:
        if chunk_size < 1:
            raise LogFormatError(f"chunk_size must be >= 1, got {chunk_size}")
        self.stream = stream
        self.chunk_size = chunk_size
        self.buffer = bytearray()
        self.pos = 0
        self.eof = False

    def _refill(self, need: int) -> None:
        """Ensure at least *need* unread bytes are buffered (or EOF)."""
        if self.pos:
            del self.buffer[: self.pos]
            self.pos = 0
        while not self.eof and len(self.buffer) < need:
            chunk = self.stream.read(max(self.chunk_size, need - len(self.buffer)))
            if not chunk:
                self.eof = True
                break
            self.buffer += chunk

    def bytes(self, n: int) -> bytes:
        if self.pos + n > len(self.buffer):
            self._refill(n)
            if n > len(self.buffer):
                raise LogFormatError("truncated binary log")
        chunk = bytes(memoryview(self.buffer)[self.pos : self.pos + n])
        self.pos += n
        return chunk

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self.pos >= len(self.buffer):
                self._refill(1)
                if self.pos >= len(self.buffer):
                    raise LogFormatError("truncated varint in binary log")
            byte = self.buffer[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise LogFormatError("varint too long in binary log")


def _parse(reader, validate: bool) -> CompiledTraceLog:
    """Decode straight into packed columns: each record is six column
    appends, with times un-delta'd on the fly.

    Raises:
        LogFormatError: on bad magic, truncation or an unknown tag.
        LogOrderError: if *validate* and the log is structurally
            invalid (see :meth:`repro.fastpath.CompiledTraceLog.validate`).
    """
    from repro.fastpath.compiled import CompiledTraceLog

    if reader.bytes(4) != MAGIC:
        raise LogFormatError("bad binary-log magic")
    name = reader.bytes(reader.varint()).decode("utf-8")
    (duration,) = struct.unpack("<d", reader.bytes(8))
    footprint = reader.varint()
    n_records = reader.varint()
    compiled = CompiledTraceLog(
        benchmark=name, duration_seconds=duration, code_footprint=footprint
    )
    varint = reader.varint
    append_op = compiled.op.append
    append_time = compiled.time.append
    append_trace = compiled.trace_id.append
    append_size = compiled.size.append
    append_module = compiled.module.append
    append_repeat = compiled.repeat.append
    time = 0
    for _ in range(n_records):
        tag = varint()
        time += varint()
        if tag == OP_ACCESS:
            trace_id, size, module_id, repeat = varint(), 0, 0, varint()
        elif tag == OP_CREATE:
            trace_id, size, module_id, repeat = varint(), varint(), varint(), 0
        elif tag == OP_UNMAP:
            trace_id, size, module_id, repeat = 0, 0, varint(), 0
        elif tag == OP_PIN or tag == OP_UNPIN:
            trace_id, size, module_id, repeat = varint(), 0, 0, 0
        elif tag == OP_END:
            trace_id = size = module_id = repeat = 0
        else:
            raise LogFormatError(f"unknown binary record tag {tag}")
        append_op(tag)
        append_time(time)
        append_trace(trace_id)
        append_size(size)
        append_module(module_id)
        append_repeat(repeat)
    if validate:
        compiled.validate()
    return compiled


def loads_binary(data: bytes, validate: bool = True) -> CompiledTraceLog:
    """Parse a binary log from bytes into packed columns."""
    return _parse(_Reader(data), validate)


def load_binary(
    stream, validate: bool = True, chunk_size: int = CHUNK_BYTES
) -> CompiledTraceLog:
    """Parse a binary log from a readable *stream* in buffered chunks."""
    return _parse(_StreamReader(stream, chunk_size=chunk_size), validate)


# ----------------------------------------------------------------------
# File convenience wrappers
# ----------------------------------------------------------------------


def write_binary_log(log: TraceLog | CompiledTraceLog, path: str | Path) -> None:
    """Write a :class:`TraceLog` or compiled log to a binary file
    (chunk-buffered)."""
    with open(path, "wb") as stream:
        dump_binary(log, stream)


def read_binary_log(path: str | Path, validate: bool = True) -> CompiledTraceLog:
    """Read a binary log file into packed columns (chunk-buffered)."""
    with open(path, "rb") as stream:
        return load_binary(stream, validate=validate)
