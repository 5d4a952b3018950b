"""Verbose trace logs.

The paper drives every cache configuration from one recorded DynamoRIO
run: "the verbose logs generated during execution were reused for all
of our simulations" (Section 3).  This subpackage is our equivalent log
substrate: typed records, a text and a binary (RTL2) serialization, and
summary statistics.

Both codecs work on packed rows: the writers encode a
:class:`repro.fastpath.CompiledTraceLog` (an object log is compiled
first), and the validating readers return one.  Record objects are for
logs built by hand and for the object-path oracles.
"""

from repro.tracelog.records import (
    EndOfLog,
    LogRecord,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TracePin,
    TraceUnpin,
    TraceLog,
)
from repro.tracelog.reader import read_log, parse_lines
from repro.tracelog.writer import write_log, format_record
from repro.tracelog.binary import (
    dump_binary,
    load_binary,
    read_binary_log,
    write_binary_log,
)
from repro.tracelog.stats import LogStatistics, summarize_log

__all__ = [
    "EndOfLog",
    "LogRecord",
    "LogStatistics",
    "ModuleUnmap",
    "TraceAccess",
    "TraceCreate",
    "TraceLog",
    "TracePin",
    "TraceUnpin",
    "dump_binary",
    "format_record",
    "load_binary",
    "parse_lines",
    "read_binary_log",
    "read_log",
    "summarize_log",
    "write_binary_log",
    "write_log",
]
