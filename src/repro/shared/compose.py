"""Composing per-process workloads for multi-tenant scenarios.

A *process workload* pairs a trace log with the content key of every
trace it creates (:class:`~repro.shared.identity.TraceKey`), which is
what lets the multi-process simulator recognize identical code across
processes:

* Two processes running the **same benchmark** (same binary, same
  recording) generate identical logs, so every trace keys equal —
  the homogeneous mix deduplicates fully under sharing.
* Heterogeneous processes share through a **shared-library overlay**:
  one library log (synthesized once, from one library-private seed) is
  merged into every process's log with its trace/module ids remapped
  into reserved ranges and its times rescaled to the host process's
  duration.  Library keys are derived from the *original* library
  identity, so every process agrees on them — the cross-process
  overlap ShareJIT observes from frameworks and system libraries.

Libraries are prepared once per library log (:func:`prepare_library`):
the id remapping and the sha256 content keys are computed a single
time, and every app the library links into reuses the prepared form —
only the per-app time rescale runs per merge.

Composition works on packed rows end to end: app and library logs come
from the artifact store as :class:`repro.fastpath.CompiledTraceLog`,
their rows are remapped, rescaled and merged one at a time into
columns, and each composed workload is packed once through
:func:`repro.fastpath.pack_columns`.  No record object is built.

Libraries form a *catalog* ranked by popularity
(:data:`LIBRARY_CATALOG`), and each process links the top-``reach``
entries.  The paper-scale table links every process to the rank-0
overlay (reach 1); a fleet process draws its reach from a seeded Zipf
distribution (:func:`zipf_reaches`), so the rank-``i`` library is
mapped by a Zipf-shaped share of the fleet (``P(reach > i)``) while
per-process library sets stay nested prefixes — which bounds the
number of *distinct* workload contents by ``len(palette) *
len(catalog)`` regardless of the process count.  :func:`compose_specs`
builds every process mix from one ``(benchmark, reach)`` spec per
process.

Library ``ModuleUnmap`` records are dropped during the overlay: a
shared library outlives any one process's phases, and per-process
unmap of shared code is exactly what the reference-counted shared
cache's detach path models.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import merge
from itertools import chain
from operator import itemgetter
from typing import Iterator, Sequence

from repro.errors import ConfigError
from repro.fastpath import (
    OP_CREATE,
    OP_END,
    OP_UNMAP,
    CompiledTraceLog,
    log_columns,
    pack_columns,
)
from repro.fastpath.artifacts import cached_compiled
from repro.rand import derive_seed, substream
from repro.shared.identity import TraceKey
from repro.tracelog.records import Row, TraceLog
from repro.workloads.catalog import get_profile

#: Namespace of shared-library trace keys (never collides with a
#: benchmark name).  Catalog ranks beyond the first suffix the library
#: name (``__shlib__:mcf``) so distinct libraries never alias.
LIBRARY_NAMESPACE = "__shlib__"

#: Library trace ids are remapped above every app trace id (the
#: rank-``k`` catalog entry uses the ``(k + 1)``-th multiple).
LIBRARY_TRACE_BASE = 1 << 24

#: Library module ids are remapped above every app module id.
LIBRARY_MODULE_BASE = 1 << 20

#: Extra scale divisor on the library profile (shrinks the library
#: relative to the app it is linked into).
DEFAULT_LIBRARY_SCALE = 2.0

#: Library catalog, in popularity-rank order.  The rank-0 entry is the
#: one overlay every process of the paper-scale shared table links
#: (reach 1); fleet processes link Zipf-drawn prefixes of the catalog.
LIBRARY_CATALOG = ("gap", "mcf", "art", "eon")

#: Zipf skew of the per-process library-reach draw.
DEFAULT_ZIPF_SKEW = 1.1

#: A packed row's time field: the merge key of composition.
_TIME = itemgetter(1)


@dataclass
class ProcessWorkload:
    """One process's replayable workload.

    Attributes:
        name: Display name (benchmark, plus ``+shlib`` when composed).
        log: The process's packed trace log.
        keys: Content key per created trace id (covering every create
            record in :attr:`log`).
    """

    name: str
    log: CompiledTraceLog
    keys: dict[int, TraceKey] = field(default_factory=dict)


@dataclass(frozen=True)
class PreparedLibrary:
    """A shared-library log pre-remapped for overlay composition.

    Trace/module ids are already shifted into the library's reserved
    range and every content key is already hashed, so linking the
    library into an app costs only the per-app time rescale — the
    remap and the sha256 work run once per library, not once per
    distinct app (let alone once per process).

    Attributes:
        name: Library benchmark name.
        rank: Popularity rank in the catalog (0 = most popular).
        end_time: The library log's own end time (rescale denominator).
        code_footprint: The library log's code footprint.
        keys: Content key per *remapped* trace id.
        rows: Packed ``(op, time, trace_id, size, module, repeat)``
            rows in log order, ids remapped, times unscaled.
    """

    name: str
    rank: int
    end_time: int
    code_footprint: int
    keys: dict[int, TraceKey]
    rows: tuple[Row, ...]


def workload_keys(
    namespace: str, log: TraceLog | CompiledTraceLog
) -> dict[int, TraceKey]:
    """Content keys of every trace a synthesized log creates."""
    op, _time, trace_id, size, module, _repeat = log_columns(log)
    return {
        tid: TraceKey.from_workload(namespace, tid, trace_size, module_id)
        for code, tid, trace_size, module_id in zip(op, trace_id, size, module)
        if code == OP_CREATE
    }


def library_namespace(name: str, rank: int) -> str:
    """Key namespace of the rank-``rank`` catalog library."""
    if rank == 0:
        return LIBRARY_NAMESPACE
    return f"{LIBRARY_NAMESPACE}:{name}"


def prepare_library(
    name: str, library_log: TraceLog | CompiledTraceLog, rank: int = 0
) -> PreparedLibrary:
    """Pre-remap *library_log* into overlay form (once per library).

    Raises:
        ConfigError: for a negative rank.
    """
    if rank < 0:
        raise ConfigError(f"library rank must be >= 0, got {rank}")
    namespace = library_namespace(name, rank)
    trace_base = LIBRARY_TRACE_BASE * (rank + 1)
    module_base = LIBRARY_MODULE_BASE * (rank + 1)
    keys: dict[int, TraceKey] = {}
    rows: list[Row] = []
    for op, time, trace_id, size, module, repeat in zip(*log_columns(library_log)):
        if op == OP_UNMAP or op == OP_END:
            continue
        if op == OP_CREATE:
            keys[trace_id + trace_base] = TraceKey.from_workload(
                namespace, trace_id, size, module
            )
            module += module_base
        rows.append((op, time, trace_id + trace_base, size, module, repeat))
    return PreparedLibrary(
        name=name,
        rank=rank,
        end_time=max(1, library_log.end_time),
        code_footprint=library_log.code_footprint,
        keys=keys,
        rows=tuple(rows),
    )


def _rescaled_rows(library: PreparedLibrary, app_end: int) -> Iterator[Row]:
    """The library's rows on the app's virtual-time axis, one at a time."""
    lib_end = library.end_time
    return (
        (op, time * app_end // lib_end, trace_id, size, module, repeat)
        for op, time, trace_id, size, module, repeat in library.rows
    )


def compose_with_libraries(
    app_name: str,
    app_log: TraceLog | CompiledTraceLog,
    libraries: Sequence[PreparedLibrary],
) -> ProcessWorkload:
    """Link prepared shared libraries into one process's log.

    Library record times are rescaled onto the app's virtual-time axis
    (so library reuse spreads across the whole run); the remapped ids
    and hashed keys come straight from the prepared form.  The streams
    merge by time, and on a tie the app wins, then libraries in rank
    order — for a single library this reproduces, byte for byte, the
    app-wins-ties merge the 2/4/8-process tables were built on.  Merged
    rows go straight into columns, which are packed once, so only the
    merge's current rows are ever alive as tuples.
    """
    app_end = max(1, app_log.end_time)
    keys = workload_keys(app_name, app_log)
    footprint = app_log.code_footprint
    streams = [
        (row for row in zip(*log_columns(app_log)) if row[0] != OP_END)
    ]
    for library in libraries:
        keys.update(library.keys)
        footprint += library.code_footprint
        streams.append(_rescaled_rows(library, app_end))
    columns = ([], [], [], [], [], [])
    add_op, add_time, add_trace, add_size, add_module, add_repeat = (
        column.append for column in columns
    )
    end = (OP_END, app_end, 0, 0, 0, 0)
    for op, time, trace_id, size, module, repeat in chain(
        merge(*streams, key=_TIME), (end,)
    ):
        add_op(op)
        add_time(time)
        add_trace(trace_id)
        add_size(size)
        add_module(module)
        add_repeat(repeat)
    suffix = "+shlib" if len(libraries) == 1 else f"+shlib{len(libraries)}"
    name = f"{app_name}{suffix}" if libraries else app_name
    log = pack_columns(name, app_log.duration_seconds, footprint, columns)
    log.validate()
    return ProcessWorkload(name=name, log=log, keys=keys)


def zipf_reaches(
    processes: int,
    catalog_size: int,
    seed: int = 42,
    skew: float = DEFAULT_ZIPF_SKEW,
) -> list[int]:
    """Per-process library reach under a seeded Zipf draw.

    Process ``p`` links the top-``reaches[p]`` catalog libraries, so
    reach ``r`` is drawn with probability proportional to ``r**-skew``
    over ``{1, ..., catalog_size}``.  Nested prefixes keep distinct
    workload contents bounded while giving every library rank a
    Zipf-shaped fleet-wide popularity.

    Raises:
        ConfigError: for a non-positive process count, catalog size, or
            skew.
    """
    if processes < 1:
        raise ConfigError(f"reach draw needs >= 1 process, got {processes}")
    if catalog_size < 1:
        raise ConfigError(
            f"reach draw needs a non-empty catalog, got {catalog_size}"
        )
    if skew <= 0:
        raise ConfigError(f"zipf skew must be > 0, got {skew:g}")
    cumulative: list[float] = []
    total = 0.0
    for rank in range(1, catalog_size + 1):
        total += rank**-skew
        cumulative.append(total)
    rng = substream(seed, "shared.fleet.zipf")
    return [
        bisect_left(cumulative, rng.random() * total) + 1
        for _ in range(processes)
    ]


def build_library_catalog(
    seed: int = 42,
    scale_multiplier: float = 1.0,
    reach: int = 1,
    library_scale: float = DEFAULT_LIBRARY_SCALE,
) -> list[PreparedLibrary]:
    """Synthesize and prepare the top-``reach`` catalog libraries.

    The rank-0 library, the one overlay of the paper-scale shared
    table, derives its seed from ``shared.library``; deeper ranks
    derive per-library seeds.

    Raises:
        ConfigError: for a reach outside ``[0, len(LIBRARY_CATALOG)]``
            or a non-positive library scale.
    """
    if not 0 <= reach <= len(LIBRARY_CATALOG):
        raise ConfigError(
            f"library reach must be in [0, {len(LIBRARY_CATALOG)}], got {reach}"
        )
    if library_scale <= 0:
        raise ConfigError(f"library scale must be > 0, got {library_scale:g}")
    prepared: list[PreparedLibrary] = []
    for rank in range(reach):
        name = LIBRARY_CATALOG[rank]
        profile = get_profile(name)
        lib_seed = (
            derive_seed(seed, "shared.library")
            if rank == 0
            else derive_seed(seed, f"shared.library.{name}")
        )
        log = cached_compiled(
            profile,
            seed=lib_seed,
            scale=profile.default_scale * scale_multiplier * library_scale,
        )
        prepared.append(prepare_library(name, log, rank=rank))
    return prepared


def compose_specs(
    specs: Sequence[tuple[str, int]],
    seed: int = 42,
    scale_multiplier: float = 1.0,
) -> tuple[list[int], Iterator[ProcessWorkload]]:
    """Compose a process mix from one ``(benchmark, library reach)``
    spec per process (index = process id).

    Returns the assignment of each process to a distinct spec (numbered
    in order of first appearance) and an iterator that composes the
    distinct workloads in that order, one at a time, so a caller that
    packs each one can drop it before the next is built.  App logs are
    synthesized once per distinct benchmark and the library catalog
    once per rank, so synthesis work does not grow with the process
    count.

    Raises:
        ConfigError: for an empty mix or a reach outside the catalog.
    """
    if not specs:
        raise ConfigError("a process mix needs at least one process")
    index_of: dict[tuple[str, int], int] = {}
    assignment = [index_of.setdefault(spec, len(index_of)) for spec in specs]
    for benchmark, reach in index_of:
        if not 0 <= reach <= len(LIBRARY_CATALOG):
            raise ConfigError(
                f"library reach must be in [0, {len(LIBRARY_CATALOG)}], got "
                f"{reach} for {benchmark!r}"
            )
    return assignment, _compose_distinct(list(index_of), seed, scale_multiplier)


def _compose_distinct(
    specs: list[tuple[str, int]], seed: int, scale_multiplier: float
) -> Iterator[ProcessWorkload]:
    """Each distinct spec's workload, composed on demand."""
    libraries = build_library_catalog(
        seed=seed,
        scale_multiplier=scale_multiplier,
        reach=max(reach for _, reach in specs),
    )
    app_logs: dict[str, CompiledTraceLog] = {}
    for benchmark, reach in specs:
        if benchmark not in app_logs:
            profile = get_profile(benchmark)
            app_logs[benchmark] = cached_compiled(
                profile,
                seed=seed,
                scale=profile.default_scale * scale_multiplier,
            )
        app_log = app_logs[benchmark]
        if reach:
            yield compose_with_libraries(benchmark, app_log, libraries[:reach])
        else:
            yield ProcessWorkload(
                name=benchmark,
                log=app_log,
                keys=workload_keys(benchmark, app_log),
            )
