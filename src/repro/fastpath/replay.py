"""The batched replay loop over a compiled log.

Semantically a line-for-line mirror of
:meth:`repro.cachesim.simulator.CacheSimulator`'s record handlers, but
restructured for throughput:

* **table dispatch** over the packed opcode column — integer compares
  against hoisted opcode constants instead of one ``isinstance`` chain
  per record object;
* **no residency lookups** — a ``trace_id -> (tally, handler,
  record)`` residency map, kept from the manager's own effect stream
  by :func:`~repro.fastpath.residency.fold_effects`, replaces
  ``manager.lookup`` (a per-access scan over every cache) with one
  dict probe.  This is only sound for managers whose effect streams
  fully describe residency, declared via
  :attr:`repro.core.manager.CacheManager.fastpath_safe`, and
  :func:`~repro.fastpath.residency.check_residency` verifies the map
  against the caches at the end of every replay;
* **batched hits** — a resident access either touches its record in
  place (plain caches) or calls the cache's bound hit handler (touch +
  promotion check, no ``AccessOutcome`` allocation, no cache scan)
  once per compressed record, never materializing per-entry hits, and
  bumps one per-cache hit counter held in its entry;
* **local stats accumulation** — miss and creation counters live in
  local variables for the whole replay and are flushed into
  :class:`CacheStats` once; ``accesses`` is the log's own total, so
  the stats check compares two independent counts.

Overhead-account charges happen in exactly the object path's order, so
float accumulation — and therefore every experiment table — is
byte-identical between the two paths.  The equivalence suite in
``tests/fastpath`` pins this down for every policy and manager config.

The loop never runs with a sanitizer harness attached: sanitizers
observe per-record events and effect streams, which only the object
path produces, so :meth:`CacheSimulator.run` falls back automatically.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.errors import LogFormatError
from repro.fastpath.compiled import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    CompiledTraceLog,
)
from repro.fastpath.residency import check_residency, fold_effects

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cachesim.simulator import CacheSimulator

#: Process-wide counters for profiling and the perf-smoke CI job.
FASTPATH_TOTALS = {
    "fast_replays": 0,
    "object_replays": 0,
    "records_replayed": 0,
}

#: ``REPRO_FASTPATH=0`` (or ``off``/``no``/``false``) forces every
#: replay onto the object path — the A/B switch the perf benchmarks
#: and ``docs/performance.md`` use to measure the speedup.
_ENABLED = os.environ.get("REPRO_FASTPATH", "1").lower() not in (
    "0",
    "off",
    "no",
    "false",
)


def enable_fastpath() -> None:
    """Re-enable the compiled replay loop (the default)."""
    global _ENABLED
    _ENABLED = True


def disable_fastpath() -> None:
    """Force every replay onto the object path (A/B testing and the
    equivalence suite)."""
    global _ENABLED
    _ENABLED = False


def fastpath_enabled() -> bool:
    """Whether the compiled loop may be selected."""
    return _ENABLED


class object_path:
    """Context manager: run the enclosed replays on the object path."""

    def __enter__(self) -> None:
        self._was = _ENABLED
        disable_fastpath()

    def __exit__(self, *exc) -> None:
        global _ENABLED
        _ENABLED = self._was


class _Tally:
    """One managed cache's hit counter, shared by every residency
    entry of that cache, so a resident hit is one attribute bump."""

    __slots__ = ("name", "cache", "hits")

    def __init__(self, cache) -> None:
        self.name = cache.name
        self.cache = cache
        self.hits = 0


def replay_compiled(sim: CacheSimulator, compiled: CompiledTraceLog) -> None:
    """Replay *compiled* into *sim*'s manager, stats, and ledger.

    The caller (:meth:`CacheSimulator.run`) guarantees no sanitizer is
    attached and ``sim.manager.fastpath_safe`` is true.

    Raises:
        InvariantViolation: ``fastpath-residency`` when the residency
            map drifted from the caches by the end of the replay.
    """
    manager = sim.manager
    account = sim.account
    stats = sim.stats
    insert = manager.insert
    fold = fold_effects
    charge_creation = account.charge_trace_creation if account else None

    # trace_id -> (tally, handler | None, CachedTrace), maintained
    # purely from the effect stream.
    resident: dict[int, tuple] = {}
    # One prototype per managed cache, resolved once.  A *plain* cache
    # (hits are exactly a trace-record touch) has no handler: the loop
    # mutates the entry's CachedTrace in place, no call at all.
    # Anything else carries its bound hit handler.
    plain_names = manager.plain_hit_caches()
    tallies = [_Tally(cache) for cache in manager.caches()]
    protos: dict[str, tuple] = {
        tally.name: (
            resident,
            tally,
            None if tally.name in plain_names else manager.hit_handler(tally.name),
            tally.cache,
        )
        for tally in tallies
    }

    # trace_id -> (size, module_id) of every trace ever created.
    known: dict[int, tuple[int, int]] = {}
    pending_pins: set[int] = set()
    misses = creations = 0

    resident_get = resident.get
    known_get = known.get

    # zip walks the six packed columns in step and hands the loop one
    # tuple per record, which unpacks faster than six subscripts.  Each
    # array iterator boxes an element once, as .tolist() would, but no
    # per-replay list is built, and nothing past OP_END is converted.
    n = len(compiled.op)
    records = zip(
        compiled.op,
        compiled.time,
        compiled.trace_id,
        compiled.size,
        compiled.module,
        compiled.repeat,
    )
    for op, time, trace_id, size, module_id, repeat in records:
        if op == OP_ACCESS:
            entry = resident_get(trace_id)
            if entry is not None:
                # Hot path: a resident access.
                tally, handler, trace = entry
                if handler is None:
                    # Plain hit: mutate the trace record in place.
                    trace.access_count += repeat
                    trace.last_access = time
                else:
                    effects = handler(trace_id, time, repeat)
                    if effects:
                        fold(effects, protos, stats, account)
                tally.hits += repeat
            else:
                info = known_get(trace_id)
                if info is None:
                    raise LogFormatError(
                        f"access to trace {trace_id} before its creation"
                    )
                # Conflict miss: regenerate and re-insert, then the
                # remaining repeats hit the fresh copy.
                size, module_id = info
                misses += 1
                if charge_creation:
                    charge_creation(size)
                fold(insert(trace_id, size, module_id, time), protos, stats, account)
                if trace_id in pending_pins:
                    manager.pin(trace_id)
                remaining = repeat - 1
                if remaining > 0:
                    entry = resident_get(trace_id)
                    if entry is None:
                        # Uncacheable trace: every entry regenerates
                        # from the basic-block cache.
                        misses += remaining
                        if charge_creation:
                            for _ in range(remaining):
                                charge_creation(size)
                    else:
                        tally, handler, trace = entry
                        if handler is None:
                            trace.access_count += remaining
                            trace.last_access = time
                        else:
                            effects = handler(trace_id, time, remaining)
                            if effects:
                                fold(effects, protos, stats, account)
                        tally.hits += remaining
        elif op == OP_CREATE:
            known[trace_id] = (size, module_id)
            creations += 1
            if charge_creation:
                charge_creation(size)
            fold(insert(trace_id, size, module_id, time), protos, stats, account)
        elif op == OP_UNMAP:
            fold(manager.unmap_module(module_id, time), protos, stats, account)
            # The unmapped code can never be re-entered under these ids.
            if pending_pins:
                for dead_id, (_, mod) in known.items():
                    if mod == module_id:
                        pending_pins.discard(dead_id)
        elif op == OP_PIN:
            if trace_id in resident:
                manager.pin(trace_id)
            else:
                pending_pins.add(trace_id)
        elif op == OP_UNPIN:
            pending_pins.discard(trace_id)
            if trace_id in resident:
                manager.unpin(trace_id)
        else:  # OP_END
            break

    check_residency(
        ((resident, protos),), sum(tally.cache.n_traces for tally in tallies)
    )

    # accesses comes from the log itself, so CacheStats.check_invariants
    # compares it against the loop's own hits + misses.
    stats.accesses += compiled.replayed_accesses()
    stats.misses += misses
    for tally in tallies:
        if tally.hits:
            stats.record_hit(tally.name, tally.hits)
    stats.creations += creations

    FASTPATH_TOTALS["fast_replays"] += 1
    FASTPATH_TOTALS["records_replayed"] += n
