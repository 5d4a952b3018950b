"""Replaying a trace log against a cache manager.

This mirrors the paper's methodology exactly: a verbose log is
recorded once (DynamoRIO's in the paper, the calibrated synthesizer's
here), and every cache configuration is evaluated by replaying that
same log.

Replay semantics per record type:

* ``TraceCreate`` — the trace is generated for the first time and
  inserted (priced as a creation, not counted as a miss: every
  configuration pays it identically).
* ``TraceAccess`` — if resident anywhere: a hit.  Otherwise a conflict
  miss: the optimizer regenerates the trace and re-inserts it.  A
  ``repeat`` of *n* expands to one potentially-missing entry followed
  by *n - 1* guaranteed hits.
* ``ModuleUnmap`` — all traces of the module are deleted immediately
  from every cache.
* ``TracePin``/``TraceUnpin`` — toggle undeletability if resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cachesim.stats import CacheStats, SimulationResult
from repro.core.effects import Effect, Evicted, EvictionReason, Promoted
from repro.errors import LogFormatError
from repro.fastpath import (
    FASTPATH_TOTALS,
    CompiledTraceLog,
    ensure_compiled,
    fastpath_enabled,
    replay_compiled,
)
from repro.overhead.accounting import OverheadAccount
from repro.overhead.model import CostModel
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.sanitizer import SanitizerHarness
    from repro.core.manager import CacheManager


@dataclass(frozen=True)
class _TraceInfo:
    """What the simulator must remember about a trace to regenerate it."""

    size: int
    module_id: int


class CacheSimulator:
    """Stateful replay engine; one instance per (log, manager) pair."""

    def __init__(
        self,
        manager: CacheManager,
        cost_model: CostModel | None = None,
        sanitizer: SanitizerHarness | None = None,
    ) -> None:
        self.manager = manager
        self.stats = CacheStats()
        self.account = OverheadAccount(model=cost_model) if cost_model else None
        # Imported lazily: repro.analysis.sanitizer reaches back into
        # repro.core, which would close an import cycle at module load.
        from repro.analysis.sanitizer import default_sanitizer_for

        # An explicit harness wins; otherwise the process-wide
        # --sanitize switch decides (None when sanitizing is off).
        self.sanitizer = sanitizer or default_sanitizer_for(manager)
        self._known: dict[int, _TraceInfo] = {}
        # Pins requested while the trace was non-resident must apply as
        # soon as it becomes resident again.
        self._pending_pins: set[int] = set()

    # ------------------------------------------------------------------
    # Record handlers
    # ------------------------------------------------------------------

    def on_create(self, record: TraceCreate) -> None:
        """First-time trace generation and insertion."""
        self._known[record.trace_id] = _TraceInfo(
            size=record.size, module_id=record.module_id
        )
        self.stats.creations += 1
        if self.account:
            self.account.charge_trace_creation(record.size)
        effects = self.manager.insert(
            record.trace_id, record.size, record.module_id, record.time
        )
        self._absorb(effects)

    def on_access(self, record: TraceAccess) -> None:
        """One or more consecutive entries to a trace."""
        info = self._known.get(record.trace_id)
        if info is None:
            raise LogFormatError(
                f"access to trace {record.trace_id} before its creation"
            )
        self.stats.accesses += record.repeat
        resident_in = self.manager.lookup(record.trace_id)
        if resident_in is None:
            # Conflict miss: regenerate and re-insert, then the
            # remaining repeats hit the fresh copy.
            self.stats.misses += 1
            if self.account:
                self.account.charge_conflict_miss(info.size)
            effects = self.manager.insert(
                record.trace_id, info.size, info.module_id, record.time
            )
            self._absorb(effects)
            self._apply_pending_pin(record.trace_id)
            remaining = record.repeat - 1
            if remaining > 0:
                if self.manager.lookup(record.trace_id) is None:
                    # Uncacheable trace (no cache can hold it): every
                    # entry regenerates from the basic-block cache.
                    self.stats.misses += remaining
                    if self.account:
                        for _ in range(remaining):
                            self.account.charge_conflict_miss(info.size)
                else:
                    outcome = self.manager.on_hit(
                        record.trace_id, record.time, remaining
                    )
                    self.stats.record_hit(outcome.cache, remaining)
                    self._absorb(outcome.effects)
        else:
            outcome = self.manager.on_hit(record.trace_id, record.time, record.repeat)
            self.stats.record_hit(outcome.cache, record.repeat)
            self._absorb(outcome.effects)

    def on_unmap(self, record: ModuleUnmap) -> None:
        """Program-forced deletion of a module's traces (immediate)."""
        effects = self.manager.unmap_module(record.module_id, record.time)
        self._absorb(effects)
        # The unmapped code can never be re-entered under these ids.
        dead = [
            trace_id
            for trace_id, info in self._known.items()
            if info.module_id == record.module_id
        ]
        for trace_id in dead:
            self._pending_pins.discard(trace_id)

    def on_pin(self, record: TracePin) -> None:
        """Mark a trace undeletable; remembered if not resident."""
        if not self.manager.pin(record.trace_id):
            self._pending_pins.add(record.trace_id)

    def on_unpin(self, record: TraceUnpin) -> None:
        """Make a trace deletable again."""
        self._pending_pins.discard(record.trace_id)
        self.manager.unpin(record.trace_id)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, log: TraceLog | CompiledTraceLog) -> SimulationResult:
        """Replay the whole log and return the result bundle.

        Accepts either representation.  When the manager declares
        :attr:`~repro.core.manager.CacheManager.fastpath_safe`, no
        sanitizer is attached, and the fast path is enabled, the log is
        compiled (a one-time pass, free if already compiled) and driven
        through the batched loop; the result is byte-identical to the
        object path's.  With a sanitizer attached, the object path runs
        unconditionally — sanitizers observe per-record events.
        """
        if (
            self.sanitizer is None
            and self.manager.fastpath_safe
            and fastpath_enabled()
        ):
            replay_compiled(self, ensure_compiled(log))
            return self._finish(log)
        FASTPATH_TOTALS["object_replays"] += 1
        records = (
            log.iter_records() if isinstance(log, CompiledTraceLog) else log.records
        )
        for record in records:
            if isinstance(record, TraceAccess):
                self.on_access(record)
            elif isinstance(record, TraceCreate):
                self.on_create(record)
            elif isinstance(record, ModuleUnmap):
                self.on_unmap(record)
            elif isinstance(record, TracePin):
                self.on_pin(record)
            elif isinstance(record, TraceUnpin):
                self.on_unpin(record)
            elif isinstance(record, EndOfLog):
                break
            if self.sanitizer:
                self.sanitizer.observe_event(record)
        if self.sanitizer:
            self.sanitizer.final_check()
        return self._finish(log)

    def _finish(self, log: TraceLog | CompiledTraceLog) -> SimulationResult:
        """Common result assembly for both replay paths."""
        self.stats.check_invariants()
        return SimulationResult(
            benchmark=log.benchmark,
            manager_name=self.manager.name,
            stats=self.stats,
            overhead_instructions=self.account.total if self.account else None,
            final_fragmentation=self.manager.fragmentation(),
            final_occupancy=self.manager.occupancy(),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _absorb(self, effects: list[Effect]) -> None:
        """Fold an effect list into the statistics and the ledger."""
        for effect in effects:
            if isinstance(effect, Evicted):
                if effect.reason is EvictionReason.UNMAP:
                    self.stats.unmap_evictions += 1
                elif effect.reason is EvictionReason.FLUSH:
                    self.stats.flush_evictions += 1
                else:
                    self.stats.evictions += 1
                self.stats.evicted_bytes += effect.size
            elif isinstance(effect, Promoted):
                self.stats.promotions += 1
                self.stats.promoted_bytes += effect.size
        if self.account:
            self.account.charge_effects(effects)
        if self.sanitizer:
            self.sanitizer.observe_effects(effects)

    def _apply_pending_pin(self, trace_id: int) -> None:
        if trace_id in self._pending_pins:
            self.manager.pin(trace_id)


def simulate_log(
    log: TraceLog | CompiledTraceLog,
    manager: CacheManager,
    cost_model: CostModel | None = None,
    sanitizer: SanitizerHarness | None = None,
) -> SimulationResult:
    """Convenience wrapper: replay *log* against *manager*."""
    return CacheSimulator(manager, cost_model=cost_model, sanitizer=sanitizer).run(log)
