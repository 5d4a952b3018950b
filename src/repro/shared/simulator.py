"""Multi-process replay against one cache group.

The :class:`MultiProcessSimulator` is the cross-process analogue of
:class:`repro.cachesim.simulator.CacheSimulator`: it replays N
per-process trace logs, interleaved by a deterministic schedule
(:mod:`repro.sim.interleave`), against one
:class:`~repro.shared.manager.SharedCacheGroup`, and owns the
:class:`~repro.shared.identity.TraceInterner` that gives structurally
identical traces from different processes one global identity.  It is
the record-object oracle of the fleet engine
(:mod:`repro.shared.fleet`): it decompiles each process's packed log
itself, once, before the replay.

Accounting follows the single-process simulator's conventions —
creations are compulsory (not misses), a conflict miss regenerates and
reinserts, ``repeat`` expands to one maybe-miss plus hits — with one
cross-process addition: a (re)generation that finds its content already
resident in a shared cache is a **deduplicated generation**.  It costs
no code bytes (``dedup_bytes`` instead of ``generated_bytes``), which
is exactly the compilation ShareJIT avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachesim.stats import CacheStats
from repro.core.effects import Effect, Evicted, EvictionReason, Promoted
from repro.errors import ConfigError, LogFormatError
from repro.shared.compose import ProcessWorkload
from repro.shared.identity import TraceInterner
from repro.shared.manager import SharedCacheGroup
from repro.sim.interleave import DEFAULT_QUANTUM, interleave_logs
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TracePin,
    TraceUnpin,
)


@dataclass
class ProcessSummary:
    """One process's outcome of a multi-process replay."""

    process: int
    name: str
    stats: CacheStats
    generated_bytes: int = 0
    dedup_generations: int = 0
    dedup_bytes: int = 0


@dataclass
class SharedSimulationResult:
    """Outcome of one multi-process replay."""

    group_name: str
    schedule: str
    seed: int
    quantum: int
    total_capacity: int
    processes: list[ProcessSummary] = field(default_factory=list)
    resident_bytes: int = 0
    duplicated_bytes: int = 0
    unique_content_bytes: int = 0

    @property
    def accesses(self) -> int:
        return sum(p.stats.accesses for p in self.processes)

    @property
    def hits(self) -> int:
        return sum(p.stats.hits for p in self.processes)

    @property
    def misses(self) -> int:
        return sum(p.stats.misses for p in self.processes)

    @property
    def miss_rate(self) -> float:
        """Aggregate conflict-miss rate over all processes."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def generated_bytes(self) -> int:
        """Total bytes of code actually compiled (dedup excluded)."""
        return sum(p.generated_bytes for p in self.processes)

    @property
    def dedup_generations(self) -> int:
        """(Re)generations satisfied by an already-shared copy."""
        return sum(p.dedup_generations for p in self.processes)

    @property
    def dedup_bytes(self) -> int:
        """Compilation bytes avoided through sharing."""
        return sum(p.dedup_bytes for p in self.processes)


@dataclass
class _TraceInfo:
    """Per-process view of a created trace."""

    gid: int
    size: int
    module_id: int


class MultiProcessSimulator:
    """Replays N workloads against one cache group."""

    def __init__(
        self,
        group: SharedCacheGroup,
        workloads: list[ProcessWorkload],
        schedule: str = "round-robin",
        seed: int = 0,
        quantum: int = DEFAULT_QUANTUM,
    ) -> None:
        if len(workloads) != group.n_processes:
            raise ConfigError(
                f"group has {group.n_processes} processes but "
                f"{len(workloads)} workloads were given"
            )
        self.group = group
        self.workloads = workloads
        # The reference interleaver walks record objects.
        self._logs = [w.log.decompile() for w in workloads]
        self.schedule = schedule
        self.seed = seed
        self.quantum = quantum
        self.interner = TraceInterner()
        n = len(workloads)
        self._known: list[dict[int, _TraceInfo]] = [{} for _ in range(n)]
        self._pending_pins: list[set[int]] = [set() for _ in range(n)]
        self._summaries = [
            ProcessSummary(process=i, name=w.name, stats=CacheStats())
            for i, w in enumerate(workloads)
        ]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def run(self) -> SharedSimulationResult:
        """Replay every workload to completion and check invariants."""
        stream = interleave_logs(
            self._logs,
            schedule=self.schedule,
            seed=self.seed,
            quantum=self.quantum,
        )
        for scheduled in stream:
            record = scheduled.record
            process = scheduled.process
            time = scheduled.global_time
            if isinstance(record, TraceCreate):
                self._on_create(process, record, time)
            elif isinstance(record, TraceAccess):
                self._on_access(process, record, time)
            elif isinstance(record, ModuleUnmap):
                self._on_unmap(process, record, time)
            elif isinstance(record, TracePin):
                self._on_pin(process, record)
            elif isinstance(record, TraceUnpin):
                self._on_unpin(process, record)
            elif isinstance(record, EndOfLog):
                pass
            else:  # pragma: no cover - records are a closed set
                raise LogFormatError(f"unhandled record type {type(record).__name__}")
        self.group.check_invariants()
        result = SharedSimulationResult(
            group_name=self.group.name,
            schedule=self.schedule,
            seed=self.seed,
            quantum=self.quantum,
            total_capacity=self.group.total_capacity,
            processes=self._summaries,
            resident_bytes=self.group.resident_bytes(),
            duplicated_bytes=self.group.duplicated_bytes(self.interner.size_of),
            unique_content_bytes=self.interner.unique_bytes,
        )
        for summary in self._summaries:
            summary.stats.check_invariants()
        return result

    # ------------------------------------------------------------------
    # Record handlers
    # ------------------------------------------------------------------

    def _on_create(self, process: int, record: TraceCreate, time: int) -> None:
        workload = self.workloads[process]
        key = workload.keys.get(record.trace_id)
        if key is None:
            raise LogFormatError(
                f"process {process} created trace {record.trace_id} with "
                f"no content key"
            )
        gid, _ = self.interner.intern(key, record.size)
        info = _TraceInfo(gid=gid, size=record.size, module_id=record.module_id)
        self._known[process][record.trace_id] = info
        summary = self._summaries[process]
        summary.stats.creations += 1
        self._generate(process, info, time)
        self._apply_pending_pin(process, record.trace_id, info)

    def _on_access(self, process: int, record: TraceAccess, time: int) -> None:
        info = self._known[process].get(record.trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} accessed unknown trace {record.trace_id}"
            )
        summary = self._summaries[process]
        summary.stats.accesses += record.repeat
        cache = self.group.lookup(process, info.gid)
        if cache is None:
            # Conflict miss: the trace was evicted and must be
            # regenerated (possibly deduplicated against a shared copy)
            # before execution resumes.
            summary.stats.misses += 1
            self._generate(process, info, time)
            self._apply_pending_pin(process, record.trace_id, info)
            remaining = record.repeat - 1
            if remaining:
                if self.group.lookup(process, info.gid) is None:
                    # Uncacheable trace: every entry misses.
                    summary.stats.misses += remaining
                else:
                    outcome = self.group.on_hit(
                        process, info.gid, time, remaining, info.module_id
                    )
                    summary.stats.record_hit(outcome.cache, remaining)
                    self._absorb(process, outcome.effects)
        else:
            outcome = self.group.on_hit(
                process, info.gid, time, record.repeat, info.module_id
            )
            summary.stats.record_hit(outcome.cache, record.repeat)
            self._absorb(process, outcome.effects)

    def _on_unmap(self, process: int, record: ModuleUnmap, time: int) -> None:
        effects = self.group.unmap_module(process, record.module_id, time)
        self._absorb(process, effects)
        dead = {
            trace_id
            for trace_id, info in self._known[process].items()
            if info.module_id == record.module_id
        }
        self._pending_pins[process] -= dead

    def _on_pin(self, process: int, record: TracePin) -> None:
        info = self._known[process].get(record.trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} pinned unknown trace {record.trace_id}"
            )
        if not self.group.pin(process, info.gid):
            self._pending_pins[process].add(record.trace_id)

    def _on_unpin(self, process: int, record: TraceUnpin) -> None:
        self._pending_pins[process].discard(record.trace_id)
        info = self._known[process].get(record.trace_id)
        if info is not None:
            self.group.unpin(process, info.gid)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _generate(self, process: int, info: _TraceInfo, time: int) -> None:
        """(Re)generate *info*'s code, counting dedup against shared
        copies, and absorb the placement effects."""
        summary = self._summaries[process]
        outcome = self.group.insert(
            process, info.gid, info.size, info.module_id, time
        )
        if outcome.deduped:
            summary.dedup_generations += 1
            summary.dedup_bytes += info.size
        else:
            summary.generated_bytes += info.size
        self._absorb(process, outcome.effects)

    def _apply_pending_pin(
        self, process: int, trace_id: int, info: _TraceInfo
    ) -> None:
        if trace_id in self._pending_pins[process]:
            if self.group.pin(process, info.gid):
                self._pending_pins[process].discard(trace_id)

    def _absorb(self, process: int, effects: list[Effect]) -> None:
        """Fold an effect list into the acting process's statistics."""
        stats = self._summaries[process].stats
        for effect in effects:
            if isinstance(effect, Evicted):
                if effect.reason is EvictionReason.UNMAP:
                    stats.unmap_evictions += 1
                elif effect.reason is EvictionReason.FLUSH:
                    stats.flush_evictions += 1
                else:
                    stats.evictions += 1
                stats.evicted_bytes += effect.size
            elif isinstance(effect, Promoted):
                stats.promotions += 1
                stats.promoted_bytes += effect.size
