"""Fleet-scale multi-process replay (fleet internals).

:class:`FleetSimulator` is the scaling path of
:class:`repro.shared.simulator.MultiProcessSimulator`: the same record
semantics, the same accounting, the same
:class:`~repro.shared.manager.SharedCacheGroup` and
:class:`~repro.shared.identity.TraceInterner` — but driven by
scheduler segments over shared record-major logs instead of per-record
objects over per-process logs.

Equivalence contract: replaying the *same* workloads under the *same*
(schedule, seed, quantum) with no churn produces a
:class:`~repro.shared.simulator.SharedSimulationResult` identical to
the reference simulator's, field for field — the regression tests pin
the existing 2/4/8-process experiment cells on it.  Two state choices
make the fleet version scale where the reference cannot:

* the created-trace table (trace id → gid/size/module) is kept per
  **distinct workload**, not per process: content-identical processes
  produce identical tables, so sharing one costs nothing on valid
  logs (a log always creates before it accesses) while cutting that
  state from O(P·traces) to O(D·traces).  Interning still happens per
  create *per process*, so gid identity and duplicate accounting stay
  exactly the reference's.
* global virtual time needs no per-record bookkeeping: logs are
  time-ordered (checked once per distinct workload), so within one
  segment a record's global time is the segment's base plus the
  record's own time — the reference's per-record deltas, summed.

Hits, nearly every record, are served the way the batched replay loop
(:mod:`repro.fastpath.replay`) serves them, through the same residency
core (:mod:`repro.fastpath.residency`): *residency maps* (gid →
``(tally slot, handler, trace record)``) kept only from the
``Inserted``/``Promoted``/``Evicted`` effects group calls return (the
group effect contract on
:class:`~repro.shared.manager.SharedCacheGroup`).  One map covers the
shared caches; each process that has process-local caches gets its
own, and a process without local caches probes only the shared map.  A
resident access costs one map probe (two for a shared hit of a
process with local caches), either an in-place trace-record update
(plain caches) or one handler call from
:meth:`~repro.shared.manager.SharedCacheGroup.hit_entries`, and one
bump of the process's tally for the serving cache; the tallies become
``hits_by_cache`` once, at the end.  The reference's ``lookup`` +
``on_hit`` pair stays the path the equivalence suite checks them
against.  At the end of a replay the maps are checked against the
group's resident copies, and each process's hits plus misses against
the accesses its replayed records hold.

Churned processes add one behavior the reference never needed: a
process killed early (its stream ``limit``) releases its pins and
unmaps every module it created into, so the shared cache's
reference counts drain exactly as OS teardown would drive them.

This module is fleet-internal (``fleet-api`` lint rule): other layers
import the package root.
"""

from __future__ import annotations

from typing import Sequence

from repro.cachesim.stats import CacheStats
from repro.core.effects import Effect
from repro.errors import ConfigError, LogFormatError
from repro.fastpath import OP_ACCESS, OP_CREATE, OP_END, OP_PIN, OP_UNMAP, OP_UNPIN
from repro.fastpath import check_residency, fold_effects
from repro.shared.fleet.scheduler import ProcessStream, stream_segments
from repro.shared.fleet.workloads import RECORD_WIDTH, FleetWorkloads
from repro.shared.identity import TraceInterner
from repro.shared.manager import SharedCacheGroup
from repro.shared.simulator import ProcessSummary, SharedSimulationResult
from repro.sim.interleave import DEFAULT_QUANTUM


class FleetSimulator:
    """Replays a fleet of processes against one cache group."""

    def __init__(
        self,
        group: SharedCacheGroup,
        workloads: FleetWorkloads,
        schedule: str = "round-robin",
        seed: int = 0,
        quantum: int = DEFAULT_QUANTUM,
        streams: Sequence[ProcessStream] | None = None,
    ) -> None:
        """
        Args:
            group: The shared cache group (one slot per process).
            workloads: Distinct workloads plus per-process assignment.
            schedule: Interleaving schedule (see reference simulator).
            seed: Schedule substream seed.
            quantum: Records per scheduling turn.
            streams: Optional churned stream shapes (defaults to every
                process replaying its full log from turn 0).
        """
        n = workloads.n_processes
        if n != group.n_processes:
            raise ConfigError(
                f"group has {group.n_processes} processes but the fleet "
                f"has {n}"
            )
        if streams is None:
            streams = [
                ProcessStream(length=length) for length in workloads.lengths()
            ]
        elif len(streams) != n:
            raise ConfigError(
                f"{len(streams)} streams for {n} fleet processes"
            )
        else:
            for process, stream in enumerate(streams):
                expected = workloads.workload_of(process).n_records
                if stream.length != expected:
                    raise ConfigError(
                        f"process {process} stream length {stream.length} "
                        f"!= its workload's {expected} records"
                    )
        self.group = group
        self.workloads = workloads
        self.schedule = schedule
        self.seed = seed
        self.quantum = quantum
        self.streams = list(streams)
        self.interner = TraceInterner()
        # Created-trace tables per *distinct* workload: trace id ->
        # (gid, size, module_id).
        self._known: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in workloads.distinct
        ]
        # Pin claims, allocated lazily per process: pins are rare, and
        # 2 P empty sets would dominate the simulator's own footprint
        # at fleet scale.
        self._pending_pins: dict[int, set[int]] = {}
        self._held_pins: dict[int, set[int]] = {}
        self._summaries = [
            ProcessSummary(
                process=process,
                name=workloads.workload_of(process).name,
                stats=CacheStats(),
            )
            for process in range(n)
        ]
        self._exited = 0
        # Residency maps, gid -> (tally slot, handler | None,
        # CachedTrace), kept purely from the effect stream: one for the
        # shared caches, and one per process that has local caches
        # (bound at the process's first segment; None otherwise).
        self._shared: dict[int, tuple] = {}
        self._local: list[dict | None] = [None] * n
        # Fold prototypes per process: cache name -> (residency map,
        # tally slot, handler | None, cache).
        self._protos: list[dict | None] = [None] * n
        self._common_protos: dict | None = None
        # Cache name -> tally slot, numbered across the group; each
        # process counts its hits per slot (None until bound).
        self._slots: dict[str, int] = {}
        self._tallies: list[list[int] | None] = [None] * n

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def run(self) -> SharedSimulationResult:
        """Replay every stream to completion and check invariants."""
        workloads = self.workloads
        n = workloads.n_processes
        last_time = [0] * n
        consumed = [0] * n
        global_time = 0
        shared_get = self._shared.get
        fold = fold_effects
        width = RECORD_WIDTH
        for segment in stream_segments(
            self.streams,
            schedule=self.schedule,
            seed=self.seed,
            quantum=self.quantum,
        ):
            process = segment.process
            start, stop = segment.start, segment.stop
            distinct_index = workloads.assignment[process]
            workload = workloads.distinct[distinct_index]
            known = self._known[distinct_index]
            known_get = known.get
            tallies = self._tallies[process]
            if tallies is None:
                tallies = self._bind(process)
            local = self._local[process]
            # Without local caches the first probe is the shared one.
            local_get = shared_get if local is None else local.get
            protos = self._protos[process]
            stats = self._summaries[process].stats
            # A record's global time is base + its own time (the logs
            # are time-ordered).
            base = global_time - last_time[process]
            rows = iter(workload.records[width * start : width * stop])
            for code, now, trace_id, size, module_id, repeat in zip(
                rows, rows, rows, rows, rows, rows
            ):
                if code == OP_ACCESS:
                    info = known_get(trace_id)
                    if info is not None:
                        gid = info[0]
                        entry = local_get(gid) or shared_get(gid)
                        if entry is not None:
                            # Hot path: a resident access.
                            slot, handler, trace = entry
                            if handler is None:
                                # Plain hit: mutate the record in place.
                                trace.access_count += repeat
                                trace.last_access = base + now
                            else:
                                effects = handler(
                                    process, gid, base + now, repeat, info[2]
                                )
                                if effects:
                                    fold(effects, protos, stats)
                            tallies[slot] += repeat
                            continue
                    self._on_miss(
                        process, known, trace_id, repeat, base + now
                    )
                elif code == OP_CREATE:
                    self._on_create(
                        process,
                        workload,
                        known,
                        trace_id,
                        size,
                        module_id,
                        base + now,
                    )
                elif code == OP_UNMAP:
                    self._on_unmap(
                        process, workload, known, module_id, base + now
                    )
                elif code == OP_PIN:
                    self._on_pin(process, known, trace_id)
                elif code == OP_UNPIN:
                    self._on_unpin(process, known, trace_id)
                elif code != OP_END:  # pragma: no cover - closed opcode set
                    raise LogFormatError(f"unhandled opcode {code}")
            if stop > start:
                last_time[process] = workload.records[width * stop - width + 1]
                global_time = base + last_time[process]
            consumed[process] += stop - start
            stream = self.streams[process]
            if (
                consumed[process] == stream.effective_length
                and stream.effective_length < workload.n_records
            ):
                self._on_exit(process, workload, known, global_time)
        self.group.check_invariants()
        self._check_residency()
        names = list(self._slots)
        for process, summary in enumerate(self._summaries):
            stats = summary.stats
            # accesses comes from the replayed records themselves, so
            # the stats check compares it against the loop's own hits
            # plus misses.
            stats.accesses += workloads.workload_of(process).accesses_in(
                consumed[process]
            )
            for name, hits in zip(names, self._tallies[process] or ()):
                if hits:
                    stats.record_hit(name, hits)
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

    @property
    def exited_early(self) -> int:
        """Processes the churn plan killed before their log drained."""
        return self._exited

    # ------------------------------------------------------------------
    # Record handlers (reference-simulator semantics over packed rows)
    # ------------------------------------------------------------------

    def _on_create(
        self,
        process: int,
        workload,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
        size: int,
        module_id: int,
        time: int,
    ) -> None:
        key = workload.keys.get(trace_id)
        if key is None:
            raise LogFormatError(
                f"process {process} created trace {trace_id} with no "
                f"content key"
            )
        gid, _ = self.interner.intern(key, size)
        info = (gid, size, module_id)
        known[trace_id] = info
        self._summaries[process].stats.creations += 1
        self._generate(process, info, time)
        self._apply_pending_pin(process, trace_id, info)

    def _on_miss(
        self,
        process: int,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
        repeat: int,
        time: int,
    ) -> None:
        """An access whose trace is not resident for *process* (the
        replay loop serves resident ones itself)."""
        info = known.get(trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} accessed unknown trace {trace_id}"
            )
        gid, _size, module_id = info
        stats = self._summaries[process].stats
        # Conflict miss: regenerate (possibly deduplicated against a
        # shared copy) before execution resumes.
        stats.misses += 1
        self._generate(process, info, time)
        self._apply_pending_pin(process, trace_id, info)
        remaining = repeat - 1
        if remaining:
            local = self._local[process]
            entry = None if local is None else local.get(gid)
            if entry is None:
                entry = self._shared.get(gid)
            if entry is None:
                # Uncacheable trace: every entry misses.
                stats.misses += remaining
                return
            slot, handler, trace = entry
            if handler is None:
                trace.access_count += remaining
                trace.last_access = time
            else:
                effects = handler(process, gid, time, remaining, module_id)
                if effects:
                    self._absorb(process, effects)
            self._tallies[process][slot] += remaining

    def _on_unmap(
        self,
        process: int,
        workload,
        known: dict[int, tuple[int, int, int]],
        module_id: int,
        time: int,
    ) -> None:
        effects = self.group.unmap_module(process, module_id, time)
        self._absorb(process, effects)
        dead = workload.traces_by_module.get(module_id)
        if dead:
            pending = self._pending_pins.get(process)
            if pending:
                pending -= dead
            held = self._held_pins.get(process)
            if held:
                held -= {
                    known[trace_id][0] for trace_id in dead if trace_id in known
                }

    def _on_pin(
        self,
        process: int,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
    ) -> None:
        info = known.get(trace_id)
        if info is None:
            raise LogFormatError(
                f"process {process} pinned unknown trace {trace_id}"
            )
        if self.group.pin(process, info[0]):
            self._held_pins.setdefault(process, set()).add(info[0])
        else:
            self._pending_pins.setdefault(process, set()).add(trace_id)

    def _on_unpin(
        self,
        process: int,
        known: dict[int, tuple[int, int, int]],
        trace_id: int,
    ) -> None:
        pending = self._pending_pins.get(process)
        if pending:
            pending.discard(trace_id)
        info = known.get(trace_id)
        if info is not None:
            self.group.unpin(process, info[0])
            held = self._held_pins.get(process)
            if held:
                held.discard(info[0])

    def _on_exit(
        self,
        process: int,
        workload,
        known: dict[int, tuple[int, int, int]],
        time: int,
    ) -> None:
        """OS teardown of a churn-killed process: release every pin
        claim, then unmap every module the process created into, so
        shared reference counts drain and local copies evict."""
        self._exited += 1
        for gid in sorted(self._held_pins.pop(process, ())):
            self.group.unpin(process, gid)
        self._pending_pins.pop(process, None)
        for module_id in workload.modules:
            effects = self.group.unmap_module(process, module_id, time)
            self._absorb(process, effects)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _generate(
        self, process: int, info: tuple[int, int, int], time: int
    ) -> None:
        """(Re)generate *info*'s code, counting dedup against shared
        copies, and absorb the placement effects."""
        gid, size, module_id = info
        summary = self._summaries[process]
        outcome = self.group.insert(process, gid, size, module_id, time)
        if outcome.deduped:
            summary.dedup_generations += 1
            summary.dedup_bytes += size
        else:
            summary.generated_bytes += size
        self._absorb(process, outcome.effects)

    def _apply_pending_pin(
        self, process: int, trace_id: int, info: tuple[int, int, int]
    ) -> None:
        pending = self._pending_pins.get(process)
        if pending and trace_id in pending:
            if self.group.pin(process, info[0]):
                pending.discard(trace_id)
                self._held_pins.setdefault(process, set()).add(info[0])

    def _bind(self, process: int) -> list[int]:
        """Resolve *process*'s hit entries into fold prototypes, give
        it a residency map if it has local caches, and a tally per
        cache slot; returns the tallies.
        """
        local: dict = {}
        slots = self._slots
        protos = {
            name: (
                self._shared if shared else local,
                slots.setdefault(name, len(slots)),
                handler,
                cache,
            )
            for name, shared, handler, cache in self.group.hit_entries(
                process
            ).values()
        }
        if any(target is local for target, _, _, _ in protos.values()):
            self._local[process] = local
        else:
            # Only shared caches: the prototypes do not depend on the
            # process (shared handlers take it as an argument), so
            # every process folds through one table.
            if self._common_protos is None:
                self._common_protos = protos
            protos = self._common_protos
        self._protos[process] = protos
        tallies = self._tallies[process] = [0] * len(slots)
        return tallies

    def _absorb(self, process: int, effects: Sequence[Effect]) -> None:
        """Fold an effect list into the residency maps and the acting
        process's statistics."""
        fold_effects(
            effects, self._protos[process], self._summaries[process].stats
        )

    def _check_residency(self) -> None:
        """The residency maps must hold exactly the group's resident
        copies (:func:`~repro.fastpath.check_residency`).

        Raises:
            InvariantViolation: on any drift between maps and caches.
        """
        bound = [protos for protos in self._protos if protos is not None]
        views = [
            (local, protos)
            for local, protos in zip(self._local, self._protos)
            if local is not None
        ]
        if bound:
            # Every process's prototypes cover the shared caches.
            views.append((self._shared, bound[0]))
        check_residency(views, sum(self.group.resident_copies().values()))
