"""Cache groups: N processes' hierarchies under one sharing policy.

A :class:`SharedCacheGroup` is the multi-process analogue of
:class:`~repro.core.manager.CacheManager`: every operation carries the
acting process index, trace identity is the interner's *gid* (content
address), and insertions report whether the generation work was
avoided because an identical trace was already shared
(:class:`InsertOutcome`).

Three concrete groups implement the :data:`~repro.shared.policy.SharingPolicy`
points; build them through :func:`make_group`:

* :class:`PrivateCacheGroup` — one full generational hierarchy per
  process (the paper's world, replicated N times; the baseline the
  shared experiments compare against).
* :class:`SharedPersistentGroup` — per-process nursery/probation in
  front of one :class:`~repro.shared.cache.SharedPersistentCache`;
  probation graduates *attach* instead of inserting when their content
  is already shared.  Each process runs the paper's cascade
  (:class:`~repro.core.generational.GenerationalCacheManager`) over its
  view of the shared cache.
* :class:`SharedAllGroup` — a single hierarchy serves every process,
  with group-level reference counting so an unmap by one process only
  deletes traces no other process still maps.

All direct mutation of the shared cache lives here (and in
:mod:`repro.shared.cache` itself) — the ``shared-cache-api`` cachelint
rule keeps other layers out.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.config import GenerationalConfig
from repro.core.effects import AccessOutcome, Effect, Evicted, EvictionReason
from repro.core.generational import NURSERY, GenerationalCacheManager
from repro.core.manager import make_cache
from repro.errors import ConfigError, InvariantViolation
from repro.policies.base import CachedTrace, CodeCache
from repro.shared.cache import SHARED_PERSISTENT, Sharers, SharedPersistentCache
from repro.shared.policy import SharingConfig, SharingPolicy, TemperatureTracker


@dataclass
class InsertOutcome:
    """Result of asking the group to insert a (re)generated trace.

    Attributes:
        effects: Physical effects (insertions, cascaded evictions and
            promotions).  Empty when the insert deduplicated.
        deduped: True when an identical trace was already resident in
            shared memory — the process attached to the existing copy
            and no code was generated.
    """

    effects: list[Effect] = field(default_factory=list)
    deduped: bool = False


#: How one cache of a group serves hits for one process, as
#: :meth:`SharedCacheGroup.hit_entries` gives it: ``(name, is_shared,
#: handler, cache)``.  ``handler`` is None for a *plain* cache, whose
#: hits are exactly a trace-record touch (the replay engine updates the
#: record in place); otherwise ``handler(process, gid, time, count,
#: module_id)`` is :meth:`SharedCacheGroup.on_hit` for a trace resident
#: in that cache, minus the residency scan, and returns the effects.
HitHandler = Callable[[int, int, int, int, int], Sequence[Effect]]
HitEntry = tuple[str, bool, HitHandler | None, CodeCache]


def _manager_entries(
    manager: GenerationalCacheManager,
    caches: Iterable[CodeCache],
    tracker: TemperatureTracker | None = None,
    sharers: Sharers | None = None,
) -> dict[str, HitEntry]:
    """*manager*'s *caches* as hit entries, resolved the way the batched
    loop resolves them (``plain_hit_caches`` and ``hit_handler``).  The
    caches are shared when *sharers* keeps their copies.  With a
    *tracker* or *sharers* every hit does more than touch the record,
    so no cache is plain."""
    plain = manager.plain_hit_caches()
    shared = sharers is not None
    entries: dict[str, HitEntry] = {}
    for cache in caches:
        handler = None if cache.name in plain else manager.hit_handler(cache.name)
        if handler is not None or tracker is not None or shared:
            attach = None if sharers is None else sharers.attach
            handler = _hit_handler(cache, handler, tracker, sharers, attach)
        entries[cache.name] = (cache.name, shared, handler, cache)
    return entries


def _hit_handler(
    cache: CodeCache,
    handler: Callable[[int, int, int], Sequence[Effect]] | None,
    tracker: TemperatureTracker | None = None,
    sharers: Sharers | None = None,
    attach: Callable[[int, int, int], object] | None = None,
) -> HitHandler:
    """*cache*'s :data:`HitHandler`, as one call: observe *tracker*'s
    temperature (if given); apply the hits, touching the record in
    place when *handler* is None, otherwise through the manager's
    ``(trace_id, time, count)`` *handler*; and for a shared cache,
    *attach* the process when its bit is not set in *sharers* yet, then
    forget every trace the hits evicted.  The closure binds no group,
    so a group is freed by reference counting alone."""
    if handler is None and not cache.plain_touch:
        handler = cache.record_hits
    traces = cache.trace_table()
    state = None if tracker is None else tracker.state_table()
    half_life = None if tracker is None else tracker.half_life
    holders = None if sharers is None else sharers.holders
    forget = None if sharers is None else sharers.forget

    def hit(process, gid, time, count, module_id):
        if state is not None:
            # TemperatureTracker.observe, with its float expressions.
            seen = state.get(gid)
            if seen is None:
                value = 0.0
            else:
                value, last = seen
                if time > last:
                    value = value * 0.5 ** ((time - last) / half_life)
            value += count
            state[gid] = (value, time)
        if handler is None:
            trace = traces[gid]
            trace.access_count += count
            trace.last_access = time
            effects = ()
        else:
            effects = handler(gid, time, count)
        if holders is not None:
            if not holders[gid].get(module_id, 0) >> process & 1:
                attach(gid, process, module_id)
            if effects:
                _forget_evicted(forget, effects)
        return effects

    return hit


def _forget_evicted(
    forget: Callable[[int], None], effects: Iterable[Effect]
) -> None:
    """Drop the sharers and claims of every copy *effects* evicted."""
    for effect in effects:
        if isinstance(effect, Evicted):
            forget(effect.trace_id)


class SharedCacheGroup(abc.ABC):
    """N per-process cache views over one sharing policy.

    Effect contract: every residency change a group makes appears, as
    an :class:`~repro.core.effects.Inserted`,
    :class:`~repro.core.effects.Evicted` or
    :class:`~repro.core.effects.Promoted` effect, in the effects
    returned to the call that made it (``insert``, ``unmap_module``,
    ``on_hit`` or a :meth:`hit_entries` handler); ``pin`` and ``unpin``
    change none.  A ``Promoted`` effect moves the trace's record: the
    destination cache admits the record the source cache released.
    The one exception is a graduation onto a copy another process
    already shared, where the local record is dropped and the process
    attaches to the shared copy.  This is the group analogue of
    :attr:`repro.core.manager.CacheManager.fastpath_safe`: the fleet
    engine keeps its residency maps from those effects alone, through
    :func:`repro.fastpath.fold_effects`.
    """

    #: Human-readable description for reports.
    name: str = "abstract-group"

    def __init__(
        self,
        capacities: Sequence[int],
        config: GenerationalConfig,
        sharing: SharingConfig,
    ) -> None:
        if not capacities:
            raise ConfigError("a cache group needs at least one process")
        if any(cap < 3 for cap in capacities):
            raise ConfigError(f"per-process capacities too small: {capacities}")
        self.capacities = tuple(capacities)
        self.config = config
        self.sharing = sharing

    @property
    def n_processes(self) -> int:
        return len(self.capacities)

    @property
    def total_capacity(self) -> int:
        """Combined capacity across all caches in the group."""
        return sum(cache.capacity for cache in self._iter_caches())

    # -- abstract per-process operations --------------------------------

    @abc.abstractmethod
    def lookup(self, process: int, gid: int) -> str | None:
        """Name of the cache serving *gid* for *process*, or None."""

    @abc.abstractmethod
    def on_hit(
        self, process: int, gid: int, time: int, count: int, module_id: int
    ) -> AccessOutcome:
        """Notify the group of *count* hits by *process* at *time*."""

    @abc.abstractmethod
    def hit_entries(self, process: int) -> dict[str, HitEntry]:
        """How *process*'s hits are served, per cache it can hit in:
        ``{cache name: (name, is_shared, handler, cache)}`` (see
        :data:`HitEntry`), resolved once per process.

        A shared cache's entry is the same for every process (its
        handler takes the process as an argument).  ``lookup`` +
        ``on_hit`` stay the reference simulator's path, which the tests
        compare these entries against.
        """

    @abc.abstractmethod
    def insert(
        self, process: int, gid: int, size: int, module_id: int, time: int
    ) -> InsertOutcome:
        """Insert a trace *process* just (re)generated — or attach to
        an identical shared copy without generating anything."""

    @abc.abstractmethod
    def unmap_module(
        self, process: int, module_id: int, time: int
    ) -> list[Effect]:
        """*process* unmapped *module_id*: drop its claims; evict only
        copies no process still maps."""

    @abc.abstractmethod
    def pin(self, process: int, gid: int) -> bool:
        """Pin *gid* on behalf of *process*; True when found."""

    @abc.abstractmethod
    def unpin(self, process: int, gid: int) -> bool:
        """Drop *process*'s pin claim on *gid*; True when found."""

    @abc.abstractmethod
    def check_invariants(self) -> None:
        """Verify every cache and the cross-process bookkeeping."""

    @abc.abstractmethod
    def _iter_caches(self) -> Iterable[CodeCache]:
        """Every physical cache arena in the group."""

    # -- group-wide accounting ------------------------------------------

    def resident_bytes(self) -> int:
        """Physical bytes resident across the whole group."""
        return sum(cache.used_bytes for cache in self._iter_caches())

    def resident_copies(self) -> dict[int, int]:
        """Physical copy count per resident gid (insertion order)."""
        counts: dict[int, int] = {}
        for cache in self._iter_caches():
            for gid in cache.arena.trace_ids():
                counts[gid] = counts.get(gid, 0) + 1
        return counts

    def duplicated_bytes(self, size_of: Callable[[int], int]) -> int:
        """Bytes spent on redundant copies: for each content resident
        more than once, every copy beyond the first."""
        return sum(
            (copies - 1) * size_of(gid)
            for gid, copies in self.resident_copies().items()
            if copies > 1
        )


def make_group(
    capacities: Sequence[int],
    config: GenerationalConfig,
    sharing: SharingConfig,
) -> SharedCacheGroup:
    """Build the cache group *sharing* describes.

    Raises:
        ConfigError: for inconsistent policy/knob combinations.
    """
    if sharing.temperature and sharing.policy is not SharingPolicy.SHARED_PERSISTENT:
        raise ConfigError(
            "temperature promotion requires the shared-persistent policy "
            f"(got {sharing.policy.value!r})"
        )
    if sharing.policy is SharingPolicy.PRIVATE:
        return PrivateCacheGroup(capacities, config, sharing)
    if sharing.policy is SharingPolicy.SHARED_ALL:
        return SharedAllGroup(capacities, config, sharing)
    return SharedPersistentGroup(capacities, config, sharing)


# ----------------------------------------------------------------------
# private: the replicated-paper baseline
# ----------------------------------------------------------------------


class _PerProcessGroup(SharedCacheGroup):
    """A group that runs one generational manager per process; the
    process's manager serves its lookups, inserts, unmaps and pins."""

    _managers: list[GenerationalCacheManager]

    def lookup(self, process: int, gid: int) -> str | None:
        return self._managers[process].lookup(gid)

    def insert(
        self, process: int, gid: int, size: int, module_id: int, time: int
    ) -> InsertOutcome:
        effects = self._managers[process].insert(gid, size, module_id, time)
        return InsertOutcome(effects=effects, deduped=False)

    def unmap_module(
        self, process: int, module_id: int, time: int
    ) -> list[Effect]:
        return self._managers[process].unmap_module(module_id, time)

    def pin(self, process: int, gid: int) -> bool:
        return self._managers[process].pin(gid)

    def unpin(self, process: int, gid: int) -> bool:
        return self._managers[process].unpin(gid)


class PrivateCacheGroup(_PerProcessGroup):
    """Every process owns a full generational hierarchy; no sharing."""

    def __init__(
        self,
        capacities: Sequence[int],
        config: GenerationalConfig,
        sharing: SharingConfig,
    ) -> None:
        super().__init__(capacities, config, sharing)
        self._managers = [
            GenerationalCacheManager(cap, config) for cap in self.capacities
        ]
        self.name = f"group[private x{self.n_processes}]"

    def on_hit(
        self, process: int, gid: int, time: int, count: int, module_id: int
    ) -> AccessOutcome:
        return self._managers[process].on_hit(gid, time, count)

    def hit_entries(self, process: int) -> dict[str, HitEntry]:
        manager = self._managers[process]
        return _manager_entries(manager, manager.caches())

    def check_invariants(self) -> None:
        for manager in self._managers:
            manager.check_invariants()

    def _iter_caches(self) -> Iterable[CodeCache]:
        for manager in self._managers:
            yield from manager.caches()


# ----------------------------------------------------------------------
# shared-persistent: private churn, shared long-lived code
# ----------------------------------------------------------------------


class _SharedTier:
    """One process's view of the group's :class:`SharedPersistentCache`,
    in the place of its manager's persistent cache.

    :meth:`admit` attaches the process to an identical copy another
    process already shared, or places the first copy.
    :meth:`remove_module`, :meth:`pin` and :meth:`unpin` keep the shared
    cache's :class:`~repro.shared.cache.Sharers`, and every copy that
    leaves the shared cache drops its temperature.  The view holds the
    shared cache and the tracker, never the group itself, so a group is
    freed by reference counting alone.
    """

    #: Every hit on a shared copy attaches the process.
    plain_touch = False

    def __init__(
        self,
        shared: SharedPersistentCache,
        process: int,
        tracker: TemperatureTracker | None,
    ) -> None:
        self.name = SHARED_PERSISTENT
        self.capacity = shared.capacity
        self._shared = shared
        self._process = process
        self._tracker = tracker

    def __contains__(self, gid: int) -> bool:
        return self._shared.contains(gid)

    def touch(self, gid: int, time: int, count: int = 1) -> CachedTrace:
        return self._shared.touch(gid, time, count)

    def admit(self, trace: CachedTrace, time: int) -> list[CachedTrace]:
        gid = trace.trace_id
        if self._shared.contains(gid):
            # Another process already graduated identical content: the
            # local record is dropped and the process attaches (a
            # relocation-priced move, but no new shared bytes).
            self._shared.attach(gid, self._process, trace.module_id)
            return []
        victims = self._shared.admit(trace, time, self._process)
        for victim in victims:
            self._forget(victim.trace_id)
        return victims

    def remove_module(self, module_id: int) -> list[CachedTrace]:
        """Drop the process's claims made from *module_id*; returns the
        copies no process maps any more."""
        evicted, detached = self._shared.detach_module(self._process, module_id)
        for gid in detached:
            self.unpin(gid)
        for trace in evicted:
            self._forget(trace.trace_id)
        return evicted

    def pin(self, gid: int) -> None:
        self._shared.sharers.claim_pin(gid, self._process)
        self._shared.pin(gid)

    def unpin(self, gid: int) -> None:
        """Drop the process's pin claim; the last claim unpins."""
        if self._shared.sharers.release_pin(gid, self._process):
            self._shared.unpin(gid)

    def _forget(self, gid: int) -> None:
        if self._tracker is not None:
            self._tracker.forget(gid)


class _ProcessManager(GenerationalCacheManager):
    """One process's cascade in a shared-persistent group, over its
    :class:`_SharedTier`.  An oversized trace takes the pooled cache on
    a capacity tie with probation.  With a *tracker*, the decayed
    temperature replaces the threshold, tested on every probation hit
    and every probation eviction, whatever the mode."""

    # The group's hit entries drive it; nothing hands it to
    # replay_compiled.
    fastpath_safe = False

    def __init__(
        self,
        capacity: int,
        config: GenerationalConfig,
        tier: _SharedTier,
        tracker: TemperatureTracker | None,
    ) -> None:
        super().__init__(capacity, config, tier)
        self._tracker = tracker
        if tracker is not None:
            self._promote_on_hit = self._promote_on_eviction = True

    def _qualifies(self, trace: CachedTrace, time: int) -> bool:
        if self._tracker is None:
            return trace.access_count >= self._threshold
        return self._tracker.is_hot(trace.trace_id, time)

    def _fallback(self, size: int) -> CodeCache | None:
        shared = self.persistent
        if shared.capacity >= size and shared.capacity >= self.probation.capacity:
            return shared
        return super()._fallback(size)


class SharedPersistentGroup(_PerProcessGroup):
    """Per-process nursery/probation over one shared persistent cache.

    Each process keeps its configured nursery and probation fractions
    of its own budget; the per-process persistent shares pool into one
    :class:`SharedPersistentCache`, so total capacity equals the
    private baseline exactly.  Each process's manager runs the paper's
    cascade over its :class:`_SharedTier` view of the pooled cache.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        config: GenerationalConfig,
        sharing: SharingConfig,
    ) -> None:
        super().__init__(capacities, config, sharing)
        pooled = sum(config.sizes(cap)[2] for cap in self.capacities)
        self.shared = SharedPersistentCache(
            make_cache(config.local_policy, pooled, SHARED_PERSISTENT)
        )
        tracker = self._tracker = (
            TemperatureTracker(
                threshold=sharing.temperature_threshold,
                half_life=sharing.temperature_half_life,
            )
            if sharing.temperature
            else None
        )
        self._managers = [
            _ProcessManager(
                cap, config, _SharedTier(self.shared, process, tracker), tracker
            )
            for process, cap in enumerate(self.capacities)
        ]
        cache = self.shared._cache
        self._shared_entry: HitEntry = (
            SHARED_PERSISTENT,
            True,
            _hit_handler(
                cache, None, tracker, self.shared.sharers, self.shared.attach
            ),
            cache,
        )
        self.name = (
            f"group[{sharing.label()} x{self.n_processes}, {config.label()}]"
        )

    # -- operations ------------------------------------------------------

    def on_hit(
        self, process: int, gid: int, time: int, count: int, module_id: int
    ) -> AccessOutcome:
        manager = self._managers[process]
        cache = manager.lookup(gid)
        if cache is None:
            raise KeyError(
                f"on_hit called for trace {gid} not resident for process "
                f"{process}"
            )
        if self._tracker is not None:
            self._tracker.observe(gid, time, count)
        if cache == SHARED_PERSISTENT:
            # A process may hit code it never compiled (or whose own
            # copy already died): it links to the shared copy.
            self.shared.attach(gid, process, module_id)
        return manager.on_hit(gid, time, count)

    def hit_entries(self, process: int) -> dict[str, HitEntry]:
        manager = self._managers[process]
        entries = _manager_entries(
            manager, (manager.nursery, manager.probation), self._tracker
        )
        entries[SHARED_PERSISTENT] = self._shared_entry
        return entries

    def insert(
        self, process: int, gid: int, size: int, module_id: int, time: int
    ) -> InsertOutcome:
        if self.shared.contains(gid):
            # The dedup win: identical content is already shared, so
            # the process attaches instead of generating code.
            self.shared.attach(gid, process, module_id)
            return InsertOutcome(effects=[], deduped=True)
        return super().insert(process, gid, size, module_id, time)

    def check_invariants(self) -> None:
        self.shared.check_invariants()
        for process, manager in enumerate(self._managers):
            nursery = manager.nursery
            probation = manager.probation
            nursery.check_invariants()
            probation.check_invariants()
            both = set(nursery.arena.trace_ids()) & set(
                probation.arena.trace_ids()
            )
            if both:
                raise InvariantViolation(
                    "dual-residency",
                    f"traces {sorted(both)} resident in process {process}'s "
                    "nursery and probation",
                    cache=NURSERY,
                    trace_id=min(both),
                )

    def _iter_caches(self) -> Iterable[CodeCache]:
        for manager in self._managers:
            yield manager.nursery
        for manager in self._managers:
            yield manager.probation
        yield self.shared._cache


# ----------------------------------------------------------------------
# shared-all: one hierarchy for everyone
# ----------------------------------------------------------------------


class SharedAllGroup(SharedCacheGroup):
    """One generational hierarchy serves every process.

    Maximum dedup (a trace exists at most once anywhere) and maximum
    interference (everyone churns everyone's nursery).  Group-level
    reference counting (one :class:`~repro.shared.cache.Sharers`)
    preserves the unmap contract: a trace dies on unmap only when no
    process still maps its module.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        config: GenerationalConfig,
        sharing: SharingConfig,
    ) -> None:
        super().__init__(capacities, config, sharing)
        manager = self._manager = GenerationalCacheManager(sum(capacities), config)
        self._sharers = Sharers()
        # Every cache is shared and every hit must keep the sharers
        # current, so one entry table serves all processes.
        self._entries = _manager_entries(
            manager, manager.caches(), sharers=self._sharers
        )
        self.name = f"group[shared-all x{self.n_processes}, {config.label()}]"

    def lookup(self, process: int, gid: int) -> str | None:
        return self._manager.lookup(gid)

    def on_hit(
        self, process: int, gid: int, time: int, count: int, module_id: int
    ) -> AccessOutcome:
        outcome = self._manager.on_hit(gid, time, count)
        self._sharers.attach(gid, process, module_id)
        _forget_evicted(self._sharers.forget, outcome.effects)
        return outcome

    def hit_entries(self, process: int) -> dict[str, HitEntry]:
        return self._entries

    def insert(
        self, process: int, gid: int, size: int, module_id: int, time: int
    ) -> InsertOutcome:
        if self._manager.lookup(gid) is not None:
            self._sharers.attach(gid, process, module_id)
            return InsertOutcome(effects=[], deduped=True)
        effects = self._manager.insert(gid, size, module_id, time)
        if self._manager.lookup(gid) is not None:
            self._sharers.place(gid, process, module_id)
        _forget_evicted(self._sharers.forget, effects)
        return InsertOutcome(effects=effects, deduped=False)

    def unmap_module(
        self, process: int, module_id: int, time: int
    ) -> list[Effect]:
        sharers = self._sharers
        gone, detached = sharers.detach_module(process, module_id)
        for gid in detached:
            if sharers.release_pin(gid, process):
                self._manager.unpin(gid)
        effects: list[Effect] = []
        for gid in gone:
            sharers.forget(gid)
            for cache in self._manager.caches():
                if gid in cache:
                    trace = cache.remove(gid)
                    effects.append(
                        Evicted(
                            trace_id=trace.trace_id,
                            size=trace.size,
                            cache=cache.name,
                            reason=EvictionReason.UNMAP,
                        )
                    )
                    break
        return effects

    def pin(self, process: int, gid: int) -> bool:
        if not self._manager.pin(gid):
            return False
        self._sharers.claim_pin(gid, process)
        return True

    def unpin(self, process: int, gid: int) -> bool:
        if self._manager.lookup(gid) is None:
            return False
        if self._sharers.release_pin(gid, process):
            self._manager.unpin(gid)
        return True

    def check_invariants(self) -> None:
        self._manager.check_invariants()
        resident: set[int] = set()
        for cache in self._manager.caches():
            resident |= set(cache.arena.trace_ids())
        self._sharers.check(resident, self._manager.name)

    def _iter_caches(self) -> Iterable[CodeCache]:
        yield from self._manager.caches()
