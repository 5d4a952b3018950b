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
from repro.core.generational import NURSERY, PROBATION, GenerationalCacheManager
from repro.core.manager import make_cache
from repro.errors import ConfigError, InvariantViolation
from repro.policies.base import CachedTrace, CodeCache
from repro.shared.cache import SHARED_PERSISTENT, SharedPersistentCache
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


def _manager_entries(manager: GenerationalCacheManager) -> dict[str, HitEntry]:
    """*manager*'s caches as process-local hit entries, resolved the
    way the batched loop resolves them (``plain_hit_caches`` and
    ``hit_handler``)."""
    plain = manager.plain_hit_caches()
    entries: dict[str, HitEntry] = {}
    for cache in manager.caches():
        handler = None
        if cache.name not in plain:
            handler = _local_handler(manager.hit_handler(cache.name))
        entries[cache.name] = (cache.name, False, handler, cache)
    return entries


def _local_handler(
    handler: Callable[[int, int, int], Sequence[Effect]],
    tracker: TemperatureTracker | None = None,
) -> HitHandler:
    """Adapt a manager's ``(trace_id, time, count)`` hit handler to
    :data:`HitHandler`, observing *tracker*'s temperature first if
    given."""
    if tracker is None:

        def local_hit(process, gid, time, count, module_id):
            return handler(gid, time, count)

        return local_hit
    observe = tracker.observe

    def observed_hit(process, gid, time, count, module_id):
        observe(gid, time, count)
        return handler(gid, time, count)

    return observed_hit


def _touching_handler(
    cache: CodeCache,
    tracker: TemperatureTracker | None,
    shared: SharedPersistentCache | None = None,
) -> HitHandler:
    """The hit handler of a *cache* whose hits emit no effects, as one
    call: observe *tracker*'s temperature (if given), touch the
    record, and, for the *shared* persistent cache's arena, attach the
    process to the copy."""
    traces = cache.trace_table()
    touch = None if cache.plain_touch else cache.touch_resident
    state = None if tracker is None else tracker.state_table()
    half_life = None if tracker is None else tracker.half_life
    attachments = None if shared is None else shared.attachment_table()

    def touching_hit(process, gid, time, count, module_id):
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
        if touch is None:
            trace = traces[gid]
            trace.access_count += count
            trace.last_access = time
        else:
            trace = touch(gid, time, count)
        if attachments is not None:
            # SharedPersistentCache.attach, for a resident copy.
            holders = attachments[gid]
            if process not in holders:
                shared.attach_reuses += 1
                shared.reused_bytes += trace.size
            holders[process] = module_id
        return ()

    return touching_hit


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
        return _manager_entries(self._managers[process])

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
    process already shared, or places the first copy; a pinned
    graduate's pin claim goes to the process.  :meth:`remove_module`,
    :meth:`pin` and :meth:`unpin` keep the attachments and pin claims,
    and every copy that leaves the shared cache drops its temperature
    and pin claims.  The view holds the shared cache and the group's
    pin-claim table and tracker, never the group itself, so a group is
    freed by reference counting alone.
    """

    #: Every hit on a shared copy attaches the process.
    plain_touch = False

    def __init__(
        self,
        shared: SharedPersistentCache,
        process: int,
        pin_claims: dict[int, set[int]],
        tracker: TemperatureTracker | None,
    ) -> None:
        self.name = SHARED_PERSISTENT
        self.capacity = shared.capacity
        self._shared = shared
        self._process = process
        self._pin_claims = pin_claims
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
        if trace.pinned:
            # The pin moved with the record; the graduating process
            # holds its claim.
            self._pin_claims.setdefault(gid, set()).add(self._process)
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
        self._pin_claims.setdefault(gid, set()).add(self._process)
        self._shared.pin(gid)

    def unpin(self, gid: int) -> None:
        """Drop the process's pin claim; the last claim unpins."""
        claims = self._pin_claims.get(gid)
        if claims is None:
            return
        claims.discard(self._process)
        if not claims:
            del self._pin_claims[gid]
            if self._shared.contains(gid):
                self._shared.unpin(gid)

    def _forget(self, gid: int) -> None:
        if self._tracker is not None:
            self._tracker.forget(gid)
        self._pin_claims.pop(gid, None)


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
        #: Pin claims on shared copies: gid -> claiming processes.
        self._pin_claims: dict[int, set[int]] = {}
        self._managers = [
            _ProcessManager(
                cap,
                config,
                _SharedTier(self.shared, process, self._pin_claims, tracker),
                tracker,
            )
            for process, cap in enumerate(self.capacities)
        ]
        self._shared_entry: HitEntry = (
            SHARED_PERSISTENT,
            True,
            _touching_handler(self.shared._cache, tracker, self.shared),
            self.shared._cache,
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
        tracker = self._tracker
        nursery = manager.nursery
        probation = manager.probation
        # With a tracker every hit observes the temperature, so no
        # cache is plain.
        plain = manager.plain_hit_caches() if tracker is None else ()
        return {
            NURSERY: (
                NURSERY,
                False,
                None if NURSERY in plain else _touching_handler(nursery, tracker),
                nursery,
            ),
            PROBATION: (
                PROBATION,
                False,
                None
                if PROBATION in plain
                else _local_handler(manager.hit_handler(PROBATION), tracker),
                probation,
            ),
            SHARED_PERSISTENT: self._shared_entry,
        }

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
    reference counting preserves the unmap contract: a trace dies on
    unmap only when no process still maps its module.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        config: GenerationalConfig,
        sharing: SharingConfig,
    ) -> None:
        super().__init__(capacities, config, sharing)
        self._manager = GenerationalCacheManager(sum(capacities), config)
        #: gid -> {module id -> bitmask of processes mapping it from
        #: that module}.  A process appears in at most one module's
        #: mask per gid (latest mapping wins).  Bitmasks keep this
        #: O(gids x modules) rather than O(gids x processes) — the
        #: difference between kilobytes and megabytes for 1000-process
        #: fleets replaying a handful of distinct binaries.
        self._attachments: dict[int, dict[int, int]] = {}
        self._pin_claims: dict[int, set[int]] = {}
        # Every cache is shared and every hit must keep the attachment
        # masks current, so no cache is plain and one entry table
        # serves all processes.
        plain = self._manager.plain_hit_caches()
        self._entries: dict[str, HitEntry] = {
            cache.name: (
                cache.name,
                True,
                self._attaching_handler(
                    cache,
                    None
                    if cache.name in plain
                    else self._manager.hit_handler(cache.name),
                ),
                cache,
            )
            for cache in self._manager.caches()
        }
        self.name = f"group[shared-all x{self.n_processes}, {config.label()}]"

    def lookup(self, process: int, gid: int) -> str | None:
        return self._manager.lookup(gid)

    def on_hit(
        self, process: int, gid: int, time: int, count: int, module_id: int
    ) -> AccessOutcome:
        outcome = self._manager.on_hit(gid, time, count)
        self._attach(gid, process, module_id)
        self._sync_attachments(outcome.effects)
        return outcome

    def hit_entries(self, process: int) -> dict[str, HitEntry]:
        return self._entries

    def insert(
        self, process: int, gid: int, size: int, module_id: int, time: int
    ) -> InsertOutcome:
        if self._manager.lookup(gid) is not None:
            self._attach(gid, process, module_id)
            return InsertOutcome(effects=[], deduped=True)
        effects = self._manager.insert(gid, size, module_id, time)
        if self._manager.lookup(gid) is not None:
            self._attachments[gid] = {module_id: 1 << process}
        self._sync_attachments(effects)
        return InsertOutcome(effects=effects, deduped=False)

    def unmap_module(
        self, process: int, module_id: int, time: int
    ) -> list[Effect]:
        effects: list[Effect] = []
        bit = 1 << process
        mine = [
            gid
            for gid, holders in self._attachments.items()
            if holders.get(module_id, 0) & bit
        ]
        for gid in mine:
            holders = self._attachments[gid]
            mask = holders[module_id] & ~bit
            if mask:
                holders[module_id] = mask
            else:
                del holders[module_id]
            self._drop_pin_claim(process, gid)
            if holders:
                continue  # other processes still map this code
            del self._attachments[gid]
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
        self._pin_claims.setdefault(gid, set()).add(process)
        return True

    def unpin(self, process: int, gid: int) -> bool:
        if self._manager.lookup(gid) is None:
            return False
        self._drop_pin_claim(process, gid)
        return True

    def check_invariants(self) -> None:
        self._manager.check_invariants()
        resident: set[int] = set()
        for cache in self._manager.caches():
            resident |= set(cache.arena.trace_ids())
        attached = set(self._attachments)
        if resident != attached:
            raise InvariantViolation(
                "shared-attachment",
                f"residency/attachment disagree: resident-only="
                f"{sorted(resident - attached)}, attached-only="
                f"{sorted(attached - resident)}",
                cache=self._manager.name,
            )

    def _iter_caches(self) -> Iterable[CodeCache]:
        yield from self._manager.caches()

    def _attaching_handler(
        self,
        cache: CodeCache,
        handler: Callable[[int, int, int], Sequence[Effect]] | None,
    ) -> HitHandler:
        """*cache*'s hit handler: apply the hits — in place when
        *handler* is None (a plain cache), else through the manager's
        *handler* — then attach the process if its bit is not set yet
        and drop the bookkeeping of any trace the hits evicted."""
        traces = cache.trace_table()
        attachments = self._attachments
        attach = self._attach
        sync = self._sync_attachments

        def attaching_hit(process, gid, time, count, module_id):
            if handler is None:
                trace = traces[gid]
                trace.access_count += count
                trace.last_access = time
                effects = ()
            else:
                effects = handler(gid, time, count)
            if not attachments[gid].get(module_id, 0) >> process & 1:
                attach(gid, process, module_id)
            if effects:
                sync(effects)
            return effects

        return attaching_hit

    def _attach(self, gid: int, process: int, module_id: int) -> None:
        """Record that *process* maps *gid* via *module_id* (latest
        mapping wins, as a remap moves the process between masks)."""
        holders = self._attachments.setdefault(gid, {})
        bit = 1 << process
        mask = holders.get(module_id, 0)
        if not mask & bit:
            for other, other_mask in holders.items():
                if other_mask & bit:
                    other_mask &= ~bit
                    if other_mask:
                        holders[other] = other_mask
                    else:
                        del holders[other]
                    break
        holders[module_id] = mask | bit

    def _sync_attachments(self, effects: list[Effect]) -> None:
        for effect in effects:
            if isinstance(effect, Evicted):
                self._attachments.pop(effect.trace_id, None)
                self._pin_claims.pop(effect.trace_id, None)

    def _drop_pin_claim(self, process: int, gid: int) -> None:
        claims = self._pin_claims.get(gid)
        if claims is None:
            return
        claims.discard(process)
        if not claims:
            del self._pin_claims[gid]
            self._manager.unpin(gid)
