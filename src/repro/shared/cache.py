"""Reference counting of shared trace copies, and the shared persistent
cache.

Once processes share code, two of the paper's rules become reference
counts, as in ShareJIT: forced deletion of unmapped modules (Section
3.4) and undeletable, pinned traces (Section 4.2).  One
:class:`Sharers` table keeps both for every shared copy, in both shared
cache groups: which processes map the copy, and from which of their
modules (the copy dies only when *every* sharer has unmapped it;
evicting earlier would invalidate code another process still maps),
and which processes pin it (it stays pinned while any claim remains,
and the claims die with it).

One :class:`SharedPersistentCache` wraps a single
:class:`~repro.policies.base.CodeCache` arena holding one physical copy
per distinct trace content (gids from the
:class:`~repro.shared.identity.TraceInterner`), with its ``Sharers``
and its reuse accounting: how often, and for how many bytes, a process
attached to a copy another process compiled (ShareJIT's dedup win).
Who hits the shared copies is each process's own
``hits_by_cache[SHARED_PERSISTENT]``.

Mutating the wrapped arena directly from outside :mod:`repro.shared`
is a layering violation (enforced by the ``shared-cache-api`` cachelint
rule); other layers drive it through the cache group manager.
"""

from __future__ import annotations

from repro.errors import InvariantViolation, UnknownTraceError
from repro.policies.base import CachedTrace, CodeCache

#: Cache name used in effects and hit breakdowns.
SHARED_PERSISTENT = "shared-persistent"


class Sharers:
    """Who maps and who pins each resident shared copy."""

    def __init__(self) -> None:
        #: gid -> {module id -> bitmask of the processes that map the
        #: copy from that module}.  A process appears in at most one
        #: module's mask per gid (the latest mapping wins).  Bitmasks
        #: keep this O(gids x modules) rather than O(gids x processes):
        #: the difference between kilobytes and megabytes for fleets of
        #: many processes replaying a handful of distinct binaries.
        self.holders: dict[int, dict[int, int]] = {}
        #: gid -> processes holding a pin claim on the copy.
        self.pin_claims: dict[int, set[int]] = {}

    def place(self, gid: int, process: int, module_id: int) -> None:
        """*process* placed the first copy of *gid*, from *module_id*."""
        self.holders[gid] = {module_id: 1 << process}

    def attach(self, gid: int, process: int, module_id: int) -> bool:
        """Record that *process* maps *gid* from *module_id*; a remap
        moves the process to the new module's mask.  Returns True when
        the process mapped no module of the copy before."""
        holders = self.holders.setdefault(gid, {})
        bit = 1 << process
        mask = holders.get(module_id, 0)
        if mask & bit:
            return False
        first = True
        for other, other_mask in holders.items():
            if other_mask & bit:
                other_mask &= ~bit
                if other_mask:
                    holders[other] = other_mask
                else:
                    del holders[other]
                first = False
                break
        holders[module_id] = mask | bit
        return first

    def detach_module(
        self, process: int, module_id: int
    ) -> tuple[list[int], list[int]]:
        """Drop *process*'s mappings from *module_id*.

        Returns:
            ``(gone, detached)``, both in table order: the gids no
            process maps any more, and every gid the process stopped
            mapping (including those other sharers keep alive).
        """
        bit = 1 << process
        detached = [
            gid
            for gid, holders in self.holders.items()
            if holders.get(module_id, 0) & bit
        ]
        gone: list[int] = []
        for gid in detached:
            holders = self.holders[gid]
            mask = holders[module_id] & ~bit
            if mask:
                holders[module_id] = mask
            else:
                del holders[module_id]
                if not holders:
                    del self.holders[gid]
                    gone.append(gid)
        return gone, detached

    def claim_pin(self, gid: int, process: int) -> None:
        self.pin_claims.setdefault(gid, set()).add(process)

    def release_pin(self, gid: int, process: int) -> bool:
        """Drop *process*'s pin claim; True when the last claim went."""
        claims = self.pin_claims.get(gid)
        if claims is None:
            return False
        claims.discard(process)
        if claims:
            return False
        del self.pin_claims[gid]
        return True

    def forget(self, gid: int) -> None:
        """The copy of *gid* died: drop its sharers and its claims."""
        self.holders.pop(gid, None)
        self.pin_claims.pop(gid, None)

    def processes_of(self, gid: int) -> tuple[int, ...]:
        """Process indices currently mapping *gid* (sorted)."""
        mask = 0
        for module_mask in self.holders.get(gid, {}).values():
            mask |= module_mask
        return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)

    def check(self, resident: set[int], cache_name: str) -> None:
        """The *resident* gids and the sharers must agree exactly.

        Raises:
            InvariantViolation: a resident copy has no sharers, or a
                sharer or pin claim references a non-resident copy.
        """
        attached = set(self.holders)
        if resident != attached:
            raise InvariantViolation(
                "shared-attachment",
                f"residency/attachment disagree: resident-only="
                f"{sorted(resident - attached)}, attached-only="
                f"{sorted(attached - resident)}",
                cache=cache_name,
            )
        for gid, holders in self.holders.items():
            if not holders:
                raise InvariantViolation(
                    "shared-attachment",
                    f"shared trace {gid} resident with zero sharers",
                    cache=cache_name,
                    trace_id=gid,
                )
        stale = set(self.pin_claims) - resident
        if stale:
            raise InvariantViolation(
                "shared-attachment",
                f"pin claims on non-resident copies {sorted(stale)}",
                cache=cache_name,
                trace_id=min(stale),
            )


class SharedPersistentCache:
    """A content-deduplicated persistent cache shared by N processes."""

    def __init__(self, cache: CodeCache) -> None:
        self._cache = cache
        #: Who maps and who pins each resident copy.
        self.sharers = Sharers()
        #: Times attach() reused an already-resident copy.
        self.attach_reuses = 0
        #: Bytes of compilation avoided by those reuses.
        self.reused_bytes = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._cache.name

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    @property
    def n_traces(self) -> int:
        return self._cache.n_traces

    def contains(self, gid: int) -> bool:
        """True when a physical copy of *gid* is resident."""
        return gid in self._cache

    def processes_of(self, gid: int) -> tuple[int, ...]:
        """Process indices currently attached to *gid* (sorted)."""
        return self.sharers.processes_of(gid)

    def trace(self, gid: int) -> CachedTrace:
        """The resident record for *gid* (raises if absent)."""
        return self._cache.get(gid)

    # ------------------------------------------------------------------
    # Mutation (confined to repro.shared by the shared-cache-api rule)
    # ------------------------------------------------------------------

    def insert(
        self, gid: int, size: int, time: int, process: int, module_id: int
    ) -> list[CachedTrace]:
        """Insert the first physical copy of *gid*, attached by
        *process* from *module_id*: a new record, then :meth:`admit`."""
        trace = CachedTrace(gid, size, module_id, time, 0, time, False)
        return self.admit(trace, time, process)

    def admit(
        self, trace: CachedTrace, time: int, process: int
    ) -> list[CachedTrace]:
        """Place the detached record *trace* (a graduate moves its own,
        pin included, and *process* then holds the pin claim) as the
        first copy of its gid, attached by *process* from its module;
        returns the victims the placement evicted (their sharers and
        claims are already dropped)."""
        evicted = self._cache.admit(trace, time)
        self.sharers.place(trace.trace_id, process, trace.module_id)
        if trace.pinned:
            self.sharers.claim_pin(trace.trace_id, process)
        for victim in evicted:
            self.sharers.forget(victim.trace_id)
        return evicted

    def attach(self, gid: int, process: int, module_id: int) -> None:
        """Record that *process* now maps the resident copy of *gid*
        (compiled by some other process) from *module_id*.

        Raises:
            UnknownTraceError: if no copy is resident.
        """
        if gid not in self._cache:
            raise UnknownTraceError(
                f"cannot attach to non-resident shared trace {gid}"
            )
        if self.sharers.attach(gid, process, module_id):
            self.attach_reuses += 1
            self.reused_bytes += self._cache.get(gid).size

    def touch(self, gid: int, time: int, count: int) -> CachedTrace:
        """Record *count* hits on the shared copy."""
        return self._cache.touch(gid, time, count)

    def detach_module(
        self, process: int, module_id: int
    ) -> tuple[list[CachedTrace], list[int]]:
        """Drop *process*'s claims made from *module_id*.

        A trace is physically evicted only when its last attachment
        goes — other processes may still be mapped to the module's
        code.

        Returns:
            ``(evicted, detached)``: the physically removed traces, and
            the gids whose claim was dropped (including those that left
            the copy resident for other sharers).
        """
        gone, detached = self.sharers.detach_module(process, module_id)
        evicted = []
        for gid in gone:
            self.sharers.forget(gid)
            evicted.append(self._cache.remove(gid))
        return evicted, detached

    def pin(self, gid: int) -> None:
        self._cache.pin(gid)

    def unpin(self, gid: int) -> None:
        self._cache.unpin(gid)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Residency and sharers must agree exactly.

        Raises:
            InvariantViolation: a resident copy has no sharers, or a
                sharer or pin claim references a non-resident copy.
        """
        self._cache.check_invariants()
        self.sharers.check(set(self._cache.arena.trace_ids()), self.name)
