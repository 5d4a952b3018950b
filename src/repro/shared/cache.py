"""The reference-counted shared persistent cache.

One :class:`SharedPersistentCache` wraps a single
:class:`~repro.policies.base.CodeCache` arena holding one physical copy
per distinct trace content (gids from the
:class:`~repro.shared.identity.TraceInterner`).  Around it the class
keeps the cross-process bookkeeping the paper's single-process
persistent cache never needed:

* **Attachments** — which processes map each trace, and from which of
  their modules.  Attaching is how a process starts executing a copy
  another process compiled (ShareJIT's dedup win).
* **Unmap invalidation** — ``detach_module`` drops one process's claim;
  the physical copy is evicted only when *every* sharing process has
  unmapped the trace's module.  Evicting earlier would invalidate code
  another process is still mapped to.
* **Reuse accounting** — how often, and for how many bytes, a process
  attached to a copy another process compiled.  Who hits the shared
  copies is each process's own ``hits_by_cache[SHARED_PERSISTENT]``.

Mutating the wrapped arena directly from outside :mod:`repro.shared`
is a layering violation (enforced by the ``shared-cache-api`` cachelint
rule); other layers drive it through the cache group manager.
"""

from __future__ import annotations

from repro.errors import InvariantViolation, UnknownTraceError
from repro.policies.base import CachedTrace, CodeCache

#: Cache name used in effects and hit breakdowns.
SHARED_PERSISTENT = "shared-persistent"


class SharedPersistentCache:
    """A content-deduplicated persistent cache shared by N processes."""

    def __init__(self, cache: CodeCache) -> None:
        self._cache = cache
        #: gid -> {process index -> module id it attached with}.
        self._attachments: dict[int, dict[int, int]] = {}
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
        return tuple(sorted(self._attachments.get(gid, ())))

    def resident_gids(self) -> list[int]:
        """Resident gids in arena address order."""
        return [trace.trace_id for trace in self._cache.traces()]

    def trace(self, gid: int) -> CachedTrace:
        """The resident record for *gid* (raises if absent)."""
        return self._cache.get(gid)

    def attachment_table(self) -> dict[int, dict[int, int]]:
        """The live gid -> ``{process: module id}`` table, for the
        group's hit handler, which attaches in place as :meth:`attach`
        does (counting reuses the same way)."""
        return self._attachments

    def fragmentation(self) -> float:
        return self._cache.fragmentation()

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
        pin included) as the first copy of its gid, attached by
        *process* from its module; returns the victims the placement
        evicted (their attachments are already cleared)."""
        evicted = self._cache.admit(trace, time)
        self._attachments[trace.trace_id] = {process: trace.module_id}
        for victim in evicted:
            self._attachments.pop(victim.trace_id, None)
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
        holders = self._attachments.setdefault(gid, {})
        if process not in holders:
            self.attach_reuses += 1
            self.reused_bytes += self._cache.get(gid).size
        holders[process] = module_id

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
        evicted: list[CachedTrace] = []
        detached: list[int] = []
        for gid in [
            gid
            for gid, holders in self._attachments.items()
            if holders.get(process) == module_id
        ]:
            holders = self._attachments[gid]
            del holders[process]
            detached.append(gid)
            if not holders:
                del self._attachments[gid]
                evicted.append(self._cache.remove(gid))
        return evicted, detached

    def evict(self, gid: int) -> CachedTrace:
        """Capacity-evict the copy of *gid*, clearing all attachments."""
        self._attachments.pop(gid, None)
        return self._cache.remove(gid)

    def pin(self, gid: int) -> None:
        self._cache.pin(gid)

    def unpin(self, gid: int) -> None:
        self._cache.unpin(gid)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Residency and attachments must agree exactly.

        Raises:
            InvariantViolation: a resident copy has no sharers, or an
                attachment references a non-resident copy.
        """
        self._cache.check_invariants()
        resident = set(self._cache.arena.trace_ids())
        attached = set(self._attachments)
        if resident != attached:
            raise InvariantViolation(
                "shared-attachment",
                f"residency/attachment disagree: resident-only="
                f"{sorted(resident - attached)}, attached-only="
                f"{sorted(attached - resident)}",
                cache=self.name,
            )
        for gid, holders in self._attachments.items():
            if not holders:
                raise InvariantViolation(
                    "shared-attachment",
                    f"shared trace {gid} resident with zero sharers",
                    cache=self.name,
                    trace_id=gid,
                )
