"""The residency core of both fast replay loops.

The batched loop (:mod:`repro.fastpath.replay`) and the fleet engine
(:mod:`repro.shared.fleet`) serve resident accesses from *residency
maps*, trace id -> ``(key, handler, record)``: *key* is what the loop
counts the trace's hits under, *handler* is None exactly for a plain
cache (the loop touches *record* in place), and *record* is the live
:class:`~repro.policies.base.CachedTrace` the cache holds.  A loop
resolves one *prototype* per cache, keyed by cache name:
``(residency map, key, handler, cache)``.

The maps are kept from effects alone, so they are sound only under the
``CacheManager.fastpath_safe`` and ``SharedCacheGroup`` effect
contracts: every residency change appears as an effect, and a
promotion moves the record.  :func:`check_residency` fails a manager
or group that breaks either.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.effects import Effect, Evicted, EvictionReason, Inserted
from repro.errors import InvariantViolation


def fold_effects(
    effects: Sequence[Effect], protos: Mapping[str, tuple], stats, account=None
) -> None:
    """Apply *effects* to the residency maps of *protos*, count them on
    *stats* (a :class:`~repro.cachesim.stats.CacheStats`) and price them
    on the overhead *account*, in stream order and with the cost model's
    own expressions, so float totals match the object path bit for bit.

    ``Inserted`` maps the trace to ``cache.find`` — not ``get``: the
    cascade may have displaced it again, and a later ``Evicted`` in the
    batch drops the entry.  ``Promoted`` moves the source entry's
    record into the destination map, except onto a copy another
    process already shared: that map keeps its own entry.
    """
    for effect in effects:
        kind = type(effect)
        if kind is Inserted:
            residency, key, handler, cache = protos[effect.cache]
            residency[effect.trace_id] = (
                key, handler, cache.find(effect.trace_id)
            )
        elif kind is Evicted:
            protos[effect.cache][0].pop(effect.trace_id, None)
            reason = effect.reason
            if reason is EvictionReason.UNMAP:
                stats.unmap_evictions += 1
            elif reason is EvictionReason.FLUSH:
                stats.flush_evictions += 1
            else:
                stats.evictions += 1
            size = effect.size
            stats.evicted_bytes += size
            if account is not None:
                model = account.model
                account.evictions += (
                    model.eviction_per_byte * size + model.eviction_base
                )
        else:  # Promoted
            trace_id = effect.trace_id
            residency, key, handler, _ = protos[effect.dst]
            source = protos[effect.src][0]
            if source is residency:
                residency[trace_id] = (key, handler, residency[trace_id][2])
            elif trace_id not in residency:
                residency[trace_id] = (key, handler, source.pop(trace_id)[2])
            else:  # a graduation onto an already-shared copy
                del source[trace_id]
            size = effect.size
            stats.promotions += 1
            stats.promoted_bytes += size
            if account is not None:
                model = account.model
                account.promotions += (
                    model.promotion_per_byte * size + model.promotion_base
                )


def check_residency(
    views: Iterable[tuple[Mapping[int, tuple], Mapping[str, tuple]]],
    copies: int,
) -> None:
    """Check residency maps, each paired in *views* with the prototypes
    it was folded through, against caches holding *copies* traces: each
    entry's cache must hold its trace as the entry's record, and the
    maps together must hold *copies* entries.

    Raises:
        InvariantViolation: ``fastpath-residency`` on any drift.
    """
    entries = 0
    for residency, protos in views:
        caches = {key: cache for _, key, _, cache in protos.values()}
        entries += len(residency)
        for trace_id, (key, _, record) in residency.items():
            cache = caches[key]
            live = cache.find(trace_id)
            if live is None or live is not record:
                raise InvariantViolation(
                    "fastpath-residency",
                    f"residency map entry for trace {trace_id} disagrees "
                    f"with cache {cache.name!r}",
                    cache=cache.name,
                    trace_id=trace_id,
                )
    if entries != copies:
        raise InvariantViolation(
            "fastpath-residency",
            f"residency maps hold {entries} entries but the caches hold "
            f"{copies} resident copies",
        )
