"""The runtime simulation sanitizer.

Wraps a :class:`~repro.core.manager.CacheManager` during log replay and
re-checks the structural invariants every *stride* events, raising a
structured :class:`~repro.errors.InvariantViolation` (with the
offending event context) the moment one fails instead of letting the
corruption silently skew miss rates.

Checked invariants:

* **arena-extents** — every placement lies inside ``[0, capacity)``
  and placements never overlap; used-byte accounting agrees with the
  placement sum.
* **cache-consistency** — each cache's own
  ``check_invariants()`` (trace table vs arena agreement).
* **dual-residency** — no trace is resident in two generations at
  once.
* **pinned-eviction** — a pinned (undeletable) trace is never evicted
  by a local policy (module unmap is the sanctioned exception).
* **probation-monotone** — a probation resident's hit counter never
  decreases before the trace is promoted or evicted.

Enable globally (what the CLI ``--sanitize`` flag does) with
:func:`enable_sanitizer`, or pass a harness explicitly to
:class:`~repro.cachesim.simulator.CacheSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.effects import Effect, Evicted, EvictionReason, Promoted
from repro.errors import DEFAULT_STRIDE, ConfigError, InvariantViolation
from repro.tracelog.records import LogRecord, TracePin, TraceUnpin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import CacheManager
    from repro.policies.base import CodeCache


@dataclass
class SanitizerTotals:
    """Aggregate counters across every harness in the process (the CLI
    prints these after a ``--sanitize`` run)."""

    simulations: int = 0
    events: int = 0
    checks: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.simulations = 0
        self.events = 0
        self.checks = 0


#: Process-wide counters, aggregated over all harnesses.
TOTALS = SanitizerTotals()


class SanitizerHarness:
    """Cross-cache invariant checker for one replay run."""

    def __init__(self, manager: CacheManager, stride: int = DEFAULT_STRIDE) -> None:
        if stride < 1:
            raise ConfigError(f"sanitizer stride must be >= 1, got {stride}")
        self.manager = manager
        self.stride = stride
        self.events_seen = 0
        self.checks_run = 0
        self.last_event: LogRecord | None = None
        self._pinned: set[int] = set()
        self._probation_counts: dict[int, int] = {}
        TOTALS.simulations += 1

    # ------------------------------------------------------------------
    # Observation hooks (called by the replay simulator)
    # ------------------------------------------------------------------

    def observe_event(self, record: LogRecord) -> None:
        """Feed one replayed log record; runs a full check each
        *stride* events."""
        self.last_event = record
        self.events_seen += 1
        TOTALS.events += 1
        if isinstance(record, TracePin):
            if self.manager.lookup(record.trace_id) is not None:
                self._pinned.add(record.trace_id)
        elif isinstance(record, TraceUnpin):
            self._pinned.discard(record.trace_id)
        if self.events_seen % self.stride == 0:
            self.check_now()

    def observe_effects(self, effects: list[Effect]) -> None:
        """Inspect a mutation's effect list as it happens — eviction of
        a pinned trace must be caught even between strides."""
        for effect in effects:
            if isinstance(effect, Evicted):
                if (
                    effect.trace_id in self._pinned
                    and effect.reason is not EvictionReason.UNMAP
                ):
                    raise InvariantViolation(
                        "pinned-eviction",
                        f"pinned trace evicted by the local policy "
                        f"(reason={effect.reason.name})",
                        cache=effect.cache,
                        trace_id=effect.trace_id,
                        time=self._time(),
                        context=self._event_context(),
                    )
                self._pinned.discard(effect.trace_id)
                self._probation_counts.pop(effect.trace_id, None)
            elif isinstance(effect, Promoted):
                self._probation_counts.pop(effect.trace_id, None)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check_now(self) -> None:
        """Run every structural check immediately.

        One sweep per cache: the cache's own ``check_invariants()``
        (arena extents + trace-table agreement, re-raised with the
        offending event attached), then a single walk of the residents
        covering dual-residency, pin resync, and probation hit-count
        monotonicity."""
        self.checks_run += 1
        TOTALS.checks += 1
        probation = getattr(self.manager, "probation", None)
        seen: dict[int, str] = {}
        pinned: set[int] = set()
        for cache in self.manager.caches():
            self._check_cache_consistency(cache)
            in_probation = cache is probation
            counts: dict[int, int] = {}
            for trace in cache.traces():
                trace_id = trace.trace_id
                if trace_id in seen:
                    raise InvariantViolation(
                        "dual-residency",
                        f"trace resident in both {seen[trace_id]!r} and "
                        f"{cache.name!r}",
                        cache=cache.name,
                        trace_id=trace_id,
                        time=self._time(),
                        context=self._event_context(),
                    )
                seen[trace_id] = cache.name
                if trace.pinned:
                    pinned.add(trace_id)
                if in_probation:
                    previous = self._probation_counts.get(trace_id)
                    if previous is not None and trace.access_count < previous:
                        raise InvariantViolation(
                            "probation-monotone",
                            f"probation hit count regressed from {previous} "
                            f"to {trace.access_count}",
                            cache=cache.name,
                            trace_id=trace_id,
                            time=self._time(),
                            context=self._event_context(),
                        )
                    counts[trace_id] = trace.access_count
            if in_probation:
                self._probation_counts = counts
        # Pins applied while a trace was non-resident (the simulator's
        # pending-pin path) surface here at the next stride.
        self._pinned = pinned

    def final_check(self) -> None:
        """End-of-log check (runs regardless of stride phase)."""
        self.check_now()

    def summary(self) -> dict[str, int]:
        """Counters for reports: events observed and checks run."""
        return {
            "events_seen": self.events_seen,
            "checks_run": self.checks_run,
            "stride": self.stride,
        }

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------

    def _check_cache_consistency(self, cache: CodeCache) -> None:
        """Run the cache's own invariant check, re-raising with the
        offending replay event attached."""
        try:
            cache.check_invariants()
        except InvariantViolation as exc:
            raise InvariantViolation(
                exc.invariant,
                exc.message,
                cache=exc.cache or cache.name,
                trace_id=exc.trace_id,
                time=self._time(),
                context={**exc.context, **self._event_context()},
            ) from exc
        except AssertionError as exc:
            raise InvariantViolation(
                "cache-consistency",
                str(exc) or "cache.check_invariants() failed",
                cache=cache.name,
                time=self._time(),
                context=self._event_context(),
            ) from exc

    # ------------------------------------------------------------------
    # Context helpers
    # ------------------------------------------------------------------

    def _time(self) -> int | None:
        return getattr(self.last_event, "time", None)

    def _event_context(self) -> dict[str, object]:
        return {
            "event": repr(self.last_event),
            "events_seen": self.events_seen,
        }


# ----------------------------------------------------------------------
# Process-wide enablement (the CLI --sanitize switch)
# ----------------------------------------------------------------------

_default_stride: int | None = None


def enable_sanitizer(stride: int = DEFAULT_STRIDE) -> None:
    """Attach a sanitizer to every simulator created from now on."""
    global _default_stride
    if stride < 1:
        raise ConfigError(f"sanitizer stride must be >= 1, got {stride}")
    _default_stride = stride


def disable_sanitizer() -> None:
    """Stop attaching sanitizers to new simulators."""
    global _default_stride
    _default_stride = None


def sanitizer_enabled() -> bool:
    """Whether the process-wide sanitizer switch is on."""
    return _default_stride is not None


def default_sanitizer_for(manager: CacheManager) -> SanitizerHarness | None:
    """The harness a new simulator should use under the global switch
    (None when sanitizing is off)."""
    if _default_stride is None:
        return None
    return SanitizerHarness(manager, stride=_default_stride)
