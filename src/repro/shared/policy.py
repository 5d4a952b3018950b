"""Sharing policies and the TRRIP-style reuse-temperature signal.

Three sharing policies span the design space the ShareJIT paper
explores:

* ``private`` — the paper's baseline: every process owns a full
  nursery/probation/persistent hierarchy; nothing is shared.
* ``shared-persistent`` — per-process nursery and probation
  generations in front of one reference-counted persistent cache.
  Only traces that proved themselves graduate into shared memory, so
  churn stays process-local (ShareJIT's "share the long-lived code"
  deviation from a fully shared cache).
* ``shared-all`` — one hierarchy serves every process (maximum
  dedup, maximum cross-process interference; the other endpoint).

Promotion into the shared persistent cache normally uses the paper's
fixed access-count threshold.  With :attr:`SharingConfig.temperature`
set, a decayed per-trace reuse temperature replaces the raw count
(TRRIP-style): every hit adds 1, and the accumulated value halves every
``temperature_half_life`` virtual instructions, so a burst of old hits
cannot promote a trace that stopped being reused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class SharingPolicy(enum.Enum):
    """How N processes' cache hierarchies relate."""

    PRIVATE = "private"
    SHARED_PERSISTENT = "shared-persistent"
    SHARED_ALL = "shared-all"


#: Mix kinds the shared experiment family composes.
MIX_KINDS = ("homogeneous", "heterogeneous")

#: Policy variant names accepted by job specs and the experiment table
#: (``shared-persistent-temp`` = shared-persistent with the temperature
#: promotion knob on).
POLICY_VARIANTS = (
    "private",
    "shared-persistent",
    "shared-persistent-temp",
    "shared-all",
)


@dataclass(frozen=True)
class SharingConfig:
    """Configuration of one cache group.

    Attributes:
        policy: Sharing policy.
        temperature: Replace the fixed promotion threshold with the
            decayed reuse temperature.
        temperature_threshold: Temperature at which a probation trace
            qualifies for the shared persistent cache.
        temperature_half_life: Virtual instructions for a trace's
            temperature to halve.
    """

    policy: SharingPolicy = SharingPolicy.SHARED_PERSISTENT
    temperature: bool = False
    temperature_threshold: float = 2.0
    temperature_half_life: int = 1_000_000

    def __post_init__(self) -> None:
        if self.temperature_threshold <= 0:
            raise ConfigError(
                f"temperature threshold must be > 0, got "
                f"{self.temperature_threshold}"
            )
        if self.temperature_half_life < 1:
            raise ConfigError(
                f"temperature half-life must be >= 1, got "
                f"{self.temperature_half_life}"
            )

    def label(self) -> str:
        """Short human-readable form for tables and manager names."""
        suffix = "+temp" if self.temperature else ""
        return self.policy.value + suffix


def sharing_config_for(variant: str) -> SharingConfig:
    """The :class:`SharingConfig` a policy-variant name denotes.

    Raises:
        ConfigError: for a name outside :data:`POLICY_VARIANTS`.
    """
    if variant not in POLICY_VARIANTS:
        raise ConfigError(
            f"unknown sharing policy {variant!r}; choose from "
            f"{', '.join(POLICY_VARIANTS)}"
        )
    if variant == "shared-persistent-temp":
        return SharingConfig(
            policy=SharingPolicy.SHARED_PERSISTENT, temperature=True
        )
    return SharingConfig(policy=SharingPolicy(variant))


class TemperatureTracker:
    """Per-trace reuse temperature with exponential decay.

    The tracker is lazy: temperatures decay only when observed, so the
    cost is one power per touch instead of a global sweep.
    """

    def __init__(self, threshold: float, half_life: int) -> None:
        if threshold <= 0:
            raise ConfigError(f"temperature threshold must be > 0, got {threshold}")
        if half_life < 1:
            raise ConfigError(f"temperature half-life must be >= 1, got {half_life}")
        self.threshold = threshold
        self.half_life = half_life
        self._state: dict[int, tuple[float, int]] = {}

    def observe(self, gid: int, time: int, count: int = 1) -> float:
        """Record *count* reuses of *gid* at *time*; returns the new
        temperature."""
        # _decayed inlined (every hit on a tracked group lands here),
        # with the same float expressions in the same order.
        state = self._state.get(gid)
        if state is None:
            value = 0.0
        else:
            value, last = state
            if time > last:
                value = value * 0.5 ** ((time - last) / self.half_life)
        value += count
        self._state[gid] = (value, time)
        return value

    def state_table(self) -> dict[int, tuple[float, int]]:
        """The live gid -> ``(temperature, last observed time)`` table,
        for hit handlers that inline :meth:`observe`; they must repeat
        its float expressions exactly."""
        return self._state

    def temperature(self, gid: int, time: int) -> float:
        """The decayed temperature of *gid* at *time* (0 if unseen)."""
        return self._decayed(gid, time)

    def is_hot(self, gid: int, time: int) -> bool:
        """True when *gid*'s decayed temperature reaches the threshold."""
        return self._decayed(gid, time) >= self.threshold

    def forget(self, gid: int) -> None:
        """Drop all state for *gid* (it left the system)."""
        self._state.pop(gid, None)

    def _decayed(self, gid: int, time: int) -> float:
        state = self._state.get(gid)
        if state is None:
            return 0.0
        value, last = state
        elapsed = max(0, time - last)
        if elapsed == 0:
            return value
        return value * 0.5 ** (elapsed / self.half_life)
