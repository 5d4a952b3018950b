"""Configuration of the generational cache architecture.

The evaluation sweeps two knobs (Section 6): the *proportions* of the
total budget given to nursery/probation/persistent, and the *promotion
threshold* coupled with how it is applied.  The paper's best layout is
45%-10%-45% with promotion on the first probation hit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError


class PromotionMode(enum.Enum):
    """When a probation trace is promoted to the persistent cache."""

    #: Promote as soon as its probation hit count reaches the
    #: threshold (Section 5.3: "allowing each hit in the probation
    #: cache to trigger an upgrade", threshold 1).
    ON_HIT = "on-hit"
    #: Promote only when evicted from probation, if its probation hit
    #: count exceeded the threshold by then (Figure 8's algorithm).
    ON_EVICTION = "on-eviction"


@dataclass(frozen=True)
class GenerationalConfig:
    """Sizing and promotion policy of a generational cache hierarchy.

    Attributes:
        nursery_fraction: Share of the total budget for the nursery.
        probation_fraction: Share for the probation cache.
        persistent_fraction: Share for the persistent cache.
        promotion_threshold: Probation hit count required to promote.
        promotion_mode: When the threshold is checked.
        local_policy: Name of the local policy class for each cache
            (a key of :data:`repro.policies.POLICIES`).
    """

    nursery_fraction: float = 0.45
    probation_fraction: float = 0.10
    persistent_fraction: float = 0.45
    promotion_threshold: int = 1
    promotion_mode: PromotionMode = PromotionMode.ON_HIT
    local_policy: str = "pseudo-circular"

    def __post_init__(self) -> None:
        fractions = (
            self.nursery_fraction,
            self.probation_fraction,
            self.persistent_fraction,
        )
        for fraction in fractions:
            if not 0.0 < fraction < 1.0:
                raise ConfigError(
                    f"cache fraction {fraction} must be strictly inside (0, 1)"
                )
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"cache fractions sum to {total}, expected 1.0")
        if self.promotion_threshold < 1:
            raise ConfigError(
                f"promotion threshold must be >= 1, got {self.promotion_threshold}"
            )

    def sizes(self, total_capacity: int) -> tuple[int, int, int]:
        """Split *total_capacity* bytes into the three cache sizes.

        The probation and persistent caches take their exact floors and
        the nursery absorbs the rounding remainder, so the three sizes
        always sum to *total_capacity*.
        """
        if total_capacity < 3:
            raise ConfigError(
                f"total capacity {total_capacity} cannot host three caches"
            )
        probation = max(1, int(total_capacity * self.probation_fraction))
        persistent = max(1, int(total_capacity * self.persistent_fraction))
        nursery = total_capacity - probation - persistent
        if nursery < 1:
            raise ConfigError(
                "rounding left no space for the nursery; increase capacity"
            )
        return nursery, probation, persistent

    def label(self) -> str:
        """Short label used in figures, e.g. ``"45-10-45 (thresh 1)"``."""
        return (
            f"{round(self.nursery_fraction * 100)}-"
            f"{round(self.probation_fraction * 100)}-"
            f"{round(self.persistent_fraction * 100)} "
            f"(thresh {self.promotion_threshold})"
        )


#: The three layouts compared in Figure 9 of the paper.
FIGURE9_CONFIGS: tuple[GenerationalConfig, ...] = (
    GenerationalConfig(
        nursery_fraction=0.34,
        probation_fraction=0.33,
        persistent_fraction=0.33,
        promotion_threshold=10,
        promotion_mode=PromotionMode.ON_EVICTION,
    ),
    GenerationalConfig(
        nursery_fraction=0.45,
        probation_fraction=0.10,
        persistent_fraction=0.45,
        promotion_threshold=1,
        promotion_mode=PromotionMode.ON_HIT,
    ),
    GenerationalConfig(
        nursery_fraction=0.25,
        probation_fraction=0.50,
        persistent_fraction=0.25,
        promotion_threshold=10,
        promotion_mode=PromotionMode.ON_EVICTION,
    ),
)

#: The paper's overall winner: 45-10-45 with single-hit promotion.
BEST_CONFIG: GenerationalConfig = FIGURE9_CONFIGS[1]

default_config = BEST_CONFIG
