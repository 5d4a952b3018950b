"""Target statistics and the calibration objective.

Inverse synthesis needs two things: a cheap way to *measure* what a
candidate profile actually produces, and a distance between that
measurement and the target.  The measurement reuses the fastpath
artifact cache, so re-evaluating a candidate the search has visited
before (or one sharing a synthesized log with an earlier run) costs a
few columnar ``frombytes`` calls instead of a full synthesis.

A :class:`WorkloadStatistics` bundles the four statistics the search
fits:

* the **miss-rate-vs-capacity curve** of a unified cache probed at
  :data:`CAPACITY_FRACTIONS` of the workload's own trace volume;
* the Figure 6 **trace-lifetime histogram** (five buckets, percent);
* the **insertion rate** in KB/s;
* the **unmapped fraction** of trace bytes.

:func:`objective` folds the per-statistic distances into one weighted
scalar; the weights make the miss curve dominate (it is the statistic
cache-management papers actually report) with the others acting as
regularizers that keep the recovered profile physically plausible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.simulator import simulate_log
from repro.core.unified import UnifiedCacheManager
from repro.errors import ConfigError
from repro.fastpath.artifacts import cached_compiled, get_cache
from repro.metrics.lifetimes import BUCKET_LABELS, LifetimeHistogram
from repro.tracelog.stats import summarize_log
from repro.units import KB
from repro.workloads.profiles import WorkloadProfile

#: Capacity probe points, as fractions of the workload's own unbounded
#: cache size.  The low end is where policies differ most (Figure 9's
#: regime); 0.75 anchors the near-unbounded tail.
CAPACITY_FRACTIONS: tuple[float, ...] = (0.125, 0.25, 0.5, 0.75)

#: Documented convergence tolerance for round-trip calibration: the
#: recovered profile's miss curve must sit within this mean absolute
#: distance (in miss-rate points, 0-1 scale) of the target curve.
ROUND_TRIP_TOLERANCE = 0.05

#: Relative weight of each objective component.
OBJECTIVE_WEIGHTS: dict[str, float] = {
    "miss_curve": 1.0,
    "lifetimes": 0.5,
    "insertion_rate": 0.25,
    "unmap_fraction": 0.25,
}

#: Process-wide counters (mirrors ``ARTIFACT_TOTALS``): how many
#: candidate evaluations ran, and how many replayed a memoized result
#: inside one search.
SCENARIO_TOTALS = {
    "evaluations": 0,
    "memo_hits": 0,
}


@dataclass(frozen=True)
class WorkloadStatistics:
    """The measured fingerprint of one (profile, seed, scale).

    Attributes:
        capacity_fractions: Probe points of the miss curve.
        miss_curve: Unified-cache miss rate (0-1) at each probe point.
        lifetime_fractions: Percent of traces per Figure 6 bucket.
        insertion_rate_kb_s: Trace generation rate in KB/s.
        unmap_fraction: Fraction of trace bytes dying to module unmaps.
    """

    capacity_fractions: tuple[float, ...]
    miss_curve: tuple[float, ...]
    lifetime_fractions: tuple[float, ...]
    insertion_rate_kb_s: float
    unmap_fraction: float

    def __post_init__(self) -> None:
        if len(self.capacity_fractions) != len(self.miss_curve):
            raise ConfigError(
                f"miss curve has {len(self.miss_curve)} points for "
                f"{len(self.capacity_fractions)} capacity fractions"
            )
        if len(self.lifetime_fractions) != len(BUCKET_LABELS):
            raise ConfigError(
                f"lifetime histogram needs {len(BUCKET_LABELS)} buckets, "
                f"got {len(self.lifetime_fractions)}"
            )

    def to_dict(self) -> dict:
        return {
            "capacity_fractions": list(self.capacity_fractions),
            "miss_curve": list(self.miss_curve),
            "lifetime_fractions": list(self.lifetime_fractions),
            "insertion_rate_kb_s": self.insertion_rate_kb_s,
            "unmap_fraction": self.unmap_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadStatistics":
        if not isinstance(data, dict):
            raise ConfigError(f"workload statistics must be a mapping, got {type(data).__name__}")
        missing = {
            "capacity_fractions",
            "miss_curve",
            "lifetime_fractions",
            "insertion_rate_kb_s",
            "unmap_fraction",
        } - set(data)
        if missing:
            raise ConfigError(
                f"workload statistics missing fields: {sorted(missing)}"
            )
        try:
            return cls(
                capacity_fractions=tuple(float(f) for f in data["capacity_fractions"]),
                miss_curve=tuple(float(m) for m in data["miss_curve"]),
                lifetime_fractions=tuple(float(p) for p in data["lifetime_fractions"]),
                insertion_rate_kb_s=float(data["insertion_rate_kb_s"]),
                unmap_fraction=float(data["unmap_fraction"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed workload statistics: {exc}") from exc


@dataclass(frozen=True)
class ScenarioTarget:
    """What a calibration run is asked to reproduce.

    Attributes:
        name: Label for the target (used in artifact provenance).
        statistics: The fingerprint to match.
        weights: Objective component weights (defaults to
            :data:`OBJECTIVE_WEIGHTS`).
    """

    name: str
    statistics: WorkloadStatistics
    weights: tuple[tuple[str, float], ...] = tuple(
        sorted(OBJECTIVE_WEIGHTS.items())
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario target name must be non-empty")
        known = set(OBJECTIVE_WEIGHTS)
        for key, weight in self.weights:
            if key not in known:
                raise ConfigError(
                    f"unknown objective component {key!r}; choose from "
                    f"{sorted(known)}"
                )
            if weight < 0:
                raise ConfigError(
                    f"objective weight {key}={weight} must be non-negative"
                )

    @property
    def weight_map(self) -> dict[str, float]:
        merged = dict(OBJECTIVE_WEIGHTS)
        merged.update(dict(self.weights))
        return merged

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistics": self.statistics.to_dict(),
            "weights": {key: weight for key, weight in self.weights},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioTarget":
        if not isinstance(data, dict):
            raise ConfigError(f"scenario target must be a mapping, got {type(data).__name__}")
        if "statistics" not in data or "name" not in data:
            raise ConfigError("scenario target needs 'name' and 'statistics'")
        weights = data.get("weights", OBJECTIVE_WEIGHTS)
        if not isinstance(weights, dict):
            raise ConfigError("scenario target 'weights' must be a mapping")
        try:
            pairs = tuple(sorted((str(k), float(v)) for k, v in weights.items()))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed target weights: {exc}") from exc
        return cls(
            name=str(data["name"]),
            statistics=WorkloadStatistics.from_dict(data["statistics"]),
            weights=pairs,
        )


def measure_profile(
    profile: WorkloadProfile,
    seed: int,
    scale: float,
    fractions: tuple[float, ...] = CAPACITY_FRACTIONS,
) -> WorkloadStatistics:
    """Synthesize (through the artifact cache) and fingerprint one
    candidate profile."""
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(
                f"capacity fraction {fraction} outside (0, 1]"
            )
    SCENARIO_TOTALS["evaluations"] += 1
    compiled = cached_compiled(profile, seed, scale)
    store = get_cache()
    if store is None:
        stats = summarize_log(compiled)
    else:
        stats = store.log_stats(
            profile, seed, scale, lambda: summarize_log(compiled)
        )
    histogram = LifetimeHistogram(stats.benchmark, stats.lifetime_buckets)
    curve = []
    for fraction in fractions:
        capacity = max(4096, int(stats.total_trace_bytes * fraction))
        result = simulate_log(compiled, UnifiedCacheManager(capacity))
        curve.append(result.miss_rate)
    return WorkloadStatistics(
        capacity_fractions=tuple(fractions),
        miss_curve=tuple(curve),
        lifetime_fractions=histogram.fractions,
        insertion_rate_kb_s=stats.insertion_rate_bytes_per_second / KB,
        unmap_fraction=stats.unmapped_fraction,
    )


def target_from_profile(
    profile: WorkloadProfile,
    seed: int,
    scale: float,
    fractions: tuple[float, ...] = CAPACITY_FRACTIONS,
    name: str | None = None,
) -> ScenarioTarget:
    """Fingerprint *profile* and wrap it as a calibration target (the
    round-trip tests and the bundled example targets use this)."""
    return ScenarioTarget(
        name=name if name is not None else profile.name,
        statistics=measure_profile(profile, seed, scale, fractions),
    )


def _mean_abs(xs: tuple[float, ...], ys: tuple[float, ...]) -> float:
    return sum(abs(x - y) for x, y in zip(xs, ys)) / max(1, len(xs))


def objective(
    target: ScenarioTarget, measured: WorkloadStatistics
) -> tuple[float, dict[str, float]]:
    """Weighted distance between *measured* and the target fingerprint.

    Returns ``(total, components)`` where every component is
    normalized to [0, 1]-ish scale before weighting:

    * ``miss_curve`` — mean absolute miss-rate gap across the probe
      points (already 0-1);
    * ``lifetimes`` — mean absolute bucket gap, percent scaled to 0-1;
    * ``insertion_rate`` — relative rate gap, capped at 1;
    * ``unmap_fraction`` — absolute gap (already 0-1).
    """
    want = target.statistics
    if want.capacity_fractions != measured.capacity_fractions:
        raise ConfigError(
            f"measured curve probes {measured.capacity_fractions} do not "
            f"match target probes {want.capacity_fractions}"
        )
    rate_base = max(want.insertion_rate_kb_s, 1e-9)
    components = {
        "miss_curve": _mean_abs(want.miss_curve, measured.miss_curve),
        "lifetimes": _mean_abs(
            want.lifetime_fractions, measured.lifetime_fractions
        )
        / 100.0,
        "insertion_rate": min(
            1.0,
            abs(measured.insertion_rate_kb_s - want.insertion_rate_kb_s)
            / rate_base,
        ),
        "unmap_fraction": abs(
            measured.unmap_fraction - want.unmap_fraction
        ),
    }
    weights = target.weight_map
    total = sum(weights[key] * value for key, value in sorted(components.items()))
    return total, components
