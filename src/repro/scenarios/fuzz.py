"""Adversarial scenario search: where does one policy lose to another?

The paper argues generational management wins on average.  This module
searches for the workloads where it *doesn't*: a seeded fuzzer walks
profile space with the structured mutators from
:mod:`repro.scenarios.space` (phase storms, unmap storms, pure churn),
scoring each candidate by the **regret** of a victim policy against a
reference policy — the victim's miss rate minus the reference's at the
same capacity.  Positive regret means the victim loses.

Survivors above the regret threshold are **shrunk**: a deterministic
minimization pass reverts each searched parameter back toward its base
value while the regret stays above threshold, so the institutionalized
counterexample isolates the few dimensions that actually cause the
loss.  The shrinker is monotone — each accepted step only removes or
narrows differences from the base profile, never adds one, and never
drops the regret below the threshold.

Determinism: one :func:`repro.rand.substream` drives mutator and base
selection; candidate evaluation is seeded and flows through the
artifact cache, so the same ``fuzz(...)`` call always returns the
same counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cachesim.simulator import simulate_log
from repro.core.config import FIGURE9_CONFIGS, BEST_CONFIG, GenerationalConfig, PromotionMode
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.errors import ConfigError
from repro.fastpath.artifacts import cached_compiled
from repro.rand import substream
from repro.scenarios.space import (
    MUTATORS,
    SPECS_BY_NAME,
    build_profile,
    clamp_values,
    parameter_vector,
)
from repro.scenarios.targets import SCENARIO_TOTALS
from repro.workloads.catalog import get_profile
from repro.workloads.profiles import WorkloadProfile

#: Probation-dominant layout: almost everything sits in probation with
#: a high eviction-time threshold, approximating a probation-only
#: design (the fractions must stay strictly inside (0, 1)).
_PROBATION_ONLY = GenerationalConfig(
    nursery_fraction=0.05,
    probation_fraction=0.90,
    persistent_fraction=0.05,
    promotion_threshold=10,
    promotion_mode=PromotionMode.ON_EVICTION,
)

#: Named cache-manager factories the fuzzer can pit against each other.
#: Each maps a byte capacity to a fresh manager.
CONTENDERS: dict[str, Callable[[int], object]] = {
    "generational": lambda capacity: GenerationalCacheManager(capacity, BEST_CONFIG),
    "generational-balanced": lambda capacity: GenerationalCacheManager(
        capacity, FIGURE9_CONFIGS[0]
    ),
    "probation-only": lambda capacity: GenerationalCacheManager(
        capacity, _PROBATION_ONLY
    ),
    "unified": lambda capacity: UnifiedCacheManager(capacity),
    "flush-all": lambda capacity: UnifiedCacheManager(
        capacity, local_policy="preemptive-flush"
    ),
    "lru": lambda capacity: UnifiedCacheManager(capacity, local_policy="lru"),
}

#: Capacity pressure points where policies actually differ.
DEFAULT_FRACTIONS: tuple[float, ...] = (0.25, 0.5)

#: Default regret (miss-rate points, 0-1 scale) a candidate must reach
#: to count as a counterexample.
DEFAULT_MIN_REGRET = 0.01


def _resolve_contender(name: str) -> Callable[[int], object]:
    factory = CONTENDERS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown contender {name!r}; choose from {sorted(CONTENDERS)}"
        )
    return factory


@dataclass(frozen=True)
class Counterexample:
    """A minimized workload where *victim* loses to *reference*.

    Attributes:
        profile: The (shrunk) adversarial profile.
        victim: Contender name whose miss rate is higher.
        reference: Contender name it loses to.
        capacity_fraction: Capacity (as a fraction of the workload's
            trace volume) where the loss shows.
        regret: ``victim_miss - reference_miss`` at that capacity.
        victim_miss_rate: The victim's miss rate there.
        reference_miss_rate: The reference's miss rate there.
        seed: Synthesis seed of the adversarial log.
        scale: Synthesis scale divisor.
        mutators: Mutator names that produced the pre-shrink candidate.
        shrink_steps: Accepted shrinking steps (0 = already minimal).
    """

    profile: WorkloadProfile
    victim: str
    reference: str
    capacity_fraction: float
    regret: float
    victim_miss_rate: float
    reference_miss_rate: float
    seed: int
    scale: float
    mutators: tuple[str, ...]
    shrink_steps: int


@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one fuzzing campaign.

    Attributes:
        counterexamples: Minimized survivors, sorted by descending
            regret.
        rounds: Mutation rounds executed.
        candidates: Candidate profiles evaluated (pre-shrink).
        best_regret: Highest regret observed across all candidates,
            even below-threshold ones (diagnostic when nothing
            survives).
        victim: The victim contender name.
        reference: The reference contender name.
        seed: Master seed of the campaign.
        scale: Synthesis scale divisor.
        min_regret: Threshold survivors had to clear.
    """

    counterexamples: tuple[Counterexample, ...]
    rounds: int
    candidates: int
    best_regret: float
    victim: str
    reference: str
    seed: int
    scale: float
    min_regret: float


def regret_of(
    profile: WorkloadProfile,
    victim: str,
    reference: str,
    seed: int,
    scale: float,
    fraction: float,
) -> tuple[float, float, float]:
    """Measure the victim's regret on one workload at one capacity.

    Returns ``(regret, victim_miss, reference_miss)`` where regret is
    the victim's miss rate minus the reference's — positive when the
    victim loses.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"capacity fraction {fraction} outside (0, 1]")
    victim_factory = _resolve_contender(victim)
    reference_factory = _resolve_contender(reference)
    SCENARIO_TOTALS["evaluations"] += 1
    compiled = cached_compiled(profile, seed, scale)
    total_bytes = compiled.total_trace_bytes
    capacity = max(4096, int(total_bytes * fraction))
    victim_miss = simulate_log(compiled, victim_factory(capacity)).miss_rate
    reference_miss = simulate_log(compiled, reference_factory(capacity)).miss_rate
    return victim_miss - reference_miss, victim_miss, reference_miss


def _worst_fraction(
    profile: WorkloadProfile,
    victim: str,
    reference: str,
    seed: int,
    scale: float,
    fractions: tuple[float, ...],
) -> tuple[float, float, float, float]:
    """The capacity fraction maximizing regret, with its miss rates."""
    best = None
    for fraction in fractions:
        regret, victim_miss, reference_miss = regret_of(
            profile, victim, reference, seed, scale, fraction
        )
        if best is None or regret > best[1]:
            best = (fraction, regret, victim_miss, reference_miss)
    assert best is not None
    return best


def shrink(
    values: dict[str, float],
    base_values: dict[str, float],
    evaluate: Callable[[dict[str, float]], float],
    min_regret: float,
) -> tuple[dict[str, float], int]:
    """Minimize a counterexample vector against *base_values*.

    Two deterministic passes over the searched parameters in spec
    order: first try reverting each differing parameter fully to its
    base value, then try halving the remaining differences.  A step is
    accepted only if the regret stays at or above *min_regret*, so the
    result is monotone: the set of differing parameters never grows,
    each difference only narrows, and the final vector still clears
    the threshold.

    Returns the shrunk vector and the number of accepted steps.
    """
    current = dict(values)
    accepted = 0
    # Pass 1: full reverts.
    for name in sorted(SPECS_BY_NAME):
        if name not in current or current[name] == base_values.get(name):
            continue
        candidate = clamp_values({**current, name: base_values[name]})
        if candidate == current:
            continue
        if evaluate(candidate) >= min_regret:
            current = candidate
            accepted += 1
    # Pass 2: halve what still differs.
    for name in sorted(SPECS_BY_NAME):
        if name not in current or current[name] == base_values.get(name):
            continue
        spec = SPECS_BY_NAME[name]
        midpoint = spec.clamp((current[name] + base_values[name]) / 2.0)
        if midpoint == current[name]:
            continue
        candidate = clamp_values({**current, name: midpoint})
        if candidate == current:
            continue
        if evaluate(candidate) >= min_regret:
            current = candidate
            accepted += 1
    return current, accepted


def fuzz(
    victim: str = "generational",
    reference: str = "unified",
    seed: int = 42,
    scale: float = 64.0,
    rounds: int = 24,
    bases: tuple[str, ...] = ("word", "gcc"),
    min_regret: float = DEFAULT_MIN_REGRET,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    max_counterexamples: int = 4,
) -> FuzzResult:
    """Search for workloads where *victim* loses to *reference*.

    Each round picks a base profile and a pipeline of one or two
    structured mutators, evaluates the mutant's regret at every
    capacity pressure point, and shrinks any candidate clearing
    *min_regret*.  Shrunk survivors are deduplicated (two rounds can
    shrink to the same point) and returned sorted by descending
    regret.

    Raises:
        ConfigError: on unknown contenders or base profiles, equal
            victim and reference, or a non-positive round count.
    """
    _resolve_contender(victim)
    _resolve_contender(reference)
    if victim == reference:
        raise ConfigError("victim and reference contenders must differ")
    if rounds < 1:
        raise ConfigError(f"fuzz rounds must be >= 1, got {rounds}")
    if min_regret <= 0:
        raise ConfigError(f"min_regret must be positive, got {min_regret}")
    if not bases:
        raise ConfigError("fuzz needs at least one base profile")
    base_profiles = [get_profile(name) for name in bases]

    rng = substream(seed, "scenarios.fuzz")
    mutator_names = sorted(MUTATORS)
    seen: set[tuple] = set()
    survivors: list[Counterexample] = []
    best_regret = float("-inf")
    candidates = 0

    for round_index in range(rounds):
        base = base_profiles[rng.randrange(len(base_profiles))]
        base_values = clamp_values(parameter_vector(base))
        applied: list[str] = []
        values = dict(base_values)
        for _ in range(rng.randint(1, 2)):
            name = mutator_names[rng.randrange(len(mutator_names))]
            applied.append(name)
            values = MUTATORS[name](values, rng)
        candidates += 1
        candidate = build_profile(
            base, values, name=f"fuzz-{victim}-r{round_index}"
        )
        fraction, regret, victim_miss, reference_miss = _worst_fraction(
            candidate, victim, reference, seed, scale, fractions
        )
        best_regret = max(best_regret, regret)
        if regret < min_regret:
            continue

        def evaluate(vector: dict[str, float]) -> float:
            shrunk = build_profile(base, vector, name=candidate.name)
            shrunk_regret, _, _ = regret_of(
                shrunk, victim, reference, seed, scale, fraction
            )
            return shrunk_regret

        shrunk_values, steps = shrink(values, base_values, evaluate, min_regret)
        key = tuple(sorted((k, round(v, 9)) for k, v in shrunk_values.items()))
        if key in seen:
            continue
        seen.add(key)
        final_regret, final_victim, final_reference = regret_of(
            build_profile(base, shrunk_values, name=candidate.name),
            victim,
            reference,
            seed,
            scale,
            fraction,
        )
        survivors.append(
            Counterexample(
                profile=build_profile(
                    base, shrunk_values, name=f"fuzz-{victim}-r{round_index}"
                ),
                victim=victim,
                reference=reference,
                capacity_fraction=fraction,
                regret=final_regret,
                victim_miss_rate=final_victim,
                reference_miss_rate=final_reference,
                seed=seed,
                scale=scale,
                mutators=tuple(applied),
                shrink_steps=steps,
            )
        )
        if len(survivors) >= max_counterexamples:
            break

    survivors.sort(key=lambda cx: (-cx.regret, cx.profile.name))
    return FuzzResult(
        counterexamples=tuple(survivors),
        rounds=rounds,
        candidates=candidates,
        best_regret=best_regret if candidates else 0.0,
        victim=victim,
        reference=reference,
        seed=seed,
        scale=scale,
        min_regret=min_regret,
    )
