"""Workload dataset: synthesized logs shared across experiments.

Mirrors the paper's methodology — one recorded verbose log per
benchmark, reused by every characterization metric and every cache
configuration.  Logs are synthesized lazily and memoized per
(benchmark, seed, scale).

Logs are synthesized straight into packed columns and kept only in
that form: every experiment, the headroom oracle and the reuse table
included, reads the columns.  Both derived artifacts — the compiled
log and the summary statistics — are additionally memoized on disk
through the content-addressed store in :mod:`repro.fastpath.artifacts`,
so a warm process (or a warm machine) never re-synthesizes a log it
has seen before.
"""

from __future__ import annotations

from repro.fastpath import CompiledTraceLog
from repro.fastpath.artifacts import cached_compiled, get_cache
from repro.tracelog.stats import LogStatistics, summarize_log
from repro.workloads.catalog import get_profile, profiles_for_suite
from repro.workloads.profiles import WorkloadProfile


class WorkloadDataset:
    """Lazily synthesized, memoized benchmark logs.

    Args:
        seed: Master seed shared by all benchmarks.
        scale_multiplier: Extra divisor applied on top of each
            profile's ``default_scale`` (benchmark harnesses use > 1
            to keep runtimes short; experiments report it).
        subset: Restrict to these benchmark names (None = all 38).
        suites: Restrict to ``("spec",)``, ``("interactive",)`` or
            both.
    """

    def __init__(
        self,
        seed: int = 42,
        scale_multiplier: float = 1.0,
        subset: list[str] | None = None,
        suites: tuple[str, ...] = ("spec", "interactive"),
    ) -> None:
        self.seed = seed
        self.scale_multiplier = scale_multiplier
        self._compiled: dict[str, CompiledTraceLog] = {}
        self._stats: dict[str, LogStatistics] = {}
        if subset is not None:
            self.profiles: tuple[WorkloadProfile, ...] = tuple(
                get_profile(name) for name in subset
            )
        else:
            selected = []
            for suite in suites:
                selected.extend(profiles_for_suite(suite))
            self.profiles = tuple(selected)

    @property
    def names(self) -> list[str]:
        """Benchmark names in catalog order."""
        return [p.name for p in self.profiles]

    def profile(self, name: str) -> WorkloadProfile:
        """Profile for one benchmark in this dataset."""
        for candidate in self.profiles:
            if candidate.name == name:
                return candidate
        raise KeyError(f"benchmark {name!r} not in this dataset")

    def _scale(self, profile: WorkloadProfile) -> float:
        return profile.default_scale * self.scale_multiplier

    def compiled(self, name: str) -> CompiledTraceLog:
        """The (memoized, artifact-backed) compiled log for one
        benchmark — what replay and characterization consume."""
        if name not in self._compiled:
            profile = self.profile(name)
            self._compiled[name] = cached_compiled(
                profile, self.seed, self._scale(profile)
            )
        return self._compiled[name]

    def stats(self, name: str) -> LogStatistics:
        """Memoized, artifact-backed summary statistics of one
        benchmark's log."""
        if name not in self._stats:
            store = get_cache()
            if store is not None:
                profile = self.profile(name)
                self._stats[name] = store.log_stats(
                    profile,
                    self.seed,
                    self._scale(profile),
                    lambda: summarize_log(self.compiled(name)),
                )
            else:
                self._stats[name] = summarize_log(self.compiled(name))
        return self._stats[name]

    def scale_note(self) -> str:
        """Standard note describing the scale this dataset ran at."""
        return (
            f"synthetic logs at per-profile default scale x "
            f"{self.scale_multiplier:g} (seed {self.seed}); sizes are "
            "model bytes, shapes comparable to the paper"
        )


def quick_subset() -> list[str]:
    """A representative 8-benchmark subset for fast harness runs."""
    return ["gzip", "crafty", "eon", "art", "mcf", "word", "iexplore", "solitaire"]
