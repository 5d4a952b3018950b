"""Direct trace-log synthesis from a workload profile.

This is the log source of the evaluation harness: instead of
simulating a program whose optimizer would emit the log, it plans the
trace population and its access timeline analytically and emits the
verbose log directly — rendered straight into packed columns
(:func:`synthesize_compiled`), with record objects only for callers
that ask for them (:func:`synthesize_log`).  The resulting log matches
the profile's calibrated aggregates:

* total trace bytes == the profile's (scaled) unbounded cache size;
* insertion rate == size / duration by construction;
* unmapped byte fraction ~= the profile's target (short-lived traces
  are assigned to per-phase DLL modules that unmap at phase end);
* lifetimes fall in the profile's mix of Figure 6 buckets.

The *behavioural* structure mirrors how the paper describes its
applications: a persistent hot core created at startup and re-entered
throughout (hot long-lived traces), rarely-touched long-lived code
(cool long-lived traces whose lifetime is long but whose re-access
gaps defeat any bounded cache), phase-local handler code (short-lived
bursts per user event / program phase), and medium-lived traces that
span a few phases — the population whose promotion traffic can outweigh
its miss savings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import WorkloadError
from repro.fastpath import (
    OP_ACCESS,
    OP_CREATE,
    OP_END,
    OP_PIN,
    OP_UNMAP,
    OP_UNPIN,
    CompiledTraceLog,
    pack_columns,
)
from repro.rand import Random, RandomStreams
from repro.tracelog.records import TraceLog
from repro.workloads.profiles import WorkloadProfile

#: Virtual instructions per second of recorded wall-clock time.
INSTRUCTIONS_PER_SECOND = 1_000_000

#: Main executable module id; per-phase DLLs are numbered from here.
MAIN_MODULE = 0
DLL_MODULE_BASE = 100

#: Fraction of long-lived traces that form the *hot* persistent core
#: (re-entered every phase); the rest are cool: long lifetime, long
#: re-access gaps.  Sized so a typical mix's hot-core bytes fit inside
#: a 45% persistent cache of a half-footprint budget.
HOT_LONG_FRACTION = 0.5

#: Sort ranks making same-timestamp records unambiguous; a row's sort
#: key is ``time * _RANKS + rank``.
_RANK_CREATE = 0
_RANK_PIN = 1
_RANK_ACCESS = 2
_RANK_UNPIN = 3
_RANK_UNMAP = 4
_RANKS = 5


@dataclass
class _Planned:
    """One trace's planned existence."""

    trace_id: int
    size: int
    module_id: int
    category: str
    t_create: int
    accesses: list[tuple[int, int]] = field(default_factory=list)  # (time, repeat)


def _draw_sizes(rng: Random, count: int, median: int, total: int) -> list[int]:
    """Draw *count* lognormal sizes around *median* and rescale so they
    sum to *total* bytes."""
    if count <= 0:
        return []
    raw = [median * math.exp(rng.gauss(0.0, 0.55)) for _ in range(count)]
    raw = [min(max(s, 48.0), 2048.0) for s in raw]
    factor = total / sum(raw)
    sizes = [max(32, int(s * factor)) for s in raw]
    # Push the rounding drift onto the largest trace so totals match.
    drift = total - sum(sizes)
    sizes[sizes.index(max(sizes))] += drift
    return [max(32, s) for s in sizes]


def _geometric(rng: Random, mean: float) -> int:
    """Draw a positive integer with the given mean (geometric)."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    count = 1
    while rng.random() > p and count < 64 * mean:
        count += 1
    return count


def _spread(rng: Random, n: int, lo: int, hi: int) -> list[int]:
    """n sorted random times in [lo, hi] (inclusive-ish)."""
    if hi <= lo:
        return [lo] * n
    return sorted(rng.randint(lo, hi) for _ in range(n))


class _LogPlan:
    """Accumulates planned traces and non-trace records, then renders
    the final, time-sorted log."""

    def __init__(self, profile: WorkloadProfile, total_bytes: int) -> None:
        self.profile = profile
        self.total_bytes = total_bytes
        self.end_time = int(profile.duration_seconds * INSTRUCTIONS_PER_SECOND)
        self.phase_len = max(1, self.end_time // profile.n_phases)
        self.traces: list[_Planned] = []
        self.unmaps: list[tuple[int, int]] = []  # (time, module_id)
        self.pins: list[tuple[int, int, int]] = []  # (t_pin, t_unpin, trace)

    def phase_bounds(self, phase: int) -> tuple[int, int]:
        start = phase * self.phase_len
        end = min(self.end_time, start + self.phase_len)
        return start, max(start + 1, end)

    def render(self) -> CompiledTraceLog:
        """Render the time-sorted log straight into packed columns.

        Each row is ``(key, op, time, trace_id, size, module, repeat)``
        with ``key = time * _RANKS + rank``.  Rows are pushed trace by
        trace, and the sort is stable, so rows with equal keys keep
        their push order.
        """
        rows: list[tuple[int, int, int, int, int, int, int]] = []
        push = rows.append
        extend = rows.extend
        for planned in self.traces:
            trace_id = planned.trace_id
            time = planned.t_create
            push((
                time * _RANKS + _RANK_CREATE, OP_CREATE, time, trace_id,
                planned.size, planned.module_id, 0,
            ))
            extend([
                (time * _RANKS + _RANK_ACCESS, OP_ACCESS, time, trace_id,
                 0, 0, repeat)
                for time, repeat in planned.accesses
            ])
        for time, module_id in self.unmaps:
            push((
                time * _RANKS + _RANK_UNMAP, OP_UNMAP, time, 0, 0, module_id, 0,
            ))
        for t_pin, t_unpin, trace_id in self.pins:
            push((
                t_pin * _RANKS + _RANK_PIN, OP_PIN, t_pin, trace_id, 0, 0, 0,
            ))
            push((
                t_unpin * _RANKS + _RANK_UNPIN, OP_UNPIN, t_unpin, trace_id,
                0, 0, 0,
            ))
        rows.sort(key=itemgetter(0))
        # The end marker always goes last, so it joins after the sort.
        push((0, OP_END, self.end_time, 0, 0, 0, 0))
        _, *columns = zip(*rows)
        # The footprint scales with the trace bytes so Equation 1 stays
        # invariant under simulation scaling.
        footprint = max(1, int(self.total_bytes / self.profile.code_expansion))
        return pack_columns(
            self.profile.name, self.profile.duration_seconds, footprint, columns
        )


def plan_workload(
    profile: WorkloadProfile,
    seed: int = 0,
    scale: float | None = None,
) -> _LogPlan:
    """Plan (but do not render) one benchmark's trace population.

    Exposed so tests and diagnostics can inspect per-trace categories
    and timings; normal callers use :func:`synthesize_compiled`.
    """
    streams = RandomStreams(seed).fork(profile.name)
    total_bytes = profile.scaled_trace_bytes(scale)
    plan = _LogPlan(profile, total_bytes)

    mix = profile.lifetime_mix
    n_total = max(8, total_bytes // profile.median_trace_bytes)
    n_long = max(1, round(n_total * mix.long)) if mix.long > 0 else 0
    n_medium = max(0, round(n_total * mix.medium))
    n_short = max(0, n_total - n_long - n_medium)
    if n_short == 0 and mix.short > 0:
        n_short = 1

    size_rng = streams.get("sizes")
    sizes = _draw_sizes(
        size_rng, n_long + n_medium + n_short, profile.median_trace_bytes, total_bytes
    )
    next_id = 0

    def take_trace(size: int, module: int, category: str, t_create: int) -> _Planned:
        nonlocal next_id
        planned = _Planned(
            trace_id=next_id,
            size=size,
            module_id=module,
            category=category,
            t_create=t_create,
        )
        next_id += 1
        plan.traces.append(planned)
        return planned

    _plan_long_traces(plan, streams, sizes[:n_long], take_trace)
    _plan_medium_traces(
        plan, streams, sizes[n_long : n_long + n_medium], take_trace
    )
    _plan_short_traces(plan, streams, sizes[n_long + n_medium :], take_trace)
    _plan_pins(plan, streams)
    return plan


def synthesize_compiled(
    profile: WorkloadProfile,
    seed: int = 0,
    scale: float | None = None,
) -> CompiledTraceLog:
    """Synthesize the verbose trace log for one benchmark, packed.

    Args:
        profile: The calibrated benchmark profile.
        seed: Master seed; the log is deterministic given (profile,
            seed, scale).
        scale: Trace-count divisor; defaults to the profile's
            ``default_scale``.

    Returns:
        A validated, time-ordered :class:`~repro.fastpath.CompiledTraceLog`.
    """
    compiled = plan_workload(profile, seed=seed, scale=scale).render()
    compiled.validate()
    return compiled


def synthesize_log(
    profile: WorkloadProfile,
    seed: int = 0,
    scale: float | None = None,
) -> TraceLog:
    """:func:`synthesize_compiled` as record objects, for callers that
    read records one by one (the object-path oracles and their tests)."""
    return synthesize_compiled(profile, seed=seed, scale=scale).decompile()


# ----------------------------------------------------------------------
# Per-category planners
# ----------------------------------------------------------------------


def _plan_long_traces(plan: _LogPlan, streams, sizes: list[int], take) -> None:
    """Long-lived traces: lifetime > 80% of the run.

    The *hot* subset is the persistent core — re-entered a couple of
    times every phase, exactly the population the persistent cache is
    meant to shelter from nursery churn.  The *cool* subset is touched
    in only a few scattered phases (plus once near the end), giving it
    a long lifetime but re-access gaps no bounded cache of half the
    footprint can cover.
    """
    rng = streams.get("long")
    profile = plan.profile
    n_hot = round(len(sizes) * HOT_LONG_FRACTION)
    # A hot loop is re-entered constantly; what matters to the cache
    # simulation is that its re-entry gap stays well inside even a
    # small probation cache's residency window.  Density is graded
    # (lognormal around the profile's target) the way real hot sets
    # are: the hottest traces re-enter an order of magnitude more
    # often than the coolest members of the core.
    total_records = max(2 * profile.n_phases, profile.hot_records)
    for index, size in enumerate(sizes):
        t_create = rng.randint(0, max(1, plan.end_time // 50))
        planned = take(size, MAIN_MODULE, "long", t_create)
        hot = index < n_hot
        if hot:
            n_records = max(6, int(total_records * math.exp(rng.gauss(0.0, 0.5))))
            per_entry = max(
                1.0, profile.reaccess_long * profile.n_phases / n_records
            )
            for time in _spread(
                rng, n_records, t_create + 1, max(t_create + 2, plan.end_time - 2)
            ):
                planned.accesses.append((time, _geometric(rng, per_entry)))
            # Pin the lifetime above 80%: one entry just before the end.
            tail = rng.randint(int(plan.end_time * 0.96), plan.end_time - 1)
            planned.accesses.append(
                (max(tail, t_create + 1), _geometric(rng, per_entry))
            )
        else:
            # Cool: scattered touches plus one near the end to pin the
            # lifetime above 80%.  The gaps between touches exceed any
            # bounded cache's residency, so every touch is a conflict
            # miss everywhere — this regeneration traffic is what keeps
            # the FIFO pointer sweeping (and blindly evicting the hot
            # core) in the unified cache.
            n_touch = rng.randint(4, 6)
            for time in _spread(
                rng, n_touch, t_create + 1, max(t_create + 2, plan.end_time - 2)
            ):
                planned.accesses.append((time, _geometric(rng, profile.burst_repeat)))
            tail = rng.randint(
                int(plan.end_time * 0.92), max(1, plan.end_time - 1)
            )
            planned.accesses.append(
                (max(tail, t_create + 1), _geometric(rng, profile.burst_repeat))
            )
        planned.accesses.sort()


def _plan_medium_traces(plan: _LogPlan, streams, sizes: list[int], take) -> None:
    """Medium-lived traces: windows of 25-70% of the run, re-entered
    steadily — they live long enough to win promotion but die before
    it amortizes (the eon/vpr/applu failure mode)."""
    rng = streams.get("medium")
    profile = plan.profile
    for size in sizes:
        window = int(plan.end_time * rng.uniform(0.25, 0.70))
        t_create = rng.randint(0, max(1, plan.end_time - window - 1))
        planned = take(size, MAIN_MODULE, "medium", t_create)
        n_records = max(3, int(profile.reaccess_short * 0.3))
        for time in _spread(
            rng, n_records, t_create + 1, t_create + window
        ):
            planned.accesses.append((time, _geometric(rng, profile.burst_repeat)))
        planned.accesses.sort()


def _plan_short_traces(plan: _LogPlan, streams, sizes: list[int], take) -> None:
    """Short-lived traces: phase-local handler code, lifetime < 20%.

    Interactive suites spread them across phases (every user event
    spawns handlers) and assign a calibrated fraction to per-phase DLL
    modules that unmap at phase end; SPEC concentrates them toward
    startup (initialization code) and never unmaps.
    """
    rng = streams.get("short")
    profile = plan.profile
    n_phases = profile.n_phases
    interactive = profile.suite == "interactive"

    if interactive:
        phase_weights = [1.0] * n_phases
    else:
        phase_weights = [1.0 / (p + 1.0) for p in range(n_phases)]
    total_weight = sum(phase_weights)
    short_bytes = sum(sizes)
    dll_probability = 0.0
    if interactive and short_bytes > 0 and profile.unmap_fraction > 0:
        dll_probability = min(
            0.95, profile.unmap_fraction * plan.total_bytes / short_bytes
        )

    dll_used: set[int] = set()
    # Short-lived handler code dies fast — well within its phase.  The
    # window must be clearly shorter than the nursery residency so a
    # dead short trace earns no probation hit (the property that makes
    # single-hit promotion a good filter, Section 6.1).
    max_window = int(plan.end_time * 0.15)
    for size in sizes:
        pick = rng.random() * total_weight
        phase = 0
        acc = 0.0
        for index, weight in enumerate(phase_weights):
            acc += weight
            if pick < acc:
                phase = index
                break
        start, end = plan.phase_bounds(phase)
        t_create = rng.randint(start, max(start, end - 2))
        in_dll = rng.random() < dll_probability
        module = DLL_MODULE_BASE + phase if in_dll else MAIN_MODULE
        # Interactive handlers are often reused across a couple of user
        # actions before being abandoned, so their windows can span
        # phase boundaries; SPEC transients die within their phase.
        if interactive:
            window = int(rng.uniform(0.3, 1.0) * plan.phase_len)
        else:
            window = int(rng.uniform(0.15, 0.7) * plan.phase_len)
        window = min(window, max_window)
        if in_dll:
            dll_used.add(phase)
            # Must die before the phase-end unmap.
            window_end = min(end - 1, t_create + max(1, window))
        else:
            window_end = min(plan.end_time - 1, t_create + max(1, window))
        window_end = max(window_end, t_create + 1)
        planned = take(size, module, "short", t_create)
        n_records = _geometric(rng, profile.reaccess_short / 2.0)
        for time in _spread(rng, n_records, t_create + 1, window_end):
            planned.accesses.append((time, _geometric(rng, profile.burst_repeat)))
        planned.accesses.sort()

    for phase in sorted(dll_used):
        _, end = plan.phase_bounds(phase)
        plan.unmaps.append((end, DLL_MODULE_BASE + phase))


def _plan_pins(plan: _LogPlan, streams) -> None:
    """Pick a few traces to pin (exceptions in flight, Section 4.2)."""
    rng = streams.get("pins")
    profile = plan.profile
    candidates = [p for p in plan.traces if p.accesses and p.category == "long"]
    n_pins = int(len(plan.traces) * profile.pin_fraction)
    if not candidates or n_pins == 0:
        return
    hold = max(1, int(plan.end_time * 0.02))
    for planned in rng.sample(candidates, min(n_pins, len(candidates))):
        time, _ = rng.choice(planned.accesses)
        t_unpin = min(plan.end_time - 1, time + hold)
        if t_unpin > time:
            plan.pins.append((time, t_unpin, planned.trace_id))
