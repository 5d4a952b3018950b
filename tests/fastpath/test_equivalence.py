"""Object path vs compiled fast path: byte-identical results.

Every policy, both manager families, every generational promotion
config, and a set of adversarial logs must replay identically on the
object path and on the batched loop — the full
:class:`~repro.cachesim.stats.SimulationResult`, including the
float-accumulated overhead instruction totals (``==``, not isclose:
the fast path charges effects in the same order, so the floats match
bit for bit).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cachesim.simulator import CacheSimulator
from repro.core.config import FIGURE9_CONFIGS, GenerationalConfig, PromotionMode
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.fastpath import (
    FASTPATH_TOTALS,
    compile_log,
    disable_fastpath,
    enable_fastpath,
    fastpath_enabled,
    object_path,
)
from repro.overhead.model import TABLE2_COSTS
from repro.policies import POLICIES
from repro.tracelog.records import (
    EndOfLog,
    ModuleUnmap,
    TraceAccess,
    TraceCreate,
    TraceLog,
    TracePin,
    TraceUnpin,
)
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_log

GENERATIONAL_CONFIGS = FIGURE9_CONFIGS + (
    GenerationalConfig(
        promotion_mode=PromotionMode.ON_HIT, promotion_threshold=5
    ),
    GenerationalConfig(
        nursery_fraction=0.2,
        probation_fraction=0.4,
        persistent_fraction=0.4,
        promotion_mode=PromotionMode.ON_EVICTION,
        promotion_threshold=25,
    ),
    GenerationalConfig(
        promotion_mode=PromotionMode.ON_HIT,
        promotion_threshold=2,
        local_policy="lru",
    ),
)

#: word exercises unmaps and pins; gzip is a pure SPEC loop shape.
#: scale is a trace-count divisor; these keep each log around a few
#: thousand records so the ~30-case cross product stays fast — the
#: benchmarks cover evaluation-scale logs.
LOGS = {
    "gzip": synthesize_log(get_profile("gzip"), seed=9, scale=8.0),
    "word": synthesize_log(get_profile("word"), seed=9, scale=64.0),
}


def _runs_log() -> TraceLog:
    """Long access runs over a handful of traces, split by an unmap,
    with stray records after EndOfLog that replay must never reach."""
    log = TraceLog(benchmark="runs", duration_seconds=1.0, code_footprint=4096)
    t = 0
    for tid in range(4):
        t += 1
        log.append(
            TraceCreate(time=t, trace_id=tid, size=100 + tid, module_id=tid % 2)
        )
    for k in range(20):
        t += 1
        log.append(TraceAccess(time=t, trace_id=k % 4, repeat=1 + k % 3))
    t += 1
    log.append(ModuleUnmap(time=t, module_id=1))
    for k in range(6):
        t += 1
        log.append(TraceAccess(time=t, trace_id=2 * (k % 2), repeat=1))
    log.append(EndOfLog(time=t + 1))
    log.records.append(TraceAccess(time=t + 2, trace_id=0, repeat=5))
    return log


def _storm_log() -> TraceLog:
    """Unmap storm: every round unmaps a module out from under the hot
    working set, so the next round's accesses miss and regenerate.
    Each round pins a fresh trace and unpins it again."""
    log = TraceLog(benchmark="storm", duration_seconds=1.0, code_footprint=8192)
    t = 0
    next_id = 0
    live: list[int] = []
    for round_no in range(6):
        created = []
        for _ in range(4):
            t += 1
            log.append(
                TraceCreate(
                    time=t,
                    trace_id=next_id,
                    size=64 + 8 * (next_id % 5),
                    module_id=next_id % 4,
                )
            )
            created.append(next_id)
            next_id += 1
        live = (live + created)[-10:]
        t += 1
        log.append(TracePin(time=t, trace_id=created[0]))
        for _ in range(3):
            for tid in live:
                t += 1
                log.append(
                    TraceAccess(time=t, trace_id=tid, repeat=1 + tid % 3)
                )
        t += 1
        log.append(TraceUnpin(time=t, trace_id=created[0]))
        t += 1
        log.append(ModuleUnmap(time=t, module_id=round_no % 4))
    log.append(EndOfLog(time=t + 1))
    return log


def _evicted_pins_log() -> TraceLog:
    """Pin and unpin traces while they are evicted.  A pin on an
    evicted trace waits and applies when a conflict miss re-inserts
    it; an unpin before that cancels the waiting pin; an unmap drops
    the waiting pins of its module.  Trace 0 is re-entered pinned and
    held across a full wrap of a half-size cache."""
    log = TraceLog(
        benchmark="evicted-pins", duration_seconds=1.0, code_footprint=8192
    )
    t = 0
    for tid in range(24):
        # A half-size cache holds ~12 of the 24 traces, so a trace 14
        # creations old has been evicted.
        old = tid - 14
        if old > 0:
            # Pin an evicted trace and re-enter it; every fourth pin
            # is cancelled before the re-entry.
            cancel = tid % 4 == 0
            t += 1
            log.append(TracePin(time=t, trace_id=old))
            if cancel:
                t += 1
                log.append(TraceUnpin(time=t, trace_id=old))
            t += 1
            log.append(TraceAccess(time=t, trace_id=old, repeat=2))
            if not cancel:
                t += 1
                log.append(TraceUnpin(time=t, trace_id=old))
        elif old == 0:
            t += 1
            log.append(TracePin(time=t, trace_id=0))
            t += 1
            log.append(TraceAccess(time=t, trace_id=0))
        t += 1
        log.append(
            TraceCreate(
                time=t, trace_id=tid, size=80 + 4 * (tid % 3), module_id=tid % 3
            )
        )
        t += 1
        log.append(TraceAccess(time=t, trace_id=tid, repeat=1 + tid % 4))
    for tid in (0, 15, 19):
        t += 1
        log.append(TraceAccess(time=t, trace_id=tid, repeat=3))
    t += 1
    log.append(TraceUnpin(time=t, trace_id=0))
    t += 1
    log.append(TracePin(time=t, trace_id=1))
    t += 1
    log.append(ModuleUnmap(time=t, module_id=1))
    for tid in (0, 2, 3, 5, 0):
        t += 1
        log.append(TraceAccess(time=t, trace_id=tid, repeat=3))
    log.append(EndOfLog(time=t + 1))
    return log


#: Hand-built hard inputs: long runs and replay past EndOfLog, unmap
#: storms, and pins on evicted traces.
ADVERSARIAL_LOGS = {
    "runs": _runs_log(),
    "unmap-storm": _storm_log(),
    "evicted-pins": _evicted_pins_log(),
}


def assert_equivalent(log, make_manager, cost_model=TABLE2_COSTS):
    """Replay *log* on the object path and on the batched loop and
    compare the two results field by field."""
    compiled = compile_log(log)
    with object_path():
        reference = CacheSimulator(make_manager(), cost_model).run(log)
    before = FASTPATH_TOTALS["fast_replays"]
    outcome = CacheSimulator(make_manager(), cost_model).run(compiled)
    assert FASTPATH_TOTALS["fast_replays"] == before + 1, (
        "compiled replay did not take the fast path"
    )
    assert outcome.stats == reference.stats
    assert outcome.overhead_instructions == reference.overhead_instructions
    assert outcome.final_fragmentation == reference.final_fragmentation
    assert outcome.final_occupancy == reference.final_occupancy
    assert outcome.benchmark == reference.benchmark
    assert outcome.manager_name == reference.manager_name
    return outcome


def _capacity(log, fraction=0.5):
    return max(4096, int(log.total_trace_bytes * fraction))


@pytest.mark.parametrize("bench", sorted(LOGS))
@pytest.mark.parametrize(
    "policy", sorted(set(POLICIES) - {"oracle"})
)
def test_unified_policies_equivalent(bench, policy):
    log = LOGS[bench]
    # The unbounded policy never evicts, so it needs room for every
    # trace ever created; the bounded policies run starved at 50%.
    fraction = 2.0 if policy == "unbounded" else 0.5
    assert_equivalent(
        log,
        lambda: UnifiedCacheManager(
            _capacity(log, fraction), local_policy=policy
        ),
    )


@pytest.mark.parametrize("bench", sorted(LOGS))
def test_unified_oracle_equivalent(bench):
    from repro.experiments.headroom import oracle_manager

    log = LOGS[bench]
    assert_equivalent(log, lambda: oracle_manager(log, _capacity(log)))


@pytest.mark.parametrize("bench", sorted(LOGS))
@pytest.mark.parametrize(
    "config", GENERATIONAL_CONFIGS, ids=lambda c: c.label()
)
def test_generational_configs_equivalent(bench, config):
    log = LOGS[bench]
    assert_equivalent(
        log, lambda: GenerationalCacheManager(_capacity(log), config)
    )


@pytest.mark.parametrize("bench", sorted(LOGS))
def test_tight_capacity_equivalent(bench):
    """A starved cache maximizes eviction/promotion churn."""
    log = LOGS[bench]
    assert_equivalent(log, lambda: UnifiedCacheManager(_capacity(log, 0.1)))
    assert_equivalent(
        log,
        lambda: GenerationalCacheManager(_capacity(log, 0.1), FIGURE9_CONFIGS[0]),
    )


def test_no_cost_model_equivalent():
    log = LOGS["word"]
    assert_equivalent(
        log,
        lambda: GenerationalCacheManager(_capacity(log), FIGURE9_CONFIGS[1]),
        cost_model=None,
    )


#: Managers for the adversarial logs: the unified baseline and both
#: generational promotion modes.
ADVERSARIAL_MANAGERS = {
    "unified": lambda capacity: UnifiedCacheManager(capacity),
    "generational": lambda capacity: GenerationalCacheManager(
        capacity, FIGURE9_CONFIGS[0]
    ),
    "generational-on-hit": lambda capacity: GenerationalCacheManager(
        capacity, FIGURE9_CONFIGS[1]
    ),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_LOGS))
@pytest.mark.parametrize("manager", sorted(ADVERSARIAL_MANAGERS))
def test_adversarial_logs_equivalent(manager, name):
    """Room for every trace: only unmaps, pins and the log's own
    shape drive residency."""
    log = ADVERSARIAL_LOGS[name]
    capacity = 2 * log.total_trace_bytes
    assert_equivalent(log, lambda: ADVERSARIAL_MANAGERS[manager](capacity))


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_LOGS))
@pytest.mark.parametrize("manager", sorted(ADVERSARIAL_MANAGERS))
def test_tight_capacity_churn(manager, name):
    """Half the created bytes: conflict misses, evictions and (for the
    generational caches) promotions and uncacheable traces interleave
    with the unmaps and pins."""
    log = ADVERSARIAL_LOGS[name]
    capacity = log.total_trace_bytes // 2
    outcome = assert_equivalent(
        log, lambda: ADVERSARIAL_MANAGERS[manager](capacity)
    )
    assert outcome.stats.misses > 0


def _counter_reading_manager(policy, log, capacity):
    if policy == "oracle":
        from repro.experiments.headroom import oracle_manager

        return oracle_manager(log, capacity)
    return UnifiedCacheManager(capacity, local_policy=policy)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_LOGS))
@pytest.mark.parametrize("policy", ["lfu", "oracle"])
def test_counter_reading_policies_equivalent(policy, name):
    """LFU and the oracle choose victims from the per-trace counters
    the batched loop writes in place; a starved cache makes every one
    of those choices count."""
    log = ADVERSARIAL_LOGS[name]
    capacity = log.total_trace_bytes // 2
    outcome = assert_equivalent(
        log, lambda: _counter_reading_manager(policy, log, capacity)
    )
    assert outcome.stats.evictions > 0


@pytest.mark.parametrize("policy", ["pseudo-circular", "lfu", "oracle"])
def test_trace_counters_match_object_path(policy):
    """The batched loop's in-place hits leave every resident trace's
    access_count and last_access exactly where the object path does."""
    log = ADVERSARIAL_LOGS["unmap-storm"]
    capacity = log.total_trace_bytes // 2

    def counters(replay_log):
        manager = _counter_reading_manager(policy, log, capacity)
        CacheSimulator(manager, TABLE2_COSTS).run(replay_log)
        return {
            trace.trace_id: (trace.access_count, trace.last_access)
            for trace in manager.caches()[0].traces()
        }

    with object_path():
        reference = counters(log)
    assert reference
    assert counters(compile_log(log)) == reference


def test_sanitizer_forces_object_path():
    from repro.analysis.sanitizer import SanitizerHarness

    log = LOGS["gzip"]
    compiled = compile_log(log)
    manager = UnifiedCacheManager(_capacity(log))
    sim = CacheSimulator(
        manager, TABLE2_COSTS, sanitizer=SanitizerHarness(manager, stride=64)
    )
    before = dict(FASTPATH_TOTALS)
    sanitized = sim.run(compiled)
    assert FASTPATH_TOTALS["fast_replays"] == before["fast_replays"]
    assert FASTPATH_TOTALS["object_replays"] == before["object_replays"] + 1
    with object_path():
        reference = CacheSimulator(
            UnifiedCacheManager(_capacity(log)), TABLE2_COSTS
        ).run(log)
    assert sanitized.stats == reference.stats


def test_disable_fastpath_switch():
    log = LOGS["gzip"]
    compiled = compile_log(log)
    assert fastpath_enabled()
    disable_fastpath()
    try:
        assert not fastpath_enabled()
        before = FASTPATH_TOTALS["object_replays"]
        CacheSimulator(UnifiedCacheManager(_capacity(log))).run(compiled)
        assert FASTPATH_TOTALS["object_replays"] == before + 1
    finally:
        enable_fastpath()


def test_object_path_context_restores():
    with object_path():
        assert not fastpath_enabled()
        with object_path():
            assert not fastpath_enabled()
        # Inner exit must not prematurely re-enable.
        assert not fastpath_enabled()
    assert fastpath_enabled()


def test_tier_selection():
    """Two replay paths: the batched loop for a fastpath-safe manager,
    the object path under a sanitizer (see above), for a manager that
    is not fastpath-safe, or when the fast path is switched off."""

    class UnsafeManager(UnifiedCacheManager):
        fastpath_safe = False

    log = LOGS["gzip"]
    compiled = compile_log(log)
    for make, taken, skipped in (
        (UnifiedCacheManager, "fast_replays", "object_replays"),
        (UnsafeManager, "object_replays", "fast_replays"),
    ):
        before = dict(FASTPATH_TOTALS)
        CacheSimulator(make(_capacity(log))).run(compiled)
        assert FASTPATH_TOTALS[taken] == before[taken] + 1, taken
        assert FASTPATH_TOTALS[skipped] == before[skipped], taken


@pytest.mark.parametrize(
    "value, enabled", [("0", False), ("off", False), ("1", True)]
)
def test_environment_switch(value, enabled):
    """``REPRO_FASTPATH`` is read once, at import."""
    import repro

    env = dict(os.environ, REPRO_FASTPATH=value)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.fastpath import fastpath_enabled; "
            "print(fastpath_enabled())",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == str(enabled)
