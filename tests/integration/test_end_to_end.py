"""End-to-end integration: synthesized log -> every manager.

These tests exercise the complete system the way the paper's
methodology does: record a log once (here with the calibrated
synthesizer), then replay it against the unified baseline and the
generational hierarchy, checking the paper's headline relationships.
"""

from __future__ import annotations

import pytest

from repro.cachesim.simulator import simulate_log
from repro.core.config import BEST_CONFIG, GenerationalConfig
from repro.core.generational import GenerationalCacheManager
from repro.core.unified import UnifiedCacheManager
from repro.overhead.model import TABLE2_COSTS
from repro.tracelog.reader import loads_log
from repro.tracelog.stats import summarize_log
from repro.tracelog.writer import dumps_log
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_log


@pytest.fixture(scope="module")
def word_log():
    # Extra scale keeps the integration suite fast.
    return synthesize_log(get_profile("word"), seed=42, scale=96.0)


@pytest.fixture(scope="module")
def word_capacity(word_log):
    return summarize_log(word_log).total_trace_bytes // 2


class TestHeadlineResult:
    """The paper's core claim on its flagship workload."""

    def test_generational_beats_unified_on_word(self, word_log, word_capacity):
        unified = simulate_log(
            word_log, UnifiedCacheManager(word_capacity), TABLE2_COSTS
        )
        generational = simulate_log(
            word_log,
            GenerationalCacheManager(word_capacity, BEST_CONFIG),
            TABLE2_COSTS,
        )
        assert generational.miss_rate < unified.miss_rate
        assert generational.overhead_instructions < unified.overhead_instructions

    def test_promotions_happen(self, word_log, word_capacity):
        generational = simulate_log(
            word_log, GenerationalCacheManager(word_capacity, BEST_CONFIG)
        )
        assert generational.stats.promotions > 0
        assert generational.stats.hits_by_cache.get("persistent", 0) > 0

    def test_unmap_evictions_present_for_windows_app(self, word_log, word_capacity):
        unified = simulate_log(word_log, UnifiedCacheManager(word_capacity))
        assert unified.stats.unmap_evictions > 0


class TestLogPortability:
    """A recorded log can be serialized, reloaded and replayed with
    identical results — the artifact-reuse property the paper's
    methodology depends on."""

    def test_serialize_replay_identical(self, word_log, word_capacity):
        direct = simulate_log(word_log, UnifiedCacheManager(word_capacity))
        reloaded = loads_log(dumps_log(word_log))
        replayed = simulate_log(reloaded, UnifiedCacheManager(word_capacity))
        assert direct.stats == replayed.stats


class TestCrossPolicyOrdering:
    """Local-policy comparison on one log (the prior-work [12] result:
    circular-style beats preemptive flush under churn)."""

    def test_pseudocircular_beats_preemptive_flush(self, word_log, word_capacity):
        circular = simulate_log(
            word_log, UnifiedCacheManager(word_capacity, "pseudo-circular")
        )
        flush = simulate_log(
            word_log, UnifiedCacheManager(word_capacity, "preemptive-flush")
        )
        assert circular.miss_rate <= flush.miss_rate

    def test_all_policies_replay_cleanly(self, word_log, word_capacity):
        for policy in ("pseudo-circular", "circular", "lru", "preemptive-flush"):
            result = simulate_log(
                word_log, UnifiedCacheManager(word_capacity, policy)
            )
            result.stats.check_invariants()
