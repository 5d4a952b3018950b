"""Unit tests for cache statistics containers."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cachesim.stats import CacheStats, SimulationResult


class TestCacheStats:
    def test_rates_zero_without_accesses(self):
        stats = CacheStats()
        assert stats.miss_rate == 0.0
        assert stats.hit_rate == 0.0

    def test_rates(self):
        stats = CacheStats(accesses=100, hits=90, misses=10)
        assert stats.miss_rate == pytest.approx(0.1)
        assert stats.hit_rate == pytest.approx(0.9)

    def test_record_hit_tracks_per_cache(self):
        stats = CacheStats()
        stats.accesses = 5
        stats.record_hit("nursery", 3)
        stats.record_hit("persistent", 1)
        stats.misses = 1
        assert stats.hits == 4
        assert stats.hits_by_cache == {"nursery": 3, "persistent": 1}
        stats.check_invariants()

    def test_invariant_violation_detected(self):
        stats = CacheStats(accesses=10, hits=3, misses=3)
        with pytest.raises(AssertionError):
            stats.check_invariants()

    @pytest.mark.parametrize(
        "fields",
        [
            "accesses=10, hits=3, misses=3",
            "accesses=4, hits=3, misses=1, hits_by_cache={'nursery': 2}",
        ],
    )
    def test_violation_survives_python_O(self, fields):
        """Every replay engine checks its counters at the end of a
        replay; the check must not vanish with ``assert`` under -O."""
        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        out = subprocess.run(
            [
                sys.executable,
                "-O",
                "-c",
                "from repro.cachesim.stats import CacheStats\n"
                "from repro.errors import InvariantViolation\n"
                "try:\n"
                f"    CacheStats({fields}).check_invariants()\n"
                "except InvariantViolation as exc:\n"
                "    print(exc.invariant)\n",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "stats-consistency"


class TestSimulationResult:
    def test_miss_rate_passthrough(self):
        result = SimulationResult(
            benchmark="x",
            manager_name="unified",
            stats=CacheStats(accesses=10, hits=8, misses=2),
        )
        assert result.miss_rate == pytest.approx(0.2)
