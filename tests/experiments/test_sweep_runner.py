"""Tests for the sweep experiment and the run-all orchestrator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import sweep
from repro.experiments.dataset import WorkloadDataset, quick_subset
from repro.experiments.evaluation import evaluate_benchmark
from repro.experiments.runner import ALL_EXPERIMENT_IDS, render_all, run_all
from repro.fastpath import FASTPATH_TOTALS


def replays() -> int:
    """Replays so far in this process, down either path."""
    return FASTPATH_TOTALS["fast_replays"] + FASTPATH_TOTALS["object_replays"]


class TestSweep:
    @pytest.fixture(scope="class")
    def art_sweep(self):
        return sweep.run(
            benchmark="art",
            scale_multiplier=2.0,
            proportions=((0.45, 0.10, 0.45), (0.25, 0.50, 0.25)),
            thresholds=(1, 10),
        )

    def test_grid_size(self, art_sweep):
        assert len(art_sweep.rows) == 4

    def test_reports_best_point(self, art_sweep):
        assert any("best point" in note for note in art_sweep.notes)

    def test_threshold_one_uses_on_hit(self, art_sweep):
        for row in art_sweep.rows:
            if row["Threshold"] == 1:
                assert row["Mode"] == "on-hit"
            else:
                assert row["Mode"] == "on-eviction"

    def test_probation_threshold_link_shape(self):
        result = sweep.probation_threshold_link(
            benchmark="art", scale_multiplier=2.0
        )
        probations = [float(r["Probation"]) for r in result.rows]
        assert probations == sorted(probations)
        assert all(int(r["BestThreshold"]) >= 1 for r in result.rows)


class TestSweepReadsTheEvaluation:
    """The serial sweep takes the unified baseline and Figure 9's three
    layouts from an evaluation pass over the same log."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return WorkloadDataset(seed=5, scale_multiplier=32.0, subset=["gzip"])

    def _sweep(self, dataset, evaluation=None):
        before = replays()
        result = sweep.run(
            benchmark="gzip",
            dataset=dataset,
            seed=5,
            scale_multiplier=32.0,
            evaluation=evaluation,
        )
        return result, replays() - before

    def test_same_table_with_four_fewer_replays(self, dataset):
        standalone, replayed = self._sweep(dataset)
        evaluation = evaluate_benchmark(dataset, "gzip")
        reused, replayed_after = self._sweep(dataset, evaluation)
        assert reused.rows == standalone.rows
        assert reused.notes == standalone.notes
        assert replayed == 1 + len(sweep.PROPORTION_GRID) * len(sweep.THRESHOLD_GRID)
        assert replayed_after == replayed - 4

    def test_capacity_mismatch_replays_every_cell(self, dataset):
        standalone, replayed = self._sweep(dataset)
        evaluation = evaluate_benchmark(dataset, "gzip")
        skewed = dataclasses.replace(evaluation, capacity=evaluation.capacity + 1)
        result, replayed_after = self._sweep(dataset, skewed)
        assert result.rows == standalone.rows
        assert replayed_after == replayed

    def test_run_all_shares_the_evaluation_with_the_sweep(self):
        kwargs = dict(seed=5, scale_multiplier=64.0, subset=quick_subset())
        before = replays()
        apart = run_all(experiment_ids=("figure-9",), **kwargs)
        apart += run_all(experiment_ids=("sweep",), **kwargs)
        separate = replays() - before
        before = replays()
        together = run_all(experiment_ids=("figure-9", "sweep"), **kwargs)
        assert replays() - before == separate - 4
        assert render_all(together) == render_all(apart)


class TestRunner:
    def test_all_experiment_ids_runnable_on_tiny_subset(self):
        results = run_all(
            seed=5,
            scale_multiplier=16.0,
            subset=["gzip", "word"],
            experiment_ids=(
                "table-1", "figure-2", "figure-3", "table-2", "sweep",
            ),
            sweep_benchmark="gzip",
        )
        assert [r.experiment_id for r in results] == [
            "table-1", "figure-2", "figure-3", "table-2", "section-6.1-sweep",
        ]

    def test_render_all_joins_tables(self):
        results = run_all(
            seed=5,
            scale_multiplier=16.0,
            subset=["gzip"],
            experiment_ids=("table-2",),
        )
        rendered = render_all(results)
        assert "TABLE-2" in rendered

    def test_unknown_experiment_id(self):
        with pytest.raises(KeyError):
            run_all(experiment_ids=("figure-42",))

    def test_quick_subset_names_exist(self):
        dataset = WorkloadDataset(subset=quick_subset(), scale_multiplier=16)
        assert len(dataset.names) == 8

    def test_evaluation_ids_share_one_pass(self):
        results = run_all(
            seed=5,
            scale_multiplier=32.0,
            subset=["gzip", "art"],
            experiment_ids=("figure-9", "figure-10", "figure-11"),
        )
        assert [r.experiment_id for r in results] == [
            "figure-9", "figure-10", "figure-11",
        ]
        assert ALL_EXPERIMENT_IDS[0] == "table-1"
