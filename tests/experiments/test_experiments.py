"""Tests for the experiment harness (small subsets, coarse scales)."""

from __future__ import annotations

import pytest

from repro.core.config import FIGURE9_CONFIGS
from repro.errors import ExperimentError
from repro.experiments import (
    fig01_max_cache_size,
    fig02_code_expansion,
    fig03_insertion_rate,
    fig04_unmapped,
    fig06_lifetimes,
    fig09_miss_rates,
    fig10_misses_eliminated,
    fig11_overhead,
    table01_benchmarks,
    table02_overheads,
)
from repro.experiments.base import ExperimentResult, render_table
from repro.experiments.dataset import WorkloadDataset
from repro.experiments.evaluation import baseline_capacity, run_evaluation


@pytest.fixture(scope="module")
def tiny_dataset():
    return WorkloadDataset(
        seed=11,
        scale_multiplier=4.0,
        subset=["gzip", "art", "word", "solitaire"],
    )


@pytest.fixture(scope="module")
def tiny_evaluations(tiny_dataset):
    return run_evaluation(tiny_dataset, FIGURE9_CONFIGS)


class TestExperimentResult:
    def test_add_row_checks_columns(self):
        result = ExperimentResult("x", "t", columns=["A", "B"])
        with pytest.raises(ExperimentError):
            result.add_row(A=1)
        result.add_row(A=1, B=2)
        assert result.column("A") == [1]
        with pytest.raises(ExperimentError):
            result.column("C")

    def test_render_table_contains_rows_and_notes(self):
        result = ExperimentResult("fig-x", "demo", columns=["A"])
        result.add_row(A=3.14159)
        result.notes.append("hello")
        rendered = render_table(result)
        assert "FIG-X" in rendered
        assert "3.14" in rendered
        assert "note: hello" in rendered


class TestDataset:
    def test_memoizes_logs(self, tiny_dataset):
        assert tiny_dataset.compiled("gzip") is tiny_dataset.compiled("gzip")

    def test_names_follow_subset(self, tiny_dataset):
        assert tiny_dataset.names == ["gzip", "art", "word", "solitaire"]

    def test_unknown_name(self, tiny_dataset):
        with pytest.raises(KeyError):
            tiny_dataset.profile("mcf")

    def test_suite_restriction(self):
        dataset = WorkloadDataset(suites=("interactive",), scale_multiplier=8)
        assert len(dataset.names) == 12


class TestCharacterizationExperiments:
    def test_table1_lists_12_apps(self):
        result = table01_benchmarks.run()
        assert len(result.rows) == 12
        assert result.column("Name")[0] == "access"

    def test_table2_matches_paper(self):
        result = table02_overheads.run()
        by_event = {row["Event"]: row for row in result.rows}
        assert by_event["Trace Generation"]["Instructions"] == 69834
        assert by_event["Eviction"]["Instructions"] == 3316
        assert by_event["Promotion"]["Instructions"] == 13354

    def test_fig01_measured_tracks_paper_scale(self, tiny_dataset):
        result = fig01_max_cache_size.run(dataset=tiny_dataset)
        for row in result.rows:
            profile_scale = (
                tiny_dataset.profile(str(row["Benchmark"])).default_scale
                * tiny_dataset.scale_multiplier
            )
            measured = float(row["MeasuredKB"])
            paper = float(row["PaperScaleKB"])
            assert measured * profile_scale == pytest.approx(paper, rel=0.02)

    def test_fig02_expansions_near_500pct(self, tiny_dataset):
        result = fig02_code_expansion.run(dataset=tiny_dataset)
        for value in result.column("ExpansionPct"):
            assert 200 < float(value) < 900

    def test_fig03_threshold_flags(self, tiny_dataset):
        result = fig03_insertion_rate.run(dataset=tiny_dataset)
        flags = dict(zip(result.column("Benchmark"), result.column("Above5KBs")))
        assert flags["word"] is True
        assert flags["gzip"] is False
        assert flags["solitaire"] is False

    def test_fig04_interactive_unmap_positive(self, tiny_dataset):
        result = fig04_unmapped.run(dataset=tiny_dataset)
        rows = {row["Benchmark"]: row for row in result.rows}
        assert float(rows["word"]["UnmappedPct"]) > 5.0
        assert float(rows["gzip"]["UnmappedPct"]) == 0.0

    def test_fig06_u_shape(self, tiny_dataset):
        result = fig06_lifetimes.run(dataset=tiny_dataset)
        assert all(result.column("UShaped"))


class TestEvaluationExperiments:
    def test_baseline_capacity_rule(self):
        assert baseline_capacity(1_000_000) == 500_000
        assert baseline_capacity(100) == 4096  # floor

    def test_evaluations_cover_all_configs(self, tiny_evaluations):
        labels = {c.label() for c in FIGURE9_CONFIGS}
        for evaluation in tiny_evaluations.values():
            assert set(evaluation.generational) == labels

    def test_fig09_reports_reductions(self, tiny_dataset, tiny_evaluations):
        result = fig09_miss_rates.run(
            dataset=tiny_dataset, evaluations=tiny_evaluations
        )
        assert len(result.rows) == 4
        label = FIGURE9_CONFIGS[1].label()
        reductions = dict(zip(result.column("Benchmark"), result.column(label)))
        # The headline result: the big interactive app must improve.
        assert float(reductions["word"]) > 0

    def test_fig10_consistent_with_fig09_signs(self, tiny_dataset, tiny_evaluations):
        fig9 = fig09_miss_rates.run(dataset=tiny_dataset, evaluations=tiny_evaluations)
        fig10 = fig10_misses_eliminated.run(
            dataset=tiny_dataset, evaluations=tiny_evaluations
        )
        label = FIGURE9_CONFIGS[1].label()
        for row9, row10 in zip(fig9.rows, fig10.rows):
            reduction = float(row9[label])  # type: ignore[arg-type]
            eliminated = int(row10[label])  # type: ignore[arg-type]
            if reduction > 0:
                assert eliminated > 0
            elif reduction < 0:
                assert eliminated < 0

    def test_fig11_ratio_definition(self, tiny_dataset, tiny_evaluations):
        result = fig11_overhead.run(
            dataset=tiny_dataset, evaluations=tiny_evaluations
        )
        for row in result.rows:
            ratio = float(row["OverheadRatioPct"])  # type: ignore[arg-type]
            assert 10 < ratio < 400
            assert row["Reduced"] == (ratio <= 100)
