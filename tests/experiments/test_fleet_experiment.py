"""The fleet scaling-curve experiment: table, cells, provenance."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.experiments import fleet, shared
from repro.experiments.base import ExperimentResult, render_table
from repro.shared.compose import LIBRARY_CATALOG
from repro.shared.fleet import FleetSimulator
from repro.shared.policy import POLICY_VARIANTS
from repro.sim.interleave import SCHEDULES


@pytest.fixture(scope="module")
def quick_table() -> ExperimentResult:
    return fleet.run(seed=42, quick=True, process_counts=(8, 16))


class TestFleetSpecs:
    def test_homogeneous_replicates_one_binary(self):
        specs = fleet.fleet_specs("homogeneous", 8)
        assert specs == [("crafty", fleet.HOMOGENEOUS_REACH)] * 8

    def test_heterogeneous_cycles_palette_with_zipf_reach(self):
        specs = fleet.fleet_specs("heterogeneous", 16)
        assert len(specs) == 16
        assert {b for b, _ in specs} == set(shared.HETEROGENEOUS_PALETTE)
        assert all(1 <= r <= len(LIBRARY_CATALOG) for _, r in specs)

    def test_specs_deterministic_per_seed(self):
        assert fleet.fleet_specs("heterogeneous", 16, seed=1) == fleet.fleet_specs(
            "heterogeneous", 16, seed=1
        )

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigError, match="mix"):
            fleet.fleet_specs("bimodal", 8)

    def test_tiny_fleet_rejected(self):
        with pytest.raises(ConfigError, match="processes"):
            fleet.fleet_specs("homogeneous", 1)


class TestCell:
    def test_cell_is_deterministic(self):
        a = shared.simulate_cell(
            "fleet", "heterogeneous", 8, "shared-persistent", scale_multiplier=128
        )
        b = shared.simulate_cell(
            "fleet", "heterogeneous", 8, "shared-persistent", scale_multiplier=128
        )
        assert a == b

    def test_cell_reports_fleet_metrics(self):
        cell = shared.simulate_cell(
            "fleet", "heterogeneous", 8, "shared-persistent", scale_multiplier=128
        )
        assert cell["processes"] == 8
        assert 0 < cell["distinct_workloads"] <= 8
        assert cell["events"] > 0
        assert 0.0 <= cell["dedup_ratio"] <= 1.0
        assert 0.0 <= cell["shared_hit_share"] <= 1.0

    def test_private_policy_never_shares(self):
        cell = shared.simulate_cell(
            "fleet", "homogeneous", 8, "private", scale_multiplier=128
        )
        assert cell["shared_hit_share"] == 0
        assert cell["dedup_bytes"] == 0

    def test_shared_all_counts_every_hit_as_shared(self):
        cell = shared.simulate_cell(
            "fleet", "homogeneous", 8, "shared-all", scale_multiplier=128
        )
        assert cell["shared_hit_share"] == pytest.approx(1.0)


#: Churned 16-process cells (scale 128, seed 42): sha256 of the
#: canonical JSON of each cell's row and of every process's
#: ProcessSummary.  Churn exits and late spawns drive the early-exit
#: unmap path, where a residency-map effect the engine missed would
#: change per-process counters.
GOLDEN_PROCESSES = 16
GOLDEN_SCALE = 128.0
GOLDEN_CHURNED_CELLS = {
    ("heterogeneous", "random", "private"): (
        "e8595e683c282c695e286b2f576de19f8f9bdde064881b05f2d3bd8752d7989f",
        "1224837407ae689f7ee1c7347c36f7a5a42369cca8b77b0bb4ab27f85bf467c8",
    ),
    ("heterogeneous", "random", "shared-all"): (
        "d3072e13e985c33fb1283c4d2714cf8c107f7e93b3ee6689a903e21e8591869d",
        "58d49f50660ec73bde024b279fabaaac74b5173c88f309917cb4e11b7f6ad174",
    ),
    ("heterogeneous", "random", "shared-persistent"): (
        "69491a5a81f6afce8f44c117715824bcd2228a1aaa777f1ab1929bb8bb52514e",
        "00692ebd89405c003f7996b36eb2d48636f1f224f25e54a7cb0e70e68f915b07",
    ),
    ("heterogeneous", "random", "shared-persistent-temp"): (
        "26deda4d5cbb64b15bcfb1b73cceb90e4967d746932ca41258cf8b59d90680ba",
        "78dc40538e6dc6f0a37fd7d0b596987a52e1713313bad1913045c5a90a105b77",
    ),
    ("heterogeneous", "round-robin", "private"): (
        "fae4e9e507dd0f98a136e1e47ab60b47b995e8a69bedba95fb46b37e558a0909",
        "1224837407ae689f7ee1c7347c36f7a5a42369cca8b77b0bb4ab27f85bf467c8",
    ),
    ("heterogeneous", "round-robin", "shared-all"): (
        "31b9318920f72f4d68cd7811f5aba0b492233028144a8ca6e54070803a8cdede",
        "45ddfc6d9c73aae3f2fd4525dfe4d66b0b637b0fd6c8f62c9c98b0c3757b6fc6",
    ),
    ("heterogeneous", "round-robin", "shared-persistent"): (
        "b5053c15a4c3a25ea6c634e8e2c977dd96f2cbcb207d838b499656dea8daed01",
        "2e086ccd793ce2a14fe14de978777cf6c76daec439fce576644bfbb4c678940f",
    ),
    ("heterogeneous", "round-robin", "shared-persistent-temp"): (
        "aee70e7a19b08faafc592539ca8d41a9c34d4d2e79ce2bb97436e537b3a580d3",
        "30f35ab50ddcab633c91a9f525a00885690b85e47a7ea80710a2aefaf4b59811",
    ),
    ("homogeneous", "random", "private"): (
        "2bdd83c383e32fa987062870be8b1ba1f145be91c6b60a933789c3b4468dbe7f",
        "9e1582118033c71cb822d503d113beaaaef4baa0b4a71d9412b93818abac51e4",
    ),
    ("homogeneous", "random", "shared-all"): (
        "ce755b18294b9e2ed87850a7cd4796de6cd1e242ea3301ad711975294d265050",
        "e29169afe4c925cca22bb18e9529c2fb25cf33b0c39d323e3c81c3b65a860256",
    ),
    ("homogeneous", "random", "shared-persistent"): (
        "daf46ab54cd39951fb9c16dbf809b2f9712f12c1b454082b7103d834a0748ae7",
        "635d7cafeccc4fb34fa002557182edf2afcaac0c6eb4705510b02be6e8c7b575",
    ),
    ("homogeneous", "random", "shared-persistent-temp"): (
        "93d4adacdec9007b2555ca9adfc3670c019a82e48463adcbcd227a4ac112c40e",
        "cec11d492d9c9bcc8e84becdb06a0b300cfb04a856094e637cef4793a6e219ac",
    ),
    ("homogeneous", "round-robin", "private"): (
        "6f46df2cecfedb3a16df4a9143f75a793c590947ddd4fece9201a6ba45d76066",
        "9e1582118033c71cb822d503d113beaaaef4baa0b4a71d9412b93818abac51e4",
    ),
    ("homogeneous", "round-robin", "shared-all"): (
        "78723555a25b792f584104cbe2a67933f3b488a1e29abaab14b0adbc81d019ff",
        "40a8ac5fe6dfa4683b74b36c19ca5d7d6d18b179638da7a652b617ad9b3f8c3d",
    ),
    ("homogeneous", "round-robin", "shared-persistent"): (
        "2b1c21b0236e1d8f8b0a77c0e7ada2d082395dd9bdb3290e1fd3e23bccb101b3",
        "7b306838f2f3809aaa543b973fba00b5664384e7c1c77e4e572451a095eb5f0a",
    ),
    ("homogeneous", "round-robin", "shared-persistent-temp"): (
        "81620cc732ec6492cc03e74b0cf4089257e3607fa4ea20417f10828512c029cc",
        "e5e9eef004ed5e8926bde544a14198720832623f751b50f582a39151f59580b7",
    ),
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _golden_build(mix: str) -> shared.SharedCell:
    return shared.build_cell(
        "fleet", mix, GOLDEN_PROCESSES, seed=42, scale_multiplier=GOLDEN_SCALE
    )


class _RecordingSimulator(FleetSimulator):
    """Keeps the outcome of the replay it ran."""

    outcome = None

    def run(self):
        type(self).outcome = super().run()
        return type(self).outcome


class TestChurnedFleetGolden:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("mix", ["homogeneous", "heterogeneous"])
    def test_cells_and_processes_match_golden(self, mix, schedule, monkeypatch):
        monkeypatch.setattr(shared, "FleetSimulator", _RecordingSimulator)
        cell = _golden_build(mix)
        exits = 0
        for policy in POLICY_VARIANTS:
            row = shared.replay_cell(cell, policy, schedule=schedule)
            processes = [
                dataclasses.asdict(summary)
                for summary in _RecordingSimulator.outcome.processes
            ]
            assert (_digest(row), _digest(processes)) == (
                GOLDEN_CHURNED_CELLS[(mix, schedule, policy)]
            ), policy
            exits += row["exited_early"]
        assert exits > 0  # the churn plan killed processes early

    def test_split_cell_matches_simulate_fleet_cell(self):
        row = shared.replay_cell(
            _golden_build("heterogeneous"), "shared-persistent-temp"
        )
        assert row == shared.simulate_cell(
            "fleet",
            "heterogeneous",
            GOLDEN_PROCESSES,
            "shared-persistent-temp",
            scale_multiplier=GOLDEN_SCALE,
        )


class TestTable:
    def test_shape(self, quick_table):
        # 2 mixes x 2 process counts x 4 policies.
        assert len(quick_table.rows) == 16
        assert quick_table.columns[:3] == ["Mix", "Procs", "Policy"]
        assert {row["Procs"] for row in quick_table.rows} == {8, 16}

    def test_dedup_grows_with_fleet_size(self, quick_table):
        def ratio(mix, procs):
            for row in quick_table.rows:
                if (
                    row["Mix"] == mix
                    and row["Procs"] == procs
                    and row["Policy"] == "shared-persistent"
                ):
                    return row["DedupRatio"]
            raise AssertionError("row missing")

        for mix in ("homogeneous", "heterogeneous"):
            assert ratio(mix, 16) >= ratio(mix, 8)

    def test_private_baseline_compiles_most(self, quick_table):
        by_policy = {}
        for row in quick_table.rows:
            if row["Mix"] == "homogeneous" and row["Procs"] == 16:
                by_policy[row["Policy"]] = row["GeneratedKB"]
        assert by_policy["private"] >= by_policy["shared-persistent"]
        assert by_policy["shared-persistent"] >= by_policy["shared-all"]

    def test_notes_and_provenance(self, quick_table):
        assert quick_table.seed == 42
        assert quick_table.config_digest
        assert any("Zipf" in note for note in quick_table.notes)
        assert any("fleet replay floor" in note for note in quick_table.notes)
        rendered = render_table(quick_table)
        assert f"seed=42  config={quick_table.config_digest}" in rendered

    def test_parallel_run_matches_serial(self, quick_table):
        parallel = fleet.run(seed=42, quick=True, process_counts=(8, 16), jobs=2)
        assert parallel.rows == quick_table.rows
