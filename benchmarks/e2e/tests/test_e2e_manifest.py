"""BENCHMARK.json declares well-formed metrics, and the harness
computes and documents exactly what it declares."""

import json
import re
from pathlib import Path

import bench
import layers
from workloads import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parents[3]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
README = (ROOT / "benchmarks" / "e2e" / "README.md").read_text(encoding="utf-8")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_has_exactly_the_contract_keys():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/bench.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_metric_names_units_directions_and_bounds():
    end_to_end = MANIFEST["end_to_end"]
    per_layer = MANIFEST["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer + MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")


def test_setup_time_is_gated_with_the_largest_bound():
    by_name = {m["name"]: m for m in MANIFEST["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_workloads_are_declared_with_reasons():
    declared = [w["name"] for w in MANIFEST["workloads"]]
    assert declared == list(WORKLOAD_NAMES)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_bench_computes_every_declared_end_to_end_metric():
    computed = bench.end_to_end([], [])
    assert list(computed) == [m["name"] for m in MANIFEST["end_to_end"]]


def test_every_layer_metric_names_what_it_should_move():
    declared = [m["name"] for m in MANIFEST["per_layer"]]
    assert declared == list(layers.MOVES)
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    for name, moves in layers.MOVES.items():
        if not name.startswith(("model.", "trace.", "service.queue_ms.")):
            assert moves, f"{name} names no end-to-end metric"
        for move in moves:
            metric, _, workload = move.partition("@")
            assert metric in end_to_end, move
            assert workload in WORKLOAD_NAMES, move


def test_readme_maps_every_layer_metric():
    for metric in MANIFEST["per_layer"]:
        assert f"`{metric['name']}`" in README, metric["name"]
