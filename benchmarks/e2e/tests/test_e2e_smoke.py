"""End-to-end runs of the benchmark command itself (smoke sizes)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parents[3]
BENCH = ROOT / "benchmarks" / "e2e" / "bench.py"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_suite_runs_all_four_workloads_traced(tmp_path):
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--smoke", "--runs", "1", "--seconds", "1",
         "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    elapsed = time.perf_counter() - began
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 90, f"smoke suite took {elapsed:.1f}s"
    results = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in MANIFEST["per_layer"]]
    for name in WORKLOAD_NAMES:
        entry = results["workloads"][name]
        assert entry["error_rate"] == 0.0, entry["runs"][0]["notes"]
        for metric in MANIFEST["end_to_end"]:
            assert entry["summary"][metric["name"]]["median"] > 0, metric["name"]
        assert sorted(entry["per_layer"]) == sorted(per_layer)
        assert entry["per_layer"]["trace.coverage_pct"] > 50
        spans = json.loads((tmp_path / f"trace-{name}.json").read_text())["spans"]
        assert spans and all(span["run"] for span in spans)
    service = results["workloads"]["service-zipf"]["per_layer"]
    assert service["service.submit_ms.p50"] > 0
    assert results["workloads"]["fleet-256"]["per_layer"]["fleet.events"] > 0


def test_one_workload_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", "fleet-256", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    for metric in MANIFEST["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        ["python3", "benchmarks/e2e/bench.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
