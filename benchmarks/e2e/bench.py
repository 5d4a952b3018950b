"""End-to-end benchmark: four workloads, gated end-to-end metrics, and
an outside-in traced breakdown by layer.

One run of one workload (the form regression checks use; the last
line of stdout is the result as JSON)::

    python3 benchmarks/e2e/bench.py --workload paper-cold --seed 7 \\
        --seconds 12 --trace 0

Every workload, ``--runs`` runs each at seeds seed, seed+1, ..., written
with their summary to ``DIR/results.json`` (``--trace`` adds one traced
run per workload and its per-layer metrics)::

    python3 benchmarks/e2e/bench.py [--seed 42] [--runs 3] [--trace] [--out DIR]

``--smoke`` shrinks every workload (paper ``--scale 64``, 16 fleet
processes, 200 requests); ``--pin`` recomputes ``pins.json``: the fleet
workload's program seeds, the seed-42 output digests, and a check of
the paper digest against the object-path oracle (``REPRO_FASTPATH=0``).

The workloads, metrics and bounds are declared in ``BENCHMARK.json`` at
the repository root; README.md next to this file explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import per_layer  # noqa: E402
from stats import nearest_rank, summary, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    HERE,
    PINS,
    ROOT,
    SMOKE,
    WORKLOAD_NAMES,
    Context,
    Round,
    Setup,
    input_sizes,
    load_pins,
    make_workload,
)

MANIFEST = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_OUT = ROOT / ".bench_out"

#: Seed whose output digests are pinned in pins.json.
PIN_SEED = 42

#: Fleet program seeds scanned by ``--pin``, and how far from the
#: median table size a kept seed's table may be.
FLEET_SEED_SCAN = (1, 150)
FLEET_SIZE_BAND = 0.03

#: No new round starts after this many seconds in one invocation, and
#: every program is stopped by ``DEADLINE_S``, so a run ends inside a
#: three-minute cap even when the program hangs.
LIMIT_S = 100.0
DEADLINE_S = 165.0


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def pinned_digest(name: str, seed: int, sizes) -> str | None:
    """The pinned output digest for this run, if there is one."""
    if seed != PIN_SEED:
        return None
    family = "paper" if name.startswith("paper-") else name
    return load_pins(sizes).get("digests", {}).get(family)


def digest_failures(digests: list[str | None], pinned: str | None) -> int:
    """Outputs that differ from the reference: the pinned digest when
    there is one, else the most common digest of the run.  A ``None``
    digest belongs to a run already counted as failed."""
    present = [digest for digest in digests if digest is not None]
    if not present:
        return 0
    reference = pinned or Counter(present).most_common(1)[0][0]
    return sum(1 for digest in present if digest != reference)


def _guarded(call, name: str):
    """Run one set-up or round; an exception is a failed operation,
    reported with its traceback, not the end of the run."""
    try:
        return call()
    except Exception:  # noqa: BLE001 - the run records it and goes on
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if name == "setup":
            return Setup(0.0, True, note=detail)
        return Round(0.0, 0.0, [], None, 1, 1, notes=[detail])


def end_to_end(rounds: list[Round], setups: list[Setup]) -> dict[str, float]:
    """The end-to-end metrics of one run's untraced rounds."""
    measured = [r for r in rounds if r.latencies]
    times = [r.seconds for r in measured]
    latencies = [x for r in measured for x in r.latencies]

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "round_s": median(times),
        "peak_rss_mb": median([r.rss_mb for r in measured]),
        "setup_s": median([s.seconds for s in setups if not s.failed]),
        "jobs_per_s": len(latencies) / sum(times) if times else 0.0,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    sizes=FULL,
    traced: bool = False,
    extra_env: dict[str, str] | None = None,
) -> dict:
    """One run of workload *name*: its set-ups, untraced rounds for
    *seconds* (at least ``sizes.min_rounds``), and with *traced* one
    extra traced round.  Returns the run's result document."""
    began = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    ctx = Context(seed, sizes, workdir, began + DEADLINE_S, extra_env)
    setups: list[Setup] = []
    rounds: list[Round] = []
    traced_round = None
    workload = make_workload(name, ctx)
    try:
        for _ in range(workload.setup_runs):
            setups.append(_guarded(workload.setup, "setup"))
        measuring = time.perf_counter()
        while (
            len(rounds) < sizes.min_rounds
            or time.perf_counter() - measuring < seconds
        ) and time.perf_counter() - began < LIMIT_S:
            rounds.append(_guarded(workload.round, "round"))
        if traced:
            traced_round = _guarded(lambda: workload.round(traced=True), "round")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    everything = rounds + ([traced_round] if traced_round else [])
    digests = [s.digest for s in setups if s.digest] + [r.digest for r in everything]
    mismatches = digest_failures(digests, pinned_digest(name, seed, sizes))
    attempted = len(setups) + sum(r.attempted for r in everything)
    failed = sum(s.failed for s in setups) + sum(r.failed for r in everything)
    failed += mismatches
    notes = [s.note for s in setups if s.failed and s.note]
    notes += [note for r in everything for note in r.notes]
    if mismatches:
        notes.append(f"{mismatches} output(s) differ from the reference digest")
    metrics = end_to_end(rounds, setups)
    latencies = [x for r in rounds for x in r.latencies]
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "correct": failed == 0 and bool(latencies),
        "attempted": max(attempted, 1),
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "metrics": metrics,
        "samples": {
            "rounds": len(rounds),
            "round_s": [r.seconds for r in rounds],
            "peak_rss_mb": [r.rss_mb for r in rounds],
            "setup_s": [s.seconds for s in setups],
            "jobs": len(latencies),
            "job_p50_ms": nearest_rank(latencies, 0.5)[0] * 1000,
            "job_p99": tail_percentile(latencies, 0.99),
        },
        "digest": Counter(d for d in digests if d).most_common(1)[0][0]
        if any(digests) else None,
        "notes": notes[:10],
    }
    if traced_round is not None and traced_round.trace is not None:
        document["per_layer"] = per_layer(
            traced_round.trace,
            traced_round.stdout,
            traced_round.seconds,
            metrics["round_s"],
        )
        document["trace"] = traced_round.trace
    return document


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def write_trace(document: dict, out: Path) -> None:
    if "trace" in document:
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"trace-{document['workload']}.json"
        path.write_text(json.dumps(document["trace"]), encoding="utf-8")


def result_line(document: dict, declared: list[dict], key: str) -> dict:
    """The one-line result: every declared metric of the kind asked
    for, by name with its unit."""
    values = document.get(key, {})
    return {
        "correct": document["correct"] and all(m["name"] in values for m in declared),
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }


def run_one(options, manifest: dict, sizes) -> int:
    traced = bool(options.trace)
    document = measure(options.workload, options.seed, options.seconds, sizes, traced)
    write_trace(document, options.out)
    declared = manifest["per_layer"] if traced else manifest["end_to_end"]
    line = result_line(document, declared, "per_layer" if traced else "metrics")
    for note in document["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"{document['workload']}: {document['samples']['rounds']} round(s), "
        f"{document['attempted']} attempted, {document['failed']} failed"
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_suite(options, manifest: dict, sizes) -> int:
    results = {
        "config": {
            "seed": options.seed,
            "runs": options.runs,
            "seconds": options.seconds,
            "sizes": asdict(sizes),
            "smoke": options.smoke,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    correct = True
    for name in WORKLOAD_NAMES:
        runs = [
            measure(name, options.seed + index, options.seconds, sizes)
            for index in range(options.runs)
        ]
        entry = {
            "runs": [
                {key: run[key] for key in (
                    "seed", "correct", "attempted", "failed", "metrics",
                    "samples", "digest", "notes",
                )}
                for run in runs
            ],
            "summary": {
                metric["name"]: {
                    **summary([run["metrics"][metric["name"]] for run in runs]),
                    "unit": metric["unit"],
                }
                for metric in manifest["end_to_end"]
            },
            "error_rate": sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs),
        }
        correct = correct and all(run["correct"] for run in runs)
        if options.trace:
            traced = measure(name, options.seed, options.seconds, sizes, traced=True)
            write_trace(traced, options.out)
            entry["per_layer"] = traced.get("per_layer", {})
            entry["traced_run"] = {
                key: traced[key] for key in ("seed", "correct", "failed", "notes")
            }
            correct = correct and traced["correct"]
        results["workloads"][name] = entry
        print(f"{name}: error rate {entry['error_rate']:.4f}")
        for metric, stat in entry["summary"].items():
            print(
                f"  {metric:14s} {stat['median']:>12.6g} {stat['unit']:6s} "
                f"[q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']}]"
            )
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:40s} {value:>14.6g}")
    options.out.mkdir(parents=True, exist_ok=True)
    path = options.out / "results.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results: {path}")
    return 0 if correct else 1


def _fleet_seeds() -> list[int]:
    """Fleet program seeds whose tables replay within
    ``FLEET_SIZE_BAND`` of the median record count of the scan."""
    first, last = FLEET_SEED_SCAN
    proc = subprocess.run(
        [sys.executable, str(HERE / "fleet_table.py"),
         "--processes", str(FULL.fleet_processes),
         "--scale", f"{FULL.fleet_scale:g}",
         "--count-events", str(first), str(last)],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "REPRO_ARTIFACT_DIR": "off"},
    )
    counts = {int(seed): events for seed, events in json.loads(proc.stdout).items()}
    middle = statistics.median(counts.values())
    return sorted(
        seed for seed, events in counts.items()
        if abs(events - middle) <= FLEET_SIZE_BAND * middle
    )


def pin() -> int:
    """Recompute the fleet's program seeds and the seed-42 digests, and
    check the paper output against the object-path oracle."""
    pins = {"inputs": input_sizes(FULL), "fleet_seeds": _fleet_seeds(), "digests": {}}
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"fleet seeds: {pins['fleet_seeds']}")
    once = replace(FULL, setups=1, min_rounds=2)
    for family, name in (
        ("paper", "paper-cold"), ("fleet-256", "fleet-256"),
        ("service-zipf", "service-zipf"),
    ):
        run = measure(name, PIN_SEED, 0.0, once)
        if not run["correct"]:
            print(f"{name}: run failed: {run['notes']}", file=sys.stderr)
            return 1
        pins["digests"][family] = run["digest"]
        print(f"{family}: {run['digest']}")
    oracle = measure("paper-cold", PIN_SEED, 0.0, once, extra_env={"REPRO_FASTPATH": "0"})
    if oracle["digest"] != pins["digests"]["paper"]:
        print(
            f"paper: object-path oracle digest {oracle['digest']} differs",
            file=sys.stderr,
        )
        return 1
    print("paper: object-path oracle (REPRO_FASTPATH=0) digest matches")
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    return 0


def parse_args(argv: list[str] | None, manifest: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload once and print one result line")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--runs", type=int, default=3,
                        help="suite mode: runs per workload (default: 3)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for results.json and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload for a quick end-to-end check")
    parser.add_argument("--pin", action="store_true",
                        help="recompute pins.json (fleet seeds, seed-42 digests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"bench: no program source under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    manifest = load_manifest()
    options = parse_args(argv, manifest)
    if options.pin:
        return pin()
    sizes = SMOKE if options.smoke else FULL
    if options.workload:
        return run_one(options, manifest, sizes)
    return run_suite(options, manifest, sizes)


if __name__ == "__main__":
    sys.exit(main())
