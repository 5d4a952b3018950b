"""Compare two benchmark result files, metric by metric.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Both files come from ``bench.py`` in suite mode (``results.json``), run
with the same settings; run *i* of each used the same seed, so runs
pair up by index.  For every workload and end-to-end metric this
prints each side's median and quartiles and a verdict, using the
bounds and directions in ``BENCHMARK.json``:

* ``worse``      — the change's median is worse than the parent's by
  more than the bound;
* ``better``     — over at least ten pairs, the change wins at least
  nine tenths of them (ties count for neither) and the medians differ
  by more than the parent's interquartile range;
* ``unresolved`` — either side's runs spread (IQR / median) wider than
  the bound, unless every change run beats every parent run;
* ``same``       — none of the above.

An error rate above the parent's is ``worse`` too.  Exits 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import quartiles, relative_spread  # noqa: E402

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Pairs of runs below which no gain is claimed.
MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    if not parent or not change:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0  # > 0 means the change is worse
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if parent_median and sign * (change_median - parent_median) / abs(parent_median) > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, _, q3 = quartiles(parent)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (change_median - parent_median) < 0
        and abs(change_median - parent_median) > q3 - q1
    ):
        return "better"
    spread = max(relative_spread(parent), relative_spread(change))
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "same"


def _runs(results: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric] for run in results["workloads"][workload]["runs"]]


def _describe(values: list[float]) -> str:
    q1, _, q3 = quartiles(values)
    return f"{statistics.median(values):>11.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent: dict, change: dict, manifest: dict) -> list[tuple[str, str, str]]:
    """Print the comparison; returns (workload, metric, verdict) rows."""
    rows = []
    shared = [w for w in parent["workloads"] if w in change["workloads"]]
    for workload in shared:
        print(f"{workload}")
        print(f"  {'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  verdict")
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            before = _runs(parent, workload, name)
            after = _runs(change, workload, name)
            outcome = verdict(before, after, metric["better"], metric["bound"])
            rows.append((workload, name, outcome))
            print(
                f"  {name:14s} {_describe(before):>34s} {_describe(after):>34s}  "
                f"{outcome}"
            )
        before_errors = parent["workloads"][workload]["error_rate"]
        after_errors = change["workloads"][workload]["error_rate"]
        outcome = "worse" if after_errors > before_errors else "same"
        rows.append((workload, "error_rate", outcome))
        print(f"  {'error_rate':14s} {before_errors:>34.4g} {after_errors:>34.4g}  {outcome}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    options = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    parent = json.loads(options.parent.read_text(encoding="utf-8"))
    change = json.loads(options.change.read_text(encoding="utf-8"))
    rows = compare(parent, change, manifest)
    worse = [row for row in rows if row[2] == "worse"]
    unresolved = [row for row in rows if row[2] == "unresolved"]
    print(f"{len(rows)} comparisons: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
