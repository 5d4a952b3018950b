"""Constants and helpers the benchmark modules import.

They live here, not in ``conftest.py``, because ``benchmarks/e2e/tests``
has a ``conftest`` module of its own: with both collected in one run,
``from conftest import ...`` resolves to whichever was imported first.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.shared import compose_specs

RESULTS_DIR = Path(__file__).parent / "results"

#: Extra scale divisor for characterization benches (cheap per run).
CHARACTERIZATION_SCALE = 8.0
#: Extra scale divisor for the evaluation benches (heavier).
EVALUATION_SCALE = 8.0
#: Benchmark subset for the evaluation benches.
EVALUATION_SUBSET = [
    "gzip", "crafty", "eon", "art", "mcf", "word", "iexplore", "solitaire",
]


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing.

    The experiments are deterministic, seconds-long computations;
    repeated rounds would only burn wall-clock without improving the
    measurement.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def process_workloads(
    specs, scale_multiplier: float, *, decompiled: bool = False
) -> list:
    """The one mix builder's workload for each process of *specs*
    (seed 42): packed, as the reference simulator takes them, or with
    *decompiled* record-object logs (one per distinct workload), as the
    reference interleaver takes them."""
    assignment, composed = compose_specs(
        specs, seed=42, scale_multiplier=scale_multiplier
    )
    distinct = list(composed)
    if decompiled:
        distinct = [replace(w, log=w.log.decompile()) for w in distinct]
    return [distinct[index] for index in assignment]
