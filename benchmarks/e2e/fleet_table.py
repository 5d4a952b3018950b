"""The fleet-256 workload's program: print the fleet scaling table for
one process count.

    PYTHONPATH=src python benchmarks/e2e/fleet_table.py \\
        --seed 42 --processes 256 --scale 512

There is no CLI verb that restricts ``run fleet`` to one process count,
so this calls :func:`repro.experiments.fleet.run` directly.

``--count-events FIRST LAST`` instead prints, as JSON, how many records
the table would replay for each seed in that range (every policy
replays the same churned streams, so one policy's count is reported).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import fleet
from repro.experiments.base import render_table
from repro.shared.fleet import FleetWorkloads, churn_plan
from repro.shared.policy import MIX_KINDS


def count_events(seed: int, processes: int, scale: float) -> int:
    """Records one policy replays across both mixes of the table."""
    total = 0
    for mix in MIX_KINDS:
        workloads = FleetWorkloads.from_specs(
            fleet.fleet_specs(mix, processes, seed=seed),
            seed=seed,
            scale_multiplier=max(scale, fleet.FLEET_MIN_SCALE_MULTIPLIER),
        )
        streams = churn_plan(workloads.lengths(), seed=seed)
        total += sum(stream.effective_length for stream in streams)
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--processes", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--count-events", type=int, nargs=2, default=None,
                        metavar=("FIRST", "LAST"))
    options = parser.parse_args(argv)
    if options.count_events:
        first, last = options.count_events
        counts = {
            seed: count_events(seed, options.processes, options.scale)
            for seed in range(first, last + 1)
        }
        print(json.dumps(counts))
        return 0
    if options.seed is None:
        parser.error("--seed is required")
    result = fleet.run(
        seed=options.seed,
        scale_multiplier=options.scale,
        process_counts=(options.processes,),
    )
    print(render_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
