"""Trace-driven code-cache simulation.

The arena models a code cache's address range at byte granularity —
placements, holes, fragmentation — and the simulator replays a trace
log against a cache manager, producing the hit/miss/eviction statistics
the paper's evaluation is built on.  The arena lives in
:mod:`repro.policies.arena`, beside the policies that own one each, so
that the policies never import this package; it is re-exported here.
"""

from repro.policies.arena import Arena, Placement
from repro.cachesim.stats import CacheStats, SimulationResult
from repro.cachesim.simulator import CacheSimulator, simulate_log

__all__ = [
    "Arena",
    "CacheSimulator",
    "CacheStats",
    "Placement",
    "SimulationResult",
    "simulate_log",
]
