"""Fleet-scale shared-cache simulation.

The :mod:`repro.shared` reference stack (eager per-process logs, a
per-record interleaver, :class:`~repro.shared.simulator.MultiProcessSimulator`)
is built for the paper's 2–8 process tables.  This package is the
same experiment at four more doublings — P = 1024 and beyond — built
from three scaling ideas:

* **streaming scheduler** (:func:`stream_segments`): O(1)-amortized
  turns over stream *shapes*, yielding index-range
  :class:`Segment`\\ s instead of per-record objects, with
  spawn/exit churn (:class:`ProcessStream`, :func:`churn_plan`);
* **lazy workloads** (:class:`FleetWorkloads`): each distinct
  (benchmark, library-reach) content is synthesized and packed
  once; processes are assignments plus cursors, so memory scales with
  *distinct* workloads, not the process count;
* **packed replay** (:class:`FleetSimulator`): the reference
  simulator's exact record semantics driven over shared record-major
  logs — byte-identical results at small P, a thousand processes at
  large P.

The Zipf library-popularity model feeding heterogeneous fleets lives
with the composition code (:func:`repro.shared.compose.zipf_reaches`).

This package root is the public surface; the ``fleet-api`` cachelint
rule confines the scheduler/workload/simulator internals to it.
"""

from repro.shared.fleet.scheduler import (
    ProcessStream,
    Segment,
    stream_segments,
)
from repro.shared.fleet.simulator import FleetSimulator
from repro.shared.fleet.workloads import (
    DEFAULT_CHURN_FRACTION,
    DistinctWorkload,
    FleetWorkloads,
    churn_plan,
)

__all__ = [
    "DEFAULT_CHURN_FRACTION",
    "DistinctWorkload",
    "FleetSimulator",
    "FleetWorkloads",
    "ProcessStream",
    "Segment",
    "churn_plan",
    "stream_segments",
]
