"""Timing work beside the reference loop."""

import os
import subprocess
import sys

import pytest

from refclock import CoreClock

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity"
)

BURN = "import os\nx = 0\nfor i in range(3_000_000): x += i\nprint(len(os.sched_getaffinity(0)))"


def test_work_runs_on_one_cpu_beside_the_loop():
    allowed = os.sched_getaffinity(0)
    with CoreClock() as clock:
        assert len(os.sched_getaffinity(0)) == 1
        child = subprocess.run(
            [sys.executable, "-c", BURN], capture_output=True, text=True, check=True,
        )
    assert child.stdout.strip() == "1"
    assert os.sched_getaffinity(0) == allowed
    assert 0.05 < clock.speed < 5.0
    assert clock.reference_seconds(2.0) == pytest.approx(2.0 * clock.speed)


def test_an_error_in_the_block_stops_the_loop_and_restores_the_cpus():
    allowed = os.sched_getaffinity(0)
    clock = CoreClock()
    with pytest.raises(RuntimeError):
        with clock:
            raise RuntimeError("work failed")
    assert os.sched_getaffinity(0) == allowed
    assert clock._loop is None
