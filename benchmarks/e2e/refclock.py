"""Time work in CPU seconds at a fixed reference core speed.

The machines this benchmark runs on give it vCPUs that share physical
cores with other tenants.  A fixed Python loop timed in 10 ms pieces on
a 2-vCPU Xeon runs at one of two speeds, about 6.7 ms or 11.2 ms per
piece.  The speed switches every 0.1 to 1 s, and it switches on each
vCPU independently: two loops pinned to the two vCPUs at once read a
correlation of 0.00.  How much of a minute is spent slow drifts from
minute to minute, and CPU time slows exactly as wall time does.  So
raw times of one unchanged program spread 25 to 53% (interquartile
range over median) across runs taken minutes apart, and no median over
one run removes that.

``CoreClock`` therefore pins the measured work to one vCPU and runs a
reference loop there in a child process.  The scheduler interleaves
the loop with the work every few milliseconds, far faster than the
core changes speed, so the loop's speed over the block is the speed
the work saw.  The work's CPU time (user and system, from
``os.wait4`` or a thread's clock) multiplied by that speed relative to
``REFERENCE_RATE`` is the CPU time it would take on a core running at
the reference speed.  Over 32 back-to-back warm paper runs, raw CPU
time ranged from 2.40 to 3.73 s (an interquartile spread of 17%),
while this value stayed between 2.43 and 2.55 s (1.4%).

The loop runs in its own process so that it holds back no thread of
the benchmark through the interpreter lock.  It takes half the core,
so the work takes about twice as long by the wall clock.  Time the
work spends blocked does not count.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

#: Reference-loop spins (with their exit checks) per CPU second on an
#: uncontended vCPU of the 2-vCPU Xeon the baseline was measured on,
#: where the fast mode reads 850 to 880 and the slow one 500 to 550.
#: It fixes only the unit: there, a reference second is about one
#: uncontended CPU second.
REFERENCE_RATE = 860.0


def spin() -> None:
    """One step of the reference loop: about 1 ms of dict work."""
    table: dict[int, int] = {}
    for i in range(8000):
        table[i & 1023] = table.get(i & 2047, 0) + i


class CoreClock:
    """Pins the calling thread, and every thread and process it starts
    inside the block, to one CPU, and runs the reference loop on that
    CPU for the length of the block.

    After the block, ``speed`` is the CPU's speed relative to the
    reference over the block (1.0 if it could not be measured).
    """

    def __init__(self) -> None:
        self.speed = 1.0
        self._allowed: set[int] | None = None
        self._loop: subprocess.Popen | None = None

    def __enter__(self) -> "CoreClock":
        if hasattr(os, "sched_setaffinity"):
            self._allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._allowed)})
        try:
            self._loop = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            self._loop.stdout.readline()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self._loop is not None:
                out, _ = self._loop.communicate(timeout=30)
                spins, cpu_s = out.split()
                if float(cpu_s) > 0:
                    self.speed = int(spins) / float(cpu_s) / REFERENCE_RATE
        except (subprocess.TimeoutExpired, ValueError):
            self._loop.kill()
            self._loop.wait()
        finally:
            self._loop = None
            if self._allowed is not None:
                os.sched_setaffinity(0, self._allowed)
                self._allowed = None

    def reference_seconds(self, cpu_s: float) -> float:
        """*cpu_s* CPU seconds taken on the pinned CPU during the block,
        at the reference speed."""
        return cpu_s * self.speed


def _loop() -> None:
    """The reference loop process: report ready, spin until stdin
    closes, then print the spins and their CPU time."""
    print("ready", flush=True)
    spins = 0
    began = time.process_time()
    while not select.select([sys.stdin], [], [], 0)[0]:
        spin()
        spins += 1
    print(spins, time.process_time() - began, flush=True)


if __name__ == "__main__":
    _loop()
