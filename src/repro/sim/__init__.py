"""Multi-process scheduling of trace logs.

:mod:`repro.sim.interleave` merges several processes' logs into one
deterministic timeline (round-robin or seeded-random quanta).  The
shared-cache simulator replays that timeline, and the fleet engine and
the service job specs share its schedule names and default quantum.
"""
