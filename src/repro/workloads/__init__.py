"""Workload catalog and generators.

The paper evaluates 26 SPEC2000 benchmarks (Linux, reference inputs)
and 12 interactive Windows applications (Table 1).  Neither substrate
is available here, so each benchmark is replaced by a calibrated
synthetic profile whose recorded trace log matches the aggregates the
paper reports for it (unbounded cache size, code expansion, insertion
rate, unmap fraction, lifetime U-shape).  See DESIGN.md for the
substitution argument.
"""

from repro.workloads.profiles import LifetimeMix, WorkloadProfile
from repro.workloads.spec2000 import SPEC2000_PROFILES, spec2000_profile
from repro.workloads.interactive import INTERACTIVE_PROFILES, interactive_profile
from repro.workloads.catalog import (
    all_profiles,
    get_profile,
    profiles_for_suite,
)
from repro.workloads.synthesis import synthesize_log

__all__ = [
    "INTERACTIVE_PROFILES",
    "LifetimeMix",
    "SPEC2000_PROFILES",
    "WorkloadProfile",
    "all_profiles",
    "get_profile",
    "interactive_profile",
    "profiles_for_suite",
    "spec2000_profile",
    "synthesize_log",
]
