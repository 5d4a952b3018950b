"""Effect records emitted by cache managers.

These are deliberately dependency-free so both the managers (which emit
them) and the simulator/overhead layers (which consume them) can import
them without cycles.

The records are :class:`~typing.NamedTuple` classes rather than frozen
dataclasses: managers construct millions of them during a replay, and
a frozen dataclass pays an ``object.__setattr__`` per field on every
instantiation — switching cuts effect construction roughly 3x while
keeping immutability, field names, equality, and ``type(effect) is
Evicted`` dispatch intact.  The managers build them with positional
arguments, in field order: a keyword call to a NamedTuple class costs
about 1.6 times a positional one, and the miss path builds one or more
records per miss.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class EvictionReason(enum.Enum):
    """Why a trace left the system."""

    #: Displaced by the local policy to make room.
    CAPACITY = "capacity"
    #: Its module was unmapped (program-forced, Section 3.4).
    UNMAP = "unmap"
    #: Removed by a whole-cache preemptive flush.
    FLUSH = "flush"


class Inserted(NamedTuple):
    """A trace became resident in *cache*."""

    trace_id: int
    size: int
    cache: str


class Evicted(NamedTuple):
    """A trace left the system entirely."""

    trace_id: int
    size: int
    cache: str
    reason: EvictionReason


class Promoted(NamedTuple):
    """A trace moved from one cache to another (relocation +
    fix-ups; priced by the Table 2 promotion formula)."""

    trace_id: int
    size: int
    src: str
    dst: str


Effect = Inserted | Evicted | Promoted


class AccessOutcome(NamedTuple):
    """Result of notifying a manager of a (hitting) access.

    Attributes:
        cache: Name of the cache that served the hit.
        effects: Any effects the hit triggered (e.g. an on-hit
            promotion out of the probation cache).
    """

    cache: str
    effects: list[Effect]
