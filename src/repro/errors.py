"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the API boundary while the library
itself raises the most specific subclass available.
"""

from __future__ import annotations

# The defaults of the limits behind the sanitizer's and the scheduler's
# errors live in this leaf module, so the CLI can build its parser
# without importing either subsystem.

#: Events between the sanitizer's full structural checks.  A full sweep
#: is O(resident traces); this stride keeps fig09-scale experiments
#: under 2x wall clock while corruption is still caught within ~1k
#: replayed events.
DEFAULT_STRIDE = 1024
#: Per-job wall-clock budget; full-scale figure jobs run minutes.
DEFAULT_TIMEOUT = 900.0
#: Extra attempts after the first before a job is marked failed.
DEFAULT_RETRIES = 2


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ArenaError(ReproError):
    """Base class for code-cache arena errors."""


class ArenaOverlapError(ArenaError):
    """A placement would overlap an already-placed trace."""


class ArenaBoundsError(ArenaError):
    """A placement would fall outside the arena's address range."""


class TraceTooLargeError(ArenaError):
    """A trace is larger than the cache that must hold it."""


class CacheFullError(ArenaError):
    """No eviction sequence can free enough space (e.g. everything is
    pinned as undeletable)."""


class UnknownTraceError(ReproError):
    """An operation referenced a trace id the cache has never seen."""


class DuplicateTraceError(ReproError):
    """A trace id was inserted while already resident."""


class LogFormatError(ReproError):
    """A trace log could not be parsed."""


class LogOrderError(LogFormatError):
    """Log records were not in non-decreasing time order."""


class WorkloadError(ConfigError):
    """A workload profile or generator was misconfigured.

    Subclasses :class:`ConfigError`: a bad profile *is* a bad
    configuration, so CLI verbs and the job scheduler treat it as a
    structured configuration error (exit code 2, no retries) instead
    of an opaque crash deep inside synthesis.
    """


class ScenarioError(ReproError):
    """A scenario search (calibration or fuzzing) failed to produce
    its result — e.g. a fuzz run that was required to surface a
    counterexample found none, or a scenario artifact references a
    contender that no longer exists."""


class ExperimentError(ReproError):
    """An experiment harness failed to produce its result table."""


class ServiceError(ReproError):
    """The simulation service failed to schedule or serve a job."""


class JobQueueFullError(ServiceError):
    """The scheduler's bounded admission queue rejected a submission."""


class JobNotFoundError(ServiceError):
    """A job id was requested that the scheduler has never seen."""


class DrainingError(ServiceError):
    """A submission was rejected because the scheduler (or shard) is
    draining: it finishes in-flight work but admits nothing new."""


class ShardError(ServiceError):
    """The cluster could not place a job on any shard (every shard is
    drained or dead, or an unknown shard name was referenced)."""


class OverloadedError(ServiceError):
    """Admission control shed the request (HTTP 429).

    Attributes:
        retry_after: Seconds the caller should wait before retrying —
            what the ``Retry-After`` response header carries.
        reason: Which admission gate shed the request (``"rate"``,
            ``"queue"``, or ``"fair-share"``), when known.
    """

    def __init__(
        self,
        message: str,
        retry_after: float = 1.0,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


class InvariantViolation(ReproError, AssertionError):
    """A simulation invariant did not hold.

    Raised by the runtime sanitizer
    (:class:`repro.analysis.sanitizer.SanitizerHarness`) with enough
    context to localize the corruption: which invariant, which cache,
    which trace, and at what virtual time.  Subclasses
    ``AssertionError`` as well so callers treating invariant checks as
    assertions keep working.

    Attributes:
        invariant: Stable id of the violated invariant.
        cache: Name of the offending cache, if cache-specific.
        trace_id: The offending trace, if trace-specific.
        time: Virtual time of the event being processed, if known.
        context: Free-form extra details (event repr, counts, extents).
        message: The bare message, without the location suffix.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        cache: str | None = None,
        trace_id: int | None = None,
        time: int | None = None,
        context: dict[str, object] | None = None,
    ) -> None:
        self.invariant = invariant
        self.message = message
        self.cache = cache
        self.trace_id = trace_id
        self.time = time
        self.context = dict(context or {})
        where = [
            part
            for part in (
                f"cache={cache}" if cache is not None else None,
                f"trace={trace_id}" if trace_id is not None else None,
                f"time={time}" if time is not None else None,
            )
            if part
        ]
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"[{invariant}] {message}{suffix}")
