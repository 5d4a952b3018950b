"""Content-addressed trace identity.

Two processes running the same binary generate structurally identical
traces with unrelated trace ids.  Sharing a cache across processes
therefore needs an identity that depends only on *what the trace is*,
not on who generated it: :class:`TraceKey` is a stable SHA-256 content
address (the same hashing discipline as :func:`repro.rand.derive_seed`,
so keys never depend on ``PYTHONHASHSEED`` or process state).

Every log here is synthesized, so a trace carries no instruction
body to hash: :meth:`TraceKey.from_workload` derives the key from the
trace's workload-level identity ``(namespace, trace id, size,
module)``.  The same benchmark binary always yields the same keys, so
homogeneous process mixes deduplicate fully.

The :class:`TraceInterner` maps keys to compact integer *gids* (what
the shared cache group stores) and accounts the duplicate bytes it
folded away.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.errors import InvariantViolation

#: Bump when the canonical content serialization changes; part of every
#: digest, so old and new keys can never collide silently.
TRACE_KEY_VERSION = 1

#: Hex digits kept from the SHA-256 digest (128 bits — collision-safe
#: for any plausible trace population).
_DIGEST_HEX_LEN = 32


def _digest(parts: Iterable[str]) -> str:
    body = f"trace-key-v{TRACE_KEY_VERSION}:" + "\x1f".join(parts)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:_DIGEST_HEX_LEN]


@dataclass(frozen=True, order=True)
class TraceKey:
    """Content address of one trace.

    Attributes:
        digest: Truncated SHA-256 hex digest of the canonical content
            serialization.
    """

    digest: str

    @classmethod
    def from_workload(
        cls, namespace: str, trace_id: int, size: int, module_id: int
    ) -> "TraceKey":
        """Key a synthesized-log trace by its workload identity.

        Synthesized logs carry no instruction bodies; the trace's
        identity within its binary is ``(trace id, size, module)``, and
        *namespace* names the binary (benchmark or shared library), so
        the same program yields the same keys in every process.
        """
        return cls(
            digest=_digest(
                [f"workload:{namespace}", str(trace_id), str(size), str(module_id)]
            )
        )

    def short(self) -> str:
        """First 12 hex digits, for labels and logs."""
        return self.digest[:12]


class TraceInterner:
    """Assigns one compact integer *gid* per distinct :class:`TraceKey`.

    The shared cache group stores gids (cheap dict keys with
    deterministic ordering); the interner owns the key <-> gid mapping
    and the dedup accounting.
    """

    def __init__(self) -> None:
        self._gids: dict[TraceKey, int] = {}
        self._keys: list[TraceKey] = []
        self._sizes: list[int] = []
        #: intern() calls that found an existing key.
        self.duplicate_requests = 0
        #: Total bytes of those duplicate requests (the code that did
        #: not need a second copy anywhere in the system).
        self.duplicate_bytes = 0

    def intern(self, key: TraceKey, size: int) -> tuple[int, bool]:
        """Return ``(gid, fresh)`` for *key*; ``fresh`` is True when
        the key was not seen before.

        Raises:
            InvariantViolation: if *key* was previously interned with a
                different size — content-equal traces must be
                byte-equal.
        """
        gid = self._gids.get(key)
        if gid is not None:
            if self._sizes[gid] != size:
                raise InvariantViolation(
                    "content-identity",
                    f"trace key {key.short()} interned with size {size} "
                    f"but previously {self._sizes[gid]}",
                    trace_id=gid,
                )
            self.duplicate_requests += 1
            self.duplicate_bytes += size
            return gid, False
        gid = len(self._keys)
        self._gids[key] = gid
        self._keys.append(key)
        self._sizes.append(size)
        return gid, True

    def lookup(self, key: TraceKey) -> int | None:
        """The gid for *key*, or None if never interned."""
        return self._gids.get(key)

    def key_of(self, gid: int) -> TraceKey:
        """The key a gid was assigned to."""
        return self._keys[gid]

    def size_of(self, gid: int) -> int:
        """The byte size recorded for a gid."""
        return self._sizes[gid]

    @property
    def n_unique(self) -> int:
        """Distinct keys interned."""
        return len(self._keys)

    @property
    def unique_bytes(self) -> int:
        """Total bytes over distinct keys."""
        return sum(self._sizes)
