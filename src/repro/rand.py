"""Deterministic random-number streams.

Every stochastic component (the log synthesizer, the process
interleavers, the scenario search) draws from a named substream
derived from a single master seed, so a whole experiment is
reproducible from one integer while components remain independent of
each other's consumption order.
"""

from __future__ import annotations

import hashlib
import random

#: Re-exported so deterministic code can type-annotate its seeded
#: generators without importing the random module directly (which the
#: ``no-nondeterminism`` lint rule forbids outside this file).
Random = random.Random


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a substream seed from *master_seed* and a label.

    The derivation is a stable hash, so adding a new named stream never
    perturbs existing ones.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(master_seed: int, name: str) -> random.Random:
    """Return an independent :class:`random.Random` for *name*."""
    return random.Random(derive_seed(master_seed, name))


class RandomStreams:
    """A factory of named, independent random substreams.

    >>> streams = RandomStreams(42)
    >>> a = streams.get("long")
    >>> b = streams.get("sizes")
    >>> a is streams.get("long")
    True
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return (creating on first use) the substream for *name*."""
        if name not in self._streams:
            self._streams[name] = substream(self.master_seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """Return a new factory whose streams are independent of this
        one, keyed by *name* (used to give each benchmark its own
        family of substreams)."""
        return RandomStreams(derive_seed(self.master_seed, f"fork:{name}"))
