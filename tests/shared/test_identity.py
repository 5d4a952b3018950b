"""Content-addressed trace identity: keys and the interner.

Property-style coverage of the identity contract: identical workload
identities intern to one key, any change to one does not, and keys are
stable across runs and platforms (a golden digest pins the
serialization).
"""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation
from repro.shared.identity import TraceInterner, TraceKey

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dep
    HAVE_HYPOTHESIS = False


class TestTraceKeyFromBlocks:
    def test_golden_digest_is_stable(self):
        # Pins the canonical serialization: if this changes,
        # TRACE_KEY_VERSION must be bumped (old and new keys would
        # otherwise collide silently across sessions).
        assert (
            TraceKey.from_workload("word", 7, 128, 0).digest
            == "c8414e3e0aaca07529e6b0e9d68f00dd"
        )


class TestTraceKeyFromWorkload:
    def test_same_identity_same_key(self):
        assert TraceKey.from_workload("gzip", 3, 200, 1) == TraceKey.from_workload(
            "gzip", 3, 200, 1
        )

    @pytest.mark.parametrize(
        "other",
        [
            ("gzip", 4, 200, 1),  # different trace id
            ("gzip", 3, 201, 1),  # different size
            ("gzip", 3, 200, 2),  # different module
            ("word", 3, 200, 1),  # different binary
        ],
    )
    def test_any_identity_change_changes_key(self, other):
        assert TraceKey.from_workload("gzip", 3, 200, 1) != (
            TraceKey.from_workload(*other)
        )

    def test_keys_are_orderable_and_hashable(self):
        keys = {
            TraceKey.from_workload("gzip", i, 100, 0): i for i in range(4)
        }
        assert len(keys) == 4
        assert sorted(keys) == sorted(keys, key=lambda k: k.digest)

    def test_short_prefix(self):
        key = TraceKey.from_workload("gzip", 1, 100, 0)
        assert key.short() == key.digest[:12]
        assert len(key.short()) == 12


if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(
        namespace=st.sampled_from(["word", "gzip", "__shlib__"]),
        trace_id=st.integers(min_value=0, max_value=1 << 25),
        size=st.integers(min_value=1, max_value=1 << 16),
        module_id=st.integers(min_value=0, max_value=1 << 21),
    )
    def test_workload_key_is_deterministic(namespace, trace_id, size, module_id):
        first = TraceKey.from_workload(namespace, trace_id, size, module_id)
        second = TraceKey.from_workload(namespace, trace_id, size, module_id)
        assert first == second
        assert len(first.digest) == 32
        int(first.digest, 16)  # valid hex

    @settings(max_examples=50, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=1,
            max_size=40,
        )
    )
    def test_interner_gids_follow_first_appearance(ids):
        interner = TraceInterner()
        expected: dict[int, int] = {}
        for trace_id in ids:
            key = TraceKey.from_workload("bench", trace_id, 64, 0)
            gid, fresh = interner.intern(key, 64)
            assert fresh == (trace_id not in expected)
            assert gid == expected.setdefault(trace_id, len(expected))
            assert interner.key_of(gid) == key
        assert interner.n_unique == len(expected)


class TestTraceInterner:
    def test_duplicate_accounting(self):
        interner = TraceInterner()
        key = TraceKey.from_workload("crafty", 1, 300, 0)
        gid, fresh = interner.intern(key, 300)
        assert fresh
        for _ in range(3):
            again, fresh = interner.intern(key, 300)
            assert again == gid and not fresh
        assert interner.duplicate_requests == 3
        assert interner.duplicate_bytes == 900
        assert interner.n_unique == 1
        assert interner.unique_bytes == 300

    def test_size_mismatch_raises(self):
        interner = TraceInterner()
        key = TraceKey.from_workload("crafty", 1, 300, 0)
        interner.intern(key, 300)
        with pytest.raises(InvariantViolation, match="size"):
            interner.intern(key, 301)

    def test_lookup_and_size_of(self):
        interner = TraceInterner()
        key = TraceKey.from_workload("crafty", 1, 300, 0)
        assert interner.lookup(key) is None
        gid, _ = interner.intern(key, 300)
        assert interner.lookup(key) == gid
        assert interner.size_of(gid) == 300
