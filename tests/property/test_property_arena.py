"""Property-based tests for the arena (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cachesim import Arena
from repro.errors import ArenaError, DuplicateTraceError


@st.composite
def placement_batches(draw):
    """A capacity plus a sequence of (trace_id, start, size) attempts."""
    capacity = draw(st.integers(min_value=64, max_value=4096))
    n = draw(st.integers(min_value=1, max_value=40))
    attempts = []
    for trace_id in range(n):
        start = draw(st.integers(min_value=0, max_value=capacity - 1))
        size = draw(st.integers(min_value=1, max_value=capacity))
        attempts.append((trace_id, start, size))
    return capacity, attempts


@given(placement_batches())
@settings(max_examples=120)
def test_arena_never_overlaps_and_accounts_bytes(batch):
    """Whatever sequence of placements is attempted, successful ones
    never overlap, stay in bounds, and the byte accounting is exact."""
    capacity, attempts = batch
    arena = Arena(capacity)
    placed_bytes = 0
    for trace_id, start, size in attempts:
        try:
            arena.place(trace_id, start, size)
            placed_bytes += size
        except ArenaError:
            pass
        except DuplicateTraceError:
            pass
        arena.check_invariants()
        assert arena.used_bytes == placed_bytes
        assert 0.0 <= arena.fragmentation() <= 1.0


@given(placement_batches(), st.data())
@settings(max_examples=80)
def test_holes_partition_free_space(batch, data):
    capacity, attempts = batch
    arena = Arena(capacity)
    for trace_id, start, size in attempts:
        try:
            arena.place(trace_id, start, size)
        except (ArenaError, DuplicateTraceError):
            pass
    holes = arena.holes()
    # Holes are disjoint, ordered, and sum to the free bytes.
    total = 0
    previous_end = -1
    for start, end in holes:
        assert start < end
        assert start > previous_end
        previous_end = end
        total += end - start
    assert total == arena.free_bytes
    # first_fit returns the first hole large enough.
    if holes:
        want = data.draw(
            st.integers(min_value=1, max_value=max(end - start for start, end in holes))
        )
        fit = arena.first_fit(want)
        assert fit is not None
        candidates = [start for start, end in holes if end - start >= want]
        assert fit == candidates[0]


class ArenaMachine(RuleBasedStateMachine):
    """Stateful check: interleaved places/removes keep the arena sound."""

    def __init__(self):
        super().__init__()
        self.arena = Arena(2048)
        self.next_id = 0
        self.live: dict[int, int] = {}  # trace -> size

    @rule(start=st.integers(0, 2047), size=st.integers(1, 512))
    def try_place(self, start, size):
        trace_id = self.next_id
        self.next_id += 1
        try:
            self.arena.place(trace_id, start, size)
            self.live[trace_id] = size
        except ArenaError:
            pass

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove_one(self, data):
        trace_id = data.draw(st.sampled_from(sorted(self.live)))
        placement = self.arena.remove(trace_id)
        assert placement.size == self.live.pop(trace_id)

    @precondition(lambda self: self.live)
    @rule()
    def clear_all(self):
        removed = self.arena.clear()
        assert {p.trace_id for p in removed} == set(self.live)
        self.live.clear()

    @invariant()
    def bytes_match(self):
        self.arena.check_invariants()
        assert self.arena.used_bytes == sum(self.live.values())
        assert set(self.arena.trace_ids()) == set(self.live)


TestArenaMachine = ArenaMachine.TestCase
