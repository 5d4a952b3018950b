"""Unit tests for the byte arena."""

from __future__ import annotations

import pytest

from repro.cachesim import Arena
from repro.errors import (
    ArenaBoundsError,
    ArenaOverlapError,
    DuplicateTraceError,
    UnknownTraceError,
)


class TestPlacement:
    def test_place_and_lookup(self):
        arena = Arena(1000)
        placement = arena.place(1, 0, 100)
        assert placement.start == 0
        assert placement.end == 100
        assert 1 in arena
        assert arena.placement_of(1).size == 100

    def test_used_and_free_bytes(self):
        arena = Arena(1000)
        arena.place(1, 0, 100)
        arena.place(2, 100, 300)
        assert arena.used_bytes == 400
        assert arena.free_bytes == 600
        assert arena.n_traces == 2

    def test_place_rejects_overlap(self):
        arena = Arena(1000)
        arena.place(1, 100, 100)
        with pytest.raises(ArenaOverlapError):
            arena.place(2, 150, 100)

    def test_place_rejects_partial_overlap_from_below(self):
        arena = Arena(1000)
        arena.place(1, 100, 100)
        with pytest.raises(ArenaOverlapError):
            arena.place(2, 50, 60)

    def test_place_rejects_out_of_bounds(self):
        arena = Arena(1000)
        with pytest.raises(ArenaBoundsError):
            arena.place(1, 950, 100)
        with pytest.raises(ArenaBoundsError):
            arena.place(1, -10, 50)

    def test_place_rejects_zero_size(self):
        arena = Arena(1000)
        with pytest.raises(ArenaBoundsError):
            arena.place(1, 0, 0)

    def test_place_rejects_duplicate_trace(self):
        arena = Arena(1000)
        arena.place(1, 0, 100)
        with pytest.raises(DuplicateTraceError):
            arena.place(1, 500, 100)

    def test_exactly_adjacent_placements_are_legal(self):
        arena = Arena(1000)
        arena.place(1, 0, 100)
        arena.place(2, 100, 100)  # no overlap: [0,100) and [100,200)
        assert arena.used_bytes == 200

    def test_capacity_must_be_positive(self):
        with pytest.raises(ArenaBoundsError):
            Arena(0)


class TestRemoval:
    def test_remove_returns_placement(self):
        arena = Arena(1000)
        arena.place(1, 40, 100)
        placement = arena.remove(1)
        assert placement.start == 40
        assert 1 not in arena
        assert arena.used_bytes == 0

    def test_remove_unknown_raises(self):
        arena = Arena(1000)
        with pytest.raises(UnknownTraceError):
            arena.remove(99)

    def test_clear_returns_all_in_address_order(self):
        arena = Arena(1000)
        arena.place(2, 500, 100)
        arena.place(1, 0, 100)
        removed = arena.clear()
        assert [p.trace_id for p in removed] == [1, 2]
        assert arena.n_traces == 0
        assert arena.free_bytes == 1000


class TestOverlappingQuery:
    def test_finds_placement_extending_into_window(self):
        arena = Arena(1000)
        arena.place(1, 0, 100)
        hits = arena.overlapping(50, 60)
        assert [p.trace_id for p in hits] == [1]

    def test_finds_placements_starting_inside_window(self):
        arena = Arena(1000)
        arena.place(1, 100, 50)
        arena.place(2, 200, 50)
        hits = arena.overlapping(90, 210)
        assert [p.trace_id for p in hits] == [1, 2]

    def test_excludes_adjacent_placements(self):
        arena = Arena(1000)
        arena.place(1, 0, 100)
        arena.place(2, 200, 100)
        assert arena.overlapping(100, 200) == []

    def test_empty_window(self):
        arena = Arena(1000)
        arena.place(1, 0, 100)
        assert arena.overlapping(50, 50) == []

    def test_no_double_count_at_window_start(self):
        arena = Arena(1000)
        arena.place(1, 100, 50)
        hits = arena.overlapping(100, 200)
        assert [p.trace_id for p in hits] == [1]


class TestHolesAndFragmentation:
    def test_empty_arena_one_hole(self):
        arena = Arena(1000)
        assert arena.holes() == [(0, 1000)]
        assert arena.largest_hole() == 1000
        assert arena.fragmentation() == 0.0

    def test_full_arena_no_holes(self):
        arena = Arena(100)
        arena.place(1, 0, 100)
        assert arena.holes() == []
        assert arena.fragmentation() == 0.0

    def test_middle_hole(self):
        arena = Arena(300)
        arena.place(1, 0, 100)
        arena.place(2, 200, 100)
        assert arena.holes() == [(100, 200)]

    def test_fragmentation_two_equal_holes(self):
        arena = Arena(400)
        arena.place(1, 100, 100)
        arena.place(2, 300, 100)
        # Free: [0,100) and [200,300) -> largest 100 of 200 free.
        assert arena.fragmentation() == pytest.approx(0.5)

    def test_first_fit(self):
        arena = Arena(400)
        arena.place(1, 0, 100)
        arena.place(2, 150, 100)
        assert arena.first_fit(50) == 100
        assert arena.first_fit(100) == 250
        assert arena.first_fit(200) is None

    def test_invariants_hold_through_mutation(self):
        arena = Arena(500)
        arena.place(1, 0, 100)
        arena.place(2, 100, 100)
        arena.place(3, 300, 100)
        arena.remove(2)
        arena.place(4, 120, 60)
        arena.check_invariants()
        assert arena.used_bytes == 260
