"""SharedPersistentCache: attachments, refcounted unmap, invariants."""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation, UnknownTraceError
from repro.policies.pseudocircular import PseudoCircularCache
from repro.shared.cache import SHARED_PERSISTENT, SharedPersistentCache


@pytest.fixture
def shared() -> SharedPersistentCache:
    return SharedPersistentCache(
        PseudoCircularCache(1000, name=SHARED_PERSISTENT)
    )


class TestAttachment:
    def test_insert_attaches_the_inserter(self, shared):
        shared.insert(0, 100, time=1, process=2, module_id=7)
        assert shared.contains(0)
        assert shared.processes_of(0) == (2,)
        shared.check_invariants()

    def test_attach_reuses_resident_copy(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared.attach(0, process=1, module_id=7)
        shared.attach(0, process=3, module_id=9)
        assert shared.processes_of(0) == (0, 1, 3)
        assert shared.attach_reuses == 2
        assert shared.reused_bytes == 200
        # One physical copy regardless of sharers.
        assert shared.used_bytes == 100
        assert shared.n_traces == 1

    def test_reattach_by_same_process_is_not_a_reuse(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared.attach(0, process=0, module_id=7)
        assert shared.attach_reuses == 0

    def test_attach_to_absent_trace_raises(self, shared):
        with pytest.raises(UnknownTraceError):
            shared.attach(5, process=0, module_id=7)


class TestDetach:
    def test_copy_survives_until_last_sharer_unmaps(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared.attach(0, process=1, module_id=7)

        evicted, detached = shared.detach_module(process=0, module_id=7)
        assert evicted == [] and detached == [0]
        assert shared.contains(0)
        assert shared.processes_of(0) == (1,)

        evicted, detached = shared.detach_module(process=1, module_id=7)
        assert [t.trace_id for t in evicted] == [0] and detached == [0]
        assert not shared.contains(0)
        shared.check_invariants()

    def test_detach_is_per_module(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared.insert(1, 100, time=2, process=0, module_id=8)
        evicted, detached = shared.detach_module(process=0, module_id=7)
        assert [t.trace_id for t in evicted] == [0] and detached == [0]
        assert shared.contains(1)

    def test_detach_unknown_module_is_noop(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        assert shared.detach_module(process=0, module_id=99) == ([], [])


class TestAccounting:
    def test_capacity_eviction_clears_attachments(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared.attach(0, process=1, module_id=7)
        shared.evict(0)
        assert not shared.contains(0)
        assert shared.processes_of(0) == ()
        shared.check_invariants()

    def test_placement_victims_lose_their_attachments(self):
        shared = SharedPersistentCache(
            PseudoCircularCache(250, name=SHARED_PERSISTENT)
        )
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared.insert(1, 100, time=2, process=1, module_id=7)
        victims = shared.insert(2, 100, time=3, process=0, module_id=7)
        assert victims  # something had to go
        shared.check_invariants()
        for victim in victims:
            assert shared.processes_of(victim.trace_id) == ()


class TestInvariants:
    def test_orphan_attachment_detected(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared._cache.remove(0)  # corrupt: resident and attachments disagree
        with pytest.raises(InvariantViolation, match="attachment"):
            shared.check_invariants()

    def test_zero_sharer_residency_detected(self, shared):
        shared.insert(0, 100, time=1, process=0, module_id=7)
        shared._attachments[0] = {}
        with pytest.raises(InvariantViolation, match="zero sharers"):
            shared.check_invariants()
