"""Fleet stack: scheduler semantics, lazy workloads, engine byte-compat."""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.cachesim.simulator import simulate_log
from repro.core.config import FIGURE9_CONFIGS, GenerationalConfig
from repro.core.generational import GenerationalCacheManager
from repro.errors import ConfigError, InvariantViolation, LogOrderError
from repro.experiments.evaluation import baseline_capacity
from repro.experiments.shared import build_cell, mix_benchmarks, replay_cell
from repro.fastpath import pack_columns
from repro.shared.compose import (
    LIBRARY_CATALOG,
    ProcessWorkload,
    compose_specs,
    zipf_reaches,
)
from repro.shared.fleet import (
    FleetSimulator,
    FleetWorkloads,
    ProcessStream,
    churn_plan,
    stream_segments,
)
from repro.shared.fleet.workloads import _distill
from repro.shared.manager import make_group
from repro.shared.policy import POLICY_VARIANTS, sharing_config_for
from repro.shared.simulator import MultiProcessSimulator
from repro.sim.interleave import SCHEDULES
from tests.shared.test_simulator import composed
from tests.sim.test_interleave import (
    GOLDEN_SCHEDULE_DIGESTS,
    golden_logs,
    schedule_digest,
)

#: Fast scale for engine-equivalence replays.
SCALE = 128.0


def expand(streams, **kwargs):
    """Flatten a segment stream into per-record (process, index) pairs."""
    out = []
    for segment in stream_segments(streams, **kwargs):
        for index in range(segment.start, segment.stop):
            out.append((segment.process, index))
    return out


class TestSchedulerGolden:
    """The fleet scheduler must reproduce the frozen reference schedule
    when churn and weights are off (the P <= 8 anchor)."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_matches_reference_digest(self, schedule):
        logs = golden_logs()
        streams = [ProcessStream(length=len(log.records)) for log in logs]

        def scheduled():
            # Recompute (process, global_time) pairs exactly as the
            # reference interleaver defines them.
            last_time = [0] * len(logs)
            global_time = 0
            for process, index in expand(
                streams, schedule=schedule, seed=9, quantum=5
            ):
                record = logs[process].records[index]
                delta = record.time - last_time[process]
                if delta > 0:
                    global_time += delta
                last_time[process] = record.time
                yield process, global_time

        assert schedule_digest(scheduled()) == GOLDEN_SCHEDULE_DIGESTS[schedule]


class TestSchedulerSemantics:
    def test_every_record_exactly_once_in_order(self):
        streams = [ProcessStream(37), ProcessStream(11), ProcessStream(53)]
        pairs = expand(streams, schedule="round-robin", quantum=4)
        for process, stream in enumerate(streams):
            indices = [i for p, i in pairs if p == process]
            assert indices == list(range(stream.length))

    def test_deterministic(self):
        streams = [ProcessStream(40), ProcessStream(25), ProcessStream(31)]
        a = list(stream_segments(streams, schedule="random", seed=7))
        b = list(stream_segments(streams, schedule="random", seed=7))
        assert a == b

    def test_seed_changes_random_schedule(self):
        streams = [ProcessStream(40), ProcessStream(40)]
        a = list(stream_segments(streams, schedule="random", seed=1))
        b = list(stream_segments(streams, schedule="random", seed=2))
        assert a != b

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_spawn_turn_delays_admission(self, schedule):
        streams = [ProcessStream(50), ProcessStream(50, spawn_turn=6)]
        segments = list(
            stream_segments(streams, schedule=schedule, seed=3, quantum=5)
        )
        assert all(seg.process == 0 for seg in segments[:6])
        assert {seg.process for seg in segments} == {0, 1}

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_limit_truncates_stream(self, schedule):
        streams = [ProcessStream(50, limit=17), ProcessStream(50)]
        pairs = expand(streams, schedule=schedule, seed=3, quantum=5)
        assert [i for p, i in pairs if p == 0] == list(range(17))
        assert [i for p, i in pairs if p == 1] == list(range(50))

    def test_all_spawned_late_fast_forwards(self):
        streams = [ProcessStream(10, spawn_turn=40)]
        pairs = expand(streams, schedule="round-robin", quantum=4)
        assert [i for _, i in pairs] == list(range(10))

    def test_weighted_draw_skews_schedule(self):
        streams = [ProcessStream(400), ProcessStream(400)]
        heavy = expand(
            streams, schedule="random", seed=5, quantum=4, weights=[99.0, 1.0]
        )
        first = [p for p, _ in heavy[:200]]
        assert first.count(0) > 150  # the heavy process dominates early

    def test_weighted_schedule_complete(self):
        streams = [
            ProcessStream(33, limit=20),
            ProcessStream(47, spawn_turn=3),
            ProcessStream(21),
        ]
        pairs = expand(
            streams, schedule="random", seed=5, quantum=4,
            weights=[1.0, 10.0, 0.5],
        )
        assert [i for p, i in pairs if p == 0] == list(range(20))
        assert [i for p, i in pairs if p == 1] == list(range(47))
        assert [i for p, i in pairs if p == 2] == list(range(21))

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(schedule="fifo"), "schedule"),
            (dict(quantum=0), "quantum"),
            (dict(schedule="round-robin", weights=[1.0, 1.0]), "weights"),
            (dict(schedule="random", weights=[1.0]), "weights"),
            (dict(schedule="random", weights=[1.0, 0.0]), "weight"),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs, match):
        streams = [ProcessStream(5), ProcessStream(5)]
        with pytest.raises(ConfigError, match=match):
            list(stream_segments(streams, **kwargs))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError, match="stream"):
            list(stream_segments([]))

    def test_negative_stream_fields_rejected(self):
        for bad in (
            ProcessStream(-1),
            ProcessStream(5, spawn_turn=-2),
            ProcessStream(5, limit=-3),
        ):
            with pytest.raises(ConfigError):
                list(stream_segments([bad]))


class TestFleetWorkloads:
    def test_from_specs_dedupes_contents(self):
        reaches = zipf_reaches(32, len(LIBRARY_CATALOG), seed=42)
        palette = ["word", "gzip", "iexplore", "crafty"]
        specs = [(palette[i % 4], reaches[i]) for i in range(32)]
        fleet = FleetWorkloads.from_specs(specs, seed=42, scale_multiplier=SCALE)
        assert fleet.n_processes == 32
        # Distinct contents are bounded by palette x observed reaches,
        # never by the process count.
        assert len(fleet.distinct) <= 4 * len(set(reaches))
        assert len(fleet.distinct) < 32
        # Identical specs share one workload object.
        by_spec = {}
        for process, spec in enumerate(specs):
            workload = fleet.workload_of(process)
            assert by_spec.setdefault(spec, workload) is workload

    def test_reach_zero_is_the_bare_benchmark(self):
        fleet = FleetWorkloads.from_specs(
            [("crafty", 0), ("crafty", 1)], seed=42, scale_multiplier=SCALE
        )
        names = [w.name for w in fleet.distinct]
        assert names[0] == "crafty"
        assert names[1] == "crafty+shlib"

    def test_reach_outside_catalog_rejected(self):
        with pytest.raises(ConfigError, match="reach"):
            FleetWorkloads.from_specs([("crafty", len(LIBRARY_CATALOG) + 1)])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError, match="process"):
            FleetWorkloads.from_specs([])

    def test_records_are_the_log_row_by_row(self):
        specs = [("crafty", 1)]
        (workload,) = FleetWorkloads.from_specs(
            specs, seed=42, scale_multiplier=SCALE
        ).distinct
        _, distinct = compose_specs(specs, seed=42, scale_multiplier=SCALE)
        (process,) = distinct
        rows = list(process.log.compile().rows())
        assert workload.n_records == len(rows)
        assert workload.records.tolist() == [v for row in rows for v in row]
        assert workload.n_accesses == sum(row[5] for row in rows)
        assert workload.accesses_in(7) == sum(row[5] for row in rows[:7])

    def test_time_disorder_rejected(self):
        # create 1 @ 5, access 1 @ 3: time went backwards.
        log = pack_columns(
            "backwards", 0.0, 0,
            [[1, 2], [5, 3], [1, 1], [64, 0], [0, 0], [0, 1]],
        )
        workload = ProcessWorkload(name="backwards", log=log)
        with pytest.raises(LogOrderError, match="backwards at record 1"):
            _distill(workload)

    def test_zipf_reaches_shape(self):
        reaches = zipf_reaches(200, 4, seed=42)
        assert len(reaches) == 200
        assert all(1 <= r <= 4 for r in reaches)
        counts = [reaches.count(r) for r in (1, 2, 3, 4)]
        assert counts[0] == max(counts)  # rank 1 is the most popular

    def test_zipf_reaches_deterministic(self):
        assert zipf_reaches(50, 4, seed=9) == zipf_reaches(50, 4, seed=9)
        assert zipf_reaches(50, 4, seed=9) != zipf_reaches(50, 4, seed=10)


class TestChurnPlan:
    def test_deterministic(self):
        lengths = [100] * 64
        assert churn_plan(lengths, seed=1) == churn_plan(lengths, seed=1)
        assert churn_plan(lengths, seed=1) != churn_plan(lengths, seed=2)

    def test_zero_fraction_means_no_churn(self):
        streams = churn_plan([100] * 16, seed=1, fraction=0.0)
        assert all(s.spawn_turn == 0 and s.limit is None for s in streams)

    def test_limits_keep_majority_prefix(self):
        for stream in churn_plan([1000] * 64, seed=3):
            if stream.limit is not None:
                assert 500 <= stream.limit <= 900

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError, match="fraction"):
            churn_plan([10], fraction=1.5)


def reference_workloads(mix, processes, seed=42):
    """A ``shared`` table cell's per-process workloads, materialized
    by the one mix builder for the reference simulator."""
    specs = [(name, 1) for name in mix_benchmarks(mix, processes)]
    return composed(specs, seed=seed, scale_multiplier=SCALE)


def replay_reference(workloads, policy, schedule, seed=42):
    """*workloads* replayed by the reference
    :class:`MultiProcessSimulator` over per-process logs and the
    reference interleaver.  Returns the result and the replayed
    group."""
    capacities = tuple(
        baseline_capacity(w.log.total_trace_bytes) for w in workloads
    )
    group = make_group(
        capacities, GenerationalConfig(), sharing_config_for(policy)
    )
    simulator = MultiProcessSimulator(
        group, workloads, schedule=schedule, seed=seed
    )
    return simulator.run(), group


def replay_fleet(cell, policy, schedule):
    """A production cell replayed by the fleet engine exactly as
    :func:`replay_cell` replays it.  Returns the result and the
    replayed group."""
    group = make_group(
        cell.capacities, GenerationalConfig(), sharing_config_for(policy)
    )
    simulator = FleetSimulator(
        group,
        cell.workloads,
        schedule=schedule,
        seed=cell.seed,
        streams=cell.streams,
    )
    return simulator.run(), group


def resident_records(group) -> list:
    """Every cache's resident records, in arena order, as the fields a
    hit writes: ``(trace_id, access_count, last_access, pinned)``."""
    return [
        (
            cache.name,
            [
                (t.trace_id, t.access_count, t.last_access, t.pinned)
                for t in cache.traces()
            ],
        )
        for cache in group._iter_caches()
    ]


#: Every aggregate replay_cell reports straight from the replay outcome.
OUTCOME_FIELDS = (
    "total_capacity",
    "accesses",
    "miss_rate",
    "generated_bytes",
    "dedup_generations",
    "dedup_bytes",
    "resident_bytes",
    "duplicated_bytes",
    "unique_content_bytes",
)


class TestEngineEquivalence:
    """Every shared-cache cell runs on the fleet engine; it must
    reproduce the reference simulator exactly on the paper-scale
    tables: the aggregates ``replay_cell`` reports, every process's
    counters (hits by serving cache, evictions, promotions, dedup and
    generated bytes), and every cache's resident records, whose access
    counts and last-access times are the hits' global virtual time."""

    @pytest.mark.parametrize("mix", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("processes", [2, 4, 8])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_cells_identical_across_engines(self, mix, processes, schedule):
        cell = build_cell("shared", mix, processes, scale_multiplier=SCALE)
        workloads = reference_workloads(mix, processes)
        for policy in POLICY_VARIANTS:
            row = replay_cell(cell, policy, schedule=schedule)
            reference, reference_group = replay_reference(
                workloads, policy, schedule
            )
            assert {key: row[key] for key in OUTCOME_FIELDS} == {
                key: getattr(reference, key) for key in OUTCOME_FIELDS
            }, policy
            fleet, fleet_group = replay_fleet(cell, policy, schedule)
            assert len(fleet.processes) == len(reference.processes)
            for got, want in zip(fleet.processes, reference.processes):
                assert got == want, (policy, want.process)
            assert resident_records(fleet_group) == resident_records(
                reference_group
            ), policy


def replayed_fleet(policy: str) -> FleetSimulator:
    """A small heterogeneous fleet, replayed to completion."""
    workloads = FleetWorkloads.from_specs(
        [("crafty", 1), ("gzip", 1), ("crafty", 2), ("word", 1)],
        seed=42,
        scale_multiplier=SCALE,
    )
    capacities = tuple(
        baseline_capacity(workloads.workload_of(p).total_trace_bytes)
        for p in range(workloads.n_processes)
    )
    group = make_group(
        capacities, GenerationalConfig(), sharing_config_for(policy)
    )
    sim = FleetSimulator(group, workloads, seed=42)
    sim.run()
    return sim


class _DroppingTally(list):
    """A tally list that loses every hit counted into it."""

    def __setitem__(self, index, value):
        pass


class _HitLosingSimulator(FleetSimulator):
    def _bind(self, process):
        tallies = _DroppingTally(super()._bind(process))
        self._tallies[process] = tallies
        return tallies


class TestAccessCount:
    """Each process's accesses come from its replayed records, not from
    the replay's own hit count, so the stats check can catch lost hits."""

    def test_lost_hits_fail_the_stats_check(self):
        workloads = FleetWorkloads.from_specs(
            [("crafty", 1), ("gzip", 1)], seed=42, scale_multiplier=SCALE
        )
        capacities = tuple(
            baseline_capacity(workloads.workload_of(p).total_trace_bytes)
            for p in range(workloads.n_processes)
        )
        group = make_group(
            capacities, GenerationalConfig(), sharing_config_for("private")
        )
        with pytest.raises(InvariantViolation, match="accesses"):
            _HitLosingSimulator(group, workloads).run()


class TestResidencyDriftCheck:
    """The end-of-replay check catches residency maps that disagree
    with the group's caches."""

    @pytest.mark.parametrize("policy", POLICY_VARIANTS)
    def test_clean_replay_passes(self, policy):
        replayed_fleet(policy)._check_residency()

    def test_lost_entry_detected(self):
        sim = replayed_fleet("shared-all")
        del sim._shared[next(iter(sim._shared))]
        with pytest.raises(InvariantViolation, match="resident copies"):
            sim._check_residency()

    def test_stale_entry_detected(self):
        sim = replayed_fleet("shared-persistent")
        sim._shared[-1] = next(iter(sim._shared.values()))
        with pytest.raises(InvariantViolation, match="disagrees"):
            sim._check_residency()

    def test_stale_plain_record_detected(self):
        sim = replayed_fleet("private")
        local = sim._local[0]
        gid, (name, handler, trace) = next(
            (gid, entry) for gid, entry in local.items() if entry[2] is not None
        )
        local[gid] = (name, handler, dataclasses.replace(trace))
        with pytest.raises(InvariantViolation, match="disagrees"):
            sim._check_residency()


@functools.lru_cache(maxsize=None)
def one_process_fleet(name: str) -> FleetWorkloads:
    """Benchmark *name*'s bare log (no shared library) as a
    one-process fleet, at scale ÷8."""
    return FleetWorkloads.from_specs([(name, 0)], seed=42, scale_multiplier=8)


class TestOneProcessFleet:
    """A one-process private fleet is the paper's single-process world:
    the fleet engine and the batched loop, given the same log and the
    same generational manager config, must agree on every counter."""

    @pytest.mark.parametrize(
        "config", FIGURE9_CONFIGS, ids=["34-33-33-t10", "45-10-45-t1", "25-50-25-t10"]
    )
    @pytest.mark.parametrize(
        "name", ["gzip", "word", "iexplore", "crafty", "art", "solitaire"]
    )
    def test_stats_match_the_cache_simulator(self, name, config):
        fleet = one_process_fleet(name)
        workload = fleet.distinct[0]
        capacity = baseline_capacity(workload.total_trace_bytes)
        group = make_group((capacity,), config, sharing_config_for("private"))
        (summary,) = FleetSimulator(group, fleet).run().processes
        columns = [workload.records[field::6].tolist() for field in range(6)]
        log = pack_columns(name, 0.0, 0, columns)
        single = simulate_log(log, GenerationalCacheManager(capacity, config))
        assert summary.stats.promotions > 0
        assert dataclasses.asdict(summary.stats) == dataclasses.asdict(
            single.stats
        )
