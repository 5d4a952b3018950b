"""Span arithmetic, binding patches, and the per-layer derivation."""

import sys
import types

import pytest

import layers
from tracer import Tracer, metric_self_times, rescaled, root_time, self_times


def _span(span_id, parent, metric, start, end, **extra):
    return {
        "id": span_id, "parent": parent, "name": metric, "metric": metric,
        "start": start, "end": end, "run": "r", **extra,
    }


NESTED = [
    _span(1, None, "experiments.self_s", 0.0, 10.0),
    _span(2, 1, "workloads.synthesize_s", 1.0, 4.0),
    _span(3, 1, "cachesim.replay_s.generational", 5.0, 9.0, records=800),
    _span(4, 3, "kernels.plan_build_s", 6.0, 7.0),
    _span(5, None, "experiments.render_s", 10.5, 11.0),
]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(NESTED)
    assert selfs == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 0.5}
    assert metric_self_times(NESTED) == {
        "experiments.self_s": 3.0,
        "workloads.synthesize_s": 3.0,
        "cachesim.replay_s.generational": 3.0,
        "kernels.plan_build_s": 1.0,
        "experiments.render_s": 0.5,
    }
    assert root_time(NESTED) == 10.5
    assert sum(selfs.values()) == pytest.approx(root_time(NESTED))


def test_rescaling_scales_every_span_time():
    document = {"run": "r", "spans": NESTED, "elapsed_s": 12.0}
    half = rescaled(document, 0.5)
    assert half["elapsed_s"] == 6.0
    assert [(s["start"], s["end"]) for s in half["spans"]] == [
        (s["start"] / 2, s["end"] / 2) for s in NESTED
    ]
    assert metric_self_times(half["spans"])["experiments.self_s"] == 1.5
    assert NESTED[0]["end"] == 10.0


def test_per_layer_covers_the_round_and_derives_rates():
    trace = {"spans": NESTED, "elapsed_s": 12.0, "counters": {
        "hits": 3, "misses": 1, "streak_records": 50, "records_replayed": 100,
        "segment_commits": 3, "segment_side_exits": 1,
    }}
    stdout = b"note: best overall: 45-10-45 at 18.2%\nnote: geometric mean ratio: 80.7%\n"
    values = layers.per_layer(trace, stdout, traced_s=12.6, untraced_s=12.0)
    assert set(values) == set(layers.MOVES)
    assert values["trace.other_s"] == pytest.approx(1.5)
    assert values["trace.coverage_pct"] == pytest.approx(87.5)
    assert values["trace.overhead_pct"] == pytest.approx(5.0)
    assert values["cachesim.replays.generational"] == 1
    assert values["cachesim.records_per_s.generational"] == pytest.approx(800 / 3.0)
    assert values["workloads.logs_synthesized"] == 1
    assert values["artifacts.hit_ratio"] == pytest.approx(0.75)
    assert values["kernels.streak_coverage"] == pytest.approx(0.5)
    assert values["kernels.side_exit_ratio"] == pytest.approx(0.25)
    assert values["model.fig9_best_avg_reduction_pct"] == 18.2
    assert values["model.fig11_geomean_pct"] == 80.7
    assert values["service.submit_ms.p50"] == 0.0


@pytest.fixture
def fake_program():
    """A defining module and a caller that bound the function by name
    and in a module-level registry dict."""
    lib = types.ModuleType("repro._e2e_fake_lib")

    def work(x):
        return helper(x) + 1

    def helper(x):
        return x * 2

    lib.work = work
    lib.helper = helper
    work.__globals__["helper"] = helper

    class Engine:
        def run(self, n):
            return lib.work(n)

        @classmethod
        def build(cls, n):
            return cls()

    lib.Engine = Engine
    caller = types.ModuleType("repro._e2e_fake_caller")
    caller.work = work
    caller.REGISTRY = {"w": work}
    sys.modules[lib.__name__] = lib
    sys.modules[caller.__name__] = caller
    yield lib, caller
    del sys.modules[lib.__name__]
    del sys.modules[caller.__name__]


def test_patch_rebinds_every_copy_and_restores(fake_program):
    lib, caller = fake_program
    original = lib.work
    tracer = Tracer("run-1")
    assert tracer.patch_function(lib.__name__, "work", "layer.work_s")
    assert not tracer.patch_function(lib.__name__, "absent", "layer.x_s")
    assert caller.work is lib.work is caller.REGISTRY["w"]
    assert caller.work is not original
    assert caller.work(3) == 7 and caller.REGISTRY["w"](1) == 3
    assert [s["metric"] for s in tracer.spans] == ["layer.work_s"] * 2
    assert all(s["run"] == "run-1" and s["parent"] is None for s in tracer.spans)
    tracer.restore()
    assert caller.work is original is lib.work is caller.REGISTRY["w"]


def test_patched_methods_nest_and_tag(fake_program):
    lib, _ = fake_program
    tracer = Tracer("run-2")
    tracer.patch_function(lib.__name__, "work", "layer.work_s")
    tracer.patch_method(
        lib.__name__, "Engine.run", "layer.run_s",
        tagger=lambda args, kwargs: "fast", records=lambda args, kwargs: args[1],
    )
    tracer.patch_method(lib.__name__, "Engine.build", "layer.build_s")
    engine = lib.Engine.build(1)
    assert isinstance(engine, lib.Engine)
    assert engine.run(5) == 11
    by_metric = {s["metric"]: s for s in tracer.spans}
    outer = by_metric["layer.run_s.fast"]
    inner = by_metric["layer.work_s"]
    assert inner["parent"] == outer["id"]
    assert outer["records"] == 5
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    tracer.restore()
    assert "layer" not in type(lib.Engine.__dict__["run"]).__name__
    lib.Engine().run(1)
    assert len(tracer.spans) == 3
