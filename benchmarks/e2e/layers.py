"""Per-layer metrics: what each should move, and how each is derived
from a traced round.

Every per-layer metric names, before anything is measured, the
end-to-end metric and workload it should move (``metric@workload``).
A workload that does not exercise a layer reports 0 for it.  Names,
units and directions live in ``BENCHMARK.json``; the tests check that
this table and that file list the same metrics.
"""

from __future__ import annotations

import re
from collections import defaultdict

from stats import nearest_rank
from tracer import metric_self_times, root_time

_COLD_WRITES = ("round_s@paper-cold", "setup_s@paper-warm")
_WARM_READS = ("round_s@paper-warm", "peak_rss_mb@paper-warm")
_REPLAY = ("round_s@paper-warm", "round_s@paper-cold")
_PAPER = ("round_s@paper-cold", "round_s@paper-warm")
_FLEET = ("round_s@fleet-256",)
_SERVICE = ("round_s@service-zipf", "jobs_per_s@service-zipf")
_FLEET_POLICIES = (
    "private", "shared-persistent", "shared-persistent-temp", "shared-all",
)
_MANAGERS = ("unified", "generational")

#: Per-layer metric -> the end-to-end metrics it should move.
MOVES: dict[str, tuple[str, ...]] = {
    "startup.import_s": ("setup_s@paper-cold", "setup_s@fleet-256") + _PAPER,
    # workloads + fastpath writes: the cold path.
    "workloads.synthesize_s": _COLD_WRITES,
    "workloads.logs_synthesized": _COLD_WRITES,
    "fastpath.compile_s": _COLD_WRITES,
    "kernels.plan_build_s": _COLD_WRITES,
    "artifacts.store_s": _COLD_WRITES,
    "artifacts.misses": _COLD_WRITES,
    "artifacts.io_s": _PAPER,
    # fastpath reads: the warm path.
    "artifacts.load_compiled_s": _WARM_READS,
    "artifacts.load_plan_s": _WARM_READS,
    "artifacts.hits": _WARM_READS,
    "artifacts.hit_ratio": _WARM_READS,
    "fastpath.decompile_s": _WARM_READS,
    "tracelog.summarize_s": _COLD_WRITES,
    # replay: cachesim over core/policies through fastpath.kernels.
    **{f"cachesim.replay_s.{kind}": _REPLAY for kind in _MANAGERS},
    **{f"cachesim.replays.{kind}": _REPLAY for kind in _MANAGERS},
    **{f"cachesim.records_per_s.{kind}": _REPLAY for kind in _MANAGERS},
    "kernels.specialized_replays": _REPLAY,
    "kernels.batched_replays": _REPLAY,
    "cachesim.object_replays": _REPLAY,
    "kernels.plans_built": _COLD_WRITES,
    "kernels.plans_loaded": _WARM_READS,
    "kernels.streak_coverage": _REPLAY,
    "kernels.side_exit_ratio": _REPLAY,
    "kernels.guard_aborts": _REPLAY,
    # experiments + metrics: tabulation and rendering.
    "experiments.self_s": _PAPER,
    "experiments.render_s": _PAPER,
    # Model outputs (ungated, informational): paper ~18 and 80.7.
    "model.fig9_best_avg_reduction_pct": (),
    "model.fig11_geomean_pct": (),
    # shared.fleet
    "fleet.workloads_s": _FLEET,
    **{f"fleet.replay_s.{policy}": _FLEET for policy in _FLEET_POLICIES},
    "fleet.events": _FLEET,
    "fleet.events_per_s": _FLEET,
    # service + cluster, measured at the client.  The gated service
    # metrics count CPU work, so the stages move them by the CPU they
    # spend; queueing is pure waiting and moves none of them.
    "service.submit_ms.p50": _SERVICE,
    "service.submit_ms.p99": _SERVICE,
    "service.wait_ms.p50": _SERVICE,
    "service.wait_ms.p99": _SERVICE,
    "service.fetch_ms.p50": _SERVICE,
    "service.fetch_ms.p99": _SERVICE,
    "service.execute_ms.p50": _SERVICE,
    "service.execute_ms.p99": _SERVICE,
    "service.queue_ms.p50": (),
    "service.queue_ms.p99": (),
    "service.inline_share": _SERVICE,
    "service.refetches": _SERVICE,
    "cluster.start_s": ("setup_s@service-zipf",),
    "cluster.hot_hit_rate": _SERVICE,
    "cluster.disk_hits": _SERVICE,
    "cluster.jobs_executed": _SERVICE,
    "cluster.shed": _SERVICE,
    # The traced pass itself.
    "trace.round_s": (),
    "trace.other_s": (),
    "trace.coverage_pct": (),
    "trace.overhead_pct": (),
}

_FIG9_BEST = re.compile(rb"best overall: .* at (-?[0-9.]+)%")
_FIG11_GEOMEAN = re.compile(rb"geometric mean ratio: (-?[0-9.]+)%")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _model_outputs(stdout: bytes, values: dict) -> None:
    best = _FIG9_BEST.search(stdout)
    geomean = _FIG11_GEOMEAN.search(stdout)
    if best:
        values["model.fig9_best_avg_reduction_pct"] = float(best.group(1))
    if geomean:
        values["model.fig11_geomean_pct"] = float(geomean.group(1))


def _counter_metrics(counters: dict, values: dict) -> None:
    def get(key: str) -> float:
        return counters.get(key, 0)

    values["artifacts.hits"] = get("hits")
    values["artifacts.misses"] = get("misses")
    values["artifacts.hit_ratio"] = _ratio(get("hits"), get("hits") + get("misses"))
    values["kernels.specialized_replays"] = get("specialized_replays")
    values["kernels.batched_replays"] = get("fast_replays") - get("specialized_replays")
    values["cachesim.object_replays"] = get("object_replays")
    values["kernels.plans_built"] = get("plans_built")
    values["kernels.plans_loaded"] = get("plans_loaded")
    values["kernels.streak_coverage"] = _ratio(
        get("streak_records"), get("records_replayed")
    )
    values["kernels.side_exit_ratio"] = _ratio(
        get("segment_side_exits"),
        get("segment_commits") + get("segment_side_exits"),
    )
    values["kernels.guard_aborts"] = get("guard_aborts")


def _service_metrics(trace: dict, values: dict) -> None:
    durations: dict[str, list[float]] = defaultdict(list)
    for span in trace["spans"]:
        durations[span["metric"]].append(span["end"] - span["start"])
    service = trace["service"]
    samples = {
        "submit": durations["service.submit_ms"],
        "wait": durations["service.wait_ms"],
        "fetch": durations["service.fetch_ms"],
        "execute": service["executes"],
        "queue": service["queues"],
    }
    for stage, seconds in samples.items():
        for label, q in (("p50", 0.5), ("p99", 0.99)):
            values[f"service.{stage}_ms.{label}"] = nearest_rank(seconds, q)[0] * 1000
    values["service.inline_share"] = _ratio(service["inline"], service["requests"])
    values["service.refetches"] = service["refetches"]
    values["cluster.start_s"] = service["start_s"]
    metrics = service["metrics"]
    store = metrics.get("store") or {}
    cluster = metrics.get("cluster") or {}
    values["cluster.hot_hit_rate"] = store.get("hot_hit_rate", 0.0)
    values["cluster.disk_hits"] = store.get("disk_hits", 0)
    # Store hits complete at submit; only executions count as completed.
    values["cluster.jobs_executed"] = cluster.get("jobs_completed", 0)
    values["cluster.shed"] = (metrics.get("admission") or {}).get("shed", 0)


def per_layer(trace: dict, stdout: bytes, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric for one traced round.

    *trace* is the span document (``spans``, the traced time span
    ``elapsed_s``, optional ``counters``, ``lanes`` and ``service``
    extras) in the round's time unit; *stdout* the program's output;
    *traced_s* the round's time measured like an untraced round's, and
    *untraced_s* the untraced median.
    """
    values: dict[str, float] = {name: 0.0 for name in MOVES}
    spans = trace["spans"]
    for metric, seconds in metric_self_times(spans).items():
        if metric in values:
            values[metric] = seconds

    records: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span["metric"]] += 1
        records[span["metric"]] += span.get("records", 0)
    values["workloads.logs_synthesized"] = calls["workloads.synthesize_s"]
    for kind in _MANAGERS:
        metric = f"cachesim.replay_s.{kind}"
        values[f"cachesim.replays.{kind}"] = calls[metric]
        values[f"cachesim.records_per_s.{kind}"] = _ratio(records[metric], values[metric])
    fleet_metrics = [f"fleet.replay_s.{policy}" for policy in _FLEET_POLICIES]
    values["fleet.events"] = sum(records[m] for m in fleet_metrics)
    values["fleet.events_per_s"] = _ratio(
        values["fleet.events"], sum(values[m] for m in fleet_metrics)
    )

    _counter_metrics(trace.get("counters", {}), values)
    _model_outputs(stdout, values)
    if "service" in trace:
        _service_metrics(trace, values)

    lanes = trace.get("lanes", 1)
    busy = trace["elapsed_s"] * lanes
    values["trace.round_s"] = traced_s
    values["trace.other_s"] = busy - root_time(spans)
    values["trace.coverage_pct"] = 100.0 * _ratio(root_time(spans), busy)
    values["trace.overhead_pct"] = 100.0 * (_ratio(traced_s, untraced_s) - 1.0)
    return values
