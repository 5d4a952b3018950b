"""Command-line interface.

Examples::

    repro-gencache list                      # show the benchmark catalog
    repro-gencache run figure-9 --quick      # regenerate one figure
    repro-gencache run all --quick --jobs 4  # same, over a worker pool
    repro-gencache sweep word --jobs 8       # Section 6.1 sweep, parallel
    repro-gencache record gzip out.log       # synthesize + save a log
    repro-gencache profile figure-9 --quick  # cProfile + phase-timing JSON

    repro-gencache serve --port 8350         # one-shard service, 2 workers
    repro-gencache cluster-serve --shards 3  # the same front end, 3 shards
    repro-gencache loadgen --quick           # benchmark it -> BENCH_service
    repro-gencache submit figure-9 --quick   # run a job over HTTP
    repro-gencache status <job-id>           # poll one job
    repro-gencache fetch <job-id>            # print a finished table

    repro-gencache calibrate word --from-profile gzip   # inverse synthesis
    repro-gencache fuzz --victim generational --reference unified
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each handler imports the subsystem it runs, so building the parser
# (and every --help) loads no simulator, lint or service code.
from repro.errors import (
    DEFAULT_RETRIES,
    DEFAULT_STRIDE,
    DEFAULT_TIMEOUT,
    ConfigError,
    ServiceError,
)

#: Bind address of ``serve`` and ``cluster-serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8350

#: Fallback server URL for the client verbs (overridden by --server or
#: the REPRO_SERVER environment variable).
DEFAULT_SERVER = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"

#: Default on-disk result store for ``serve``.
DEFAULT_STORE = os.path.join("~", ".cache", "repro-gencache", "results")


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.units import format_bytes
    from repro.workloads.catalog import all_profiles

    print(f"{'name':12s} {'suite':12s} {'size':>10s} {'secs':>7s} {'unmap%':>7s}  description")
    for profile in all_profiles(include_scenarios=True):
        print(
            f"{profile.name:12s} {profile.suite:12s} "
            f"{format_bytes(profile.total_trace_bytes):>10s} "
            f"{profile.duration_seconds:7.0f} "
            f"{profile.unmap_fraction * 100:7.1f}  {profile.description}"
        )
    return 0


# ----------------------------------------------------------------------
# Argument validation (structured ConfigError -> exit code 2)
# ----------------------------------------------------------------------

def _validate_experiment_ids(ids: tuple[str, ...]) -> None:
    from repro.experiments.runner import (
        ALL_EXPERIMENT_IDS,
        EXTENSION_EXPERIMENT_IDS,
    )

    known = ALL_EXPERIMENT_IDS + EXTENSION_EXPERIMENT_IDS
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ConfigError(
            f"unknown experiment(s) {unknown}; choose from "
            f"{', '.join(known)} or 'all'"
        )


def _validate_scale(args: argparse.Namespace, allow_zero: bool = False) -> None:
    scale = getattr(args, "scale", 1.0)
    if scale < 0 or (scale == 0 and not allow_zero):
        raise ConfigError(
            f"--scale must be a positive divisor, got {scale:g}"
        )
    if getattr(args, "quick", False) and 0 < scale < 1.0:
        raise ConfigError(
            f"conflicting flags: --quick exists to shrink a run, but "
            f"--scale {scale:g} < 1 would inflate the workload; drop one"
        )


def _validate_dispatch(args: argparse.Namespace) -> None:
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if getattr(args, "server", None) and jobs > 1:
        raise ConfigError(
            "conflicting flags: --server delegates scheduling to the "
            "remote service; --jobs only applies to local pools"
        )


# ----------------------------------------------------------------------
# Sanitizer plumbing
# ----------------------------------------------------------------------


def _apply_sanitize(args: argparse.Namespace) -> None:
    """Turn on the process-wide replay sanitizer when requested."""
    if getattr(args, "sanitize", False):
        from repro.analysis.sanitizer import enable_sanitizer

        enable_sanitizer(stride=args.sanitize_stride)


def _print_sanitize_summary(
    args: argparse.Namespace, worker_jobs: int = 0
) -> None:
    if not getattr(args, "sanitize", False):
        return
    if worker_jobs:
        # The checks ran inside worker processes (a violation would
        # have failed the job), so the local TOTALS stay zero.
        print(
            f"sanitizer: invariant sweeps ran inside {worker_jobs} "
            "worker job(s); no violations"
        )
    else:
        from repro.analysis.sanitizer import TOTALS

        print(
            f"sanitizer: {TOTALS.checks} invariant sweep(s) over "
            f"{TOTALS.events} event(s) across {TOTALS.simulations} "
            "simulation(s); no violations"
        )


# ----------------------------------------------------------------------
# One-shot commands
# ----------------------------------------------------------------------


def _open_store(path: str | None):
    """The disk result store at *path*, or None when no path is given."""
    if not path:
        return None
    from repro.service.store import ResultStore

    return ResultStore(os.path.expanduser(path))


def _quick_subset(args: argparse.Namespace) -> list[str] | None:
    if not args.quick:
        return None
    from repro.experiments.dataset import quick_subset

    return quick_subset()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ALL_EXPERIMENT_IDS, render_all, run_all

    ids = ALL_EXPERIMENT_IDS if args.experiment == "all" else (args.experiment,)
    _validate_experiment_ids(ids)
    _validate_scale(args)
    _validate_dispatch(args)
    subset = _quick_subset(args)
    if args.server:
        return _run_via_server(args, ids, subset)
    _apply_sanitize(args)
    store = _open_store(args.store)
    results = run_all(
        seed=args.seed,
        scale_multiplier=args.scale,
        subset=subset,
        experiment_ids=tuple(ids),
        jobs=args.jobs,
        store=store,
        sanitize=args.sanitize,
        sanitize_stride=args.sanitize_stride,
    )
    print(render_all(results))
    _print_sanitize_summary(args, worker_jobs=len(ids) if args.jobs > 1 else 0)
    return 0


def _run_via_server(
    args: argparse.Namespace, ids: tuple[str, ...], subset: list[str] | None
) -> int:
    from repro.experiments.runner import experiment_specs, render_all
    from repro.service.client import ServiceClient
    from repro.service.jobs import TERMINAL_STATES
    from repro.service.workers import result_from_dict

    client = ServiceClient(args.server)
    specs = experiment_specs(
        tuple(ids),
        seed=args.seed,
        scale_multiplier=args.scale,
        subset=subset,
        sanitize=args.sanitize,
        sanitize_stride=args.sanitize_stride,
    )
    statuses = [client.submit(spec) for spec in specs]
    results = []
    cached = 0
    for status in statuses:
        if status.get("state") not in TERMINAL_STATES:
            status = client.wait(status["job_id"], timeout=args.timeout)
        if status.get("state") != "done":
            raise ServiceError(
                f"job {status.get('job_id')} failed: {status.get('error')}"
            )
        cached += bool(status.get("cached"))
        payload = client.result(status["job_id"])
        results.append(result_from_dict(payload["result"]))
    print(render_all(results))
    if cached:
        print(f"{cached}/{len(statuses)} job(s) served from the result store")
    _print_sanitize_summary(args, worker_jobs=len(ids))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import sweep as sweep_module
    from repro.experiments.base import render_table

    _validate_scale(args)
    _validate_dispatch(args)
    _apply_sanitize(args)
    store = _open_store(args.store)
    result = sweep_module.run(
        benchmark=args.benchmark,
        seed=args.seed,
        scale_multiplier=args.scale,
        jobs=args.jobs,
        store=store,
    )
    print(render_table(result))
    print()
    link = sweep_module.probation_threshold_link(
        benchmark=args.benchmark,
        seed=args.seed,
        scale_multiplier=args.scale,
        jobs=args.jobs,
        store=store,
    )
    print(render_table(link))
    _print_sanitize_summary(args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    _validate_experiment_ids((args.experiment,))
    _validate_scale(args)
    from repro.fastpath.profiling import profile_experiment

    subset = _quick_subset(args)
    out_dir = os.path.expanduser(args.out)
    os.makedirs(out_dir, exist_ok=True)
    profile_path = os.path.join(out_dir, f"profile_{args.experiment}.prof")
    report = profile_experiment(
        args.experiment,
        seed=args.seed,
        scale_multiplier=args.scale,
        subset=subset,
        sweep_benchmark=args.sweep_benchmark,
        top=args.top,
        profile_path=profile_path,
    )
    timing_path = os.path.join(out_dir, f"profile_{args.experiment}.json")
    rendered = json.dumps(report, indent=2, sort_keys=True)
    with open(timing_path, "w", encoding="utf-8") as stream:
        stream.write(rendered + "\n")
    print(rendered)
    print(
        f"profile: {profile_path} (pstats), {timing_path} (timing JSON)",
        file=sys.stderr,
    )
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.tracelog.binary import write_binary_log
    from repro.tracelog.writer import write_log
    from repro.units import format_bytes
    from repro.workloads.catalog import get_profile
    from repro.workloads.synthesis import synthesize_compiled

    _validate_scale(args, allow_zero=True)
    profile = get_profile(args.benchmark)
    log = synthesize_compiled(profile, seed=args.seed, scale=args.scale or None)
    if args.binary:
        write_binary_log(log, args.output)
    else:
        write_log(log, args.output)
    print(
        f"recorded {log.n_traces} traces / {log.n_accesses} accesses "
        f"({format_bytes(log.total_trace_bytes)}) to {args.output}"
        f"{' [binary]' if args.binary else ''}"
    )
    return 0


# ----------------------------------------------------------------------
# Scenario search commands
# ----------------------------------------------------------------------

#: --quick calibration: evaluation budget and the core parameter
#: subset the quick search is restricted to.
QUICK_CALIBRATE_BUDGET = 24
QUICK_CALIBRATE_PARAMETERS = (
    "total_trace_kb",
    "duration_seconds",
    "unmap_fraction",
    "lifetime_short",
    "lifetime_long",
)


def _load_target(args: argparse.Namespace):
    """The :class:`ScenarioTarget` a ``calibrate`` invocation fits."""
    from repro.scenarios.targets import ScenarioTarget, target_from_profile
    from repro.workloads.catalog import get_profile

    if (args.target is None) == (args.from_profile is None):
        raise ConfigError(
            "calibrate needs exactly one of --target FILE or "
            "--from-profile NAME"
        )
    if args.target is not None:
        try:
            with open(args.target, "r", encoding="utf-8") as stream:
                data = json.load(stream)
        except OSError as exc:
            raise ConfigError(f"cannot read target {args.target}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"target {args.target} is not valid JSON: {exc}"
            ) from exc
        return ScenarioTarget.from_dict(data)
    return target_from_profile(
        get_profile(args.from_profile), args.seed, args.scale
    )


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.scenarios.artifact import from_calibration
    from repro.scenarios.calibrate import calibrate
    from repro.workloads.catalog import get_profile

    if args.scale <= 0:
        raise ConfigError(f"--scale must be positive, got {args.scale:g}")
    base = get_profile(args.benchmark)
    if args.emit_target:
        from repro.scenarios.targets import target_from_profile

        target = target_from_profile(base, args.seed, args.scale)
        rendered = json.dumps(target.to_dict(), indent=2, sort_keys=True)
        with open(args.emit_target, "w", encoding="utf-8") as stream:
            stream.write(rendered + "\n")
        print(f"target for {base.name} written to {args.emit_target}")
        return 0
    target = _load_target(args)
    budget = args.budget
    parameters = (
        tuple(args.parameters.split(",")) if args.parameters else None
    )
    if args.quick:
        budget = min(budget, QUICK_CALIBRATE_BUDGET)
        if parameters is None:
            parameters = QUICK_CALIBRATE_PARAMETERS
    result = calibrate(
        target,
        base,
        seed=args.seed,
        scale=args.scale,
        budget=budget,
        tolerance=args.tolerance,
        parameters=parameters,
    )
    artifact = from_calibration(result, target.name)
    print(
        f"calibrated {base.name} -> {target.name}: objective "
        f"{result.best_objective:.4f} "
        f"({'converged' if result.converged else 'budget exhausted'} "
        f"after {result.evaluations} evaluations)"
    )
    for key, value in sorted(result.components.items()):
        print(f"  {key:15s} {value:.4f}")
    if args.out:
        path = artifact.save(os.path.expanduser(args.out))
        print(f"artifact {artifact.scenario_id} written to {path}")
    else:
        print(artifact.to_json(), end="")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.scenarios.artifact import from_counterexample
    from repro.scenarios.fuzz import fuzz

    result = fuzz(
        victim=args.victim,
        reference=args.reference,
        seed=args.seed,
        scale=args.scale,
        rounds=args.rounds,
        bases=tuple(args.base.split(",")),
        min_regret=args.min_regret,
    )
    print(
        f"fuzzed {result.victim} vs {result.reference}: "
        f"{len(result.counterexamples)} counterexample(s) from "
        f"{result.candidates} candidate(s) over {result.rounds} round(s); "
        f"best regret {result.best_regret * 100:.2f}%"
    )
    for cx in result.counterexamples:
        artifact = from_counterexample(cx)
        print(
            f"  {artifact.name}: regret "
            f"{artifact.expected_regret * 100:.2f}% at fraction "
            f"{cx.capacity_fraction:g} "
            f"(mutators: {', '.join(cx.mutators)}; "
            f"{cx.shrink_steps} shrink step(s))"
        )
        if args.out:
            path = artifact.save(os.path.expanduser(args.out))
            print(f"    written to {path}")
    if not result.counterexamples:
        print(
            "  no candidate cleared the regret threshold "
            f"({args.min_regret * 100:.2f}%); try more --rounds or "
            "another --reference"
        )
    return 0


# ----------------------------------------------------------------------
# Service commands
# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    # One shard of --jobs workers; admission and retention keep the
    # cluster defaults.
    return _serve_cluster(args, shards=1, workers_per_shard=args.jobs)


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    retention_kwargs = (
        {"completed_retention": args.retention}
        if args.retention is not None
        else {}
    )
    return _serve_cluster(
        args,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        admission={"watermark": args.watermark, "rate": args.rate},
        **retention_kwargs,
    )


def _serve_cluster(
    args: argparse.Namespace,
    shards: int,
    workers_per_shard: int,
    admission: dict | None = None,
    **cluster_kwargs,
) -> int:
    """Run the cluster front end until SIGTERM/SIGINT drains it."""
    from repro.cluster import (
        AdmissionController,
        ClusterScheduler,
        EventBus,
        TieredResultStore,
    )
    from repro.cluster.http import ClusterServer, serve_until_signal

    disk = _open_store(args.store)
    controller = AdmissionController(**(admission or {}))
    cluster = ClusterScheduler(
        shards=shards,
        workers_per_shard=workers_per_shard,
        store=TieredResultStore(disk),
        admission=controller,
        bus=EventBus(),
        timeout=args.timeout,
        max_retries=args.retries,
        **cluster_kwargs,
    )
    cluster.start()
    server = ClusterServer(cluster, host=args.host, port=args.port)
    host, port = server.start()

    def announce() -> None:
        print(
            f"repro-gencache cluster listening on http://{host}:{port} "
            f"({shards} shard(s) x {workers_per_shard} worker(s), "
            f"watermark {controller.watermark}"
            + (f", store {args.store})" if args.store else ", memory store)"),
            flush=True,
        )

    signum = serve_until_signal(server, grace=args.grace, on_ready=announce)
    print(
        f"signal {signum}: drained in-flight jobs, shutting down",
        file=sys.stderr,
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.cluster import loadgen as loadgen_module

    clients = args.clients
    requests = args.requests
    population = args.population
    if args.quick:
        clients = min(clients, 16)
        requests = min(requests, 6)
        population = min(population, 16)
    if args.server:
        document = loadgen_module.run_load(
            args.server,
            clients=clients,
            requests=requests,
            population=loadgen_module.build_population(
                population, seed=args.seed, scale=args.scale
            ),
            tenants=args.tenants,
            seed=args.seed,
            rounds=args.rounds,
        )
    else:
        document = loadgen_module.run_inprocess(
            shards=args.shards,
            workers_per_shard=args.workers_per_shard,
            store_dir=(
                os.path.expanduser(args.store) if args.store else None
            ),
            watermark=args.watermark,
            rate=args.rate,
            retention=args.retention,
            clients=clients,
            requests=requests,
            population_size=population,
            tenants=args.tenants,
            seed=args.seed,
            scale=args.scale,
            rounds=args.rounds,
        )
    json_path, text_path = loadgen_module.write_bench(
        document, os.path.expanduser(args.out)
    )
    print(loadgen_module.render_bench(document), end="")
    print(f"reports: {json_path}, {text_path}", file=sys.stderr)
    return 0


def _submit_spec(args: argparse.Namespace):
    """The :class:`JobSpec` a ``submit`` invocation describes.

    Either a positional experiment id or a raw ``--spec`` JSON object
    (any job kind, e.g. a single sweep-point or shared-cell job); both
    validate locally first, so a malformed spec is a ConfigError (exit
    2) before anything reaches the service.
    """
    if args.spec is not None:
        if args.experiment is not None:
            raise ConfigError(
                "pass either an experiment id or --spec, not both"
            )
        try:
            data = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--spec is not valid JSON: {exc}") from exc
        from repro.service.jobs import spec_from_dict

        return spec_from_dict(data)
    if args.experiment is None:
        raise ConfigError("submit needs an experiment id or --spec")
    if args.experiment == "all":
        raise ConfigError(
            "submit takes a single experiment id; use "
            "'run all --server URL' for the full set"
        )
    _validate_experiment_ids((args.experiment,))
    _validate_scale(args)
    from repro.experiments.runner import experiment_specs

    return experiment_specs(
        (args.experiment,),
        seed=args.seed,
        scale_multiplier=args.scale,
        subset=_quick_subset(args),
        sanitize=args.sanitize,
        sanitize_stride=args.sanitize_stride,
    )[0]


def _print_payload(payload: dict) -> None:
    """Print a fetched result: an experiment as its table, any other
    kind as JSON."""
    if payload.get("kind") == "experiment":
        from repro.experiments.base import render_table
        from repro.service.workers import result_from_dict

        print(render_table(result_from_dict(payload["result"])))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient
    from repro.service.jobs import TERMINAL_STATES

    spec = _submit_spec(args)
    client = ServiceClient(args.server)
    status = client.submit(spec)
    source = " (served from result store)" if status.get("cached") else ""
    print(f"job {status['job_id']}: {status['state']}{source}")
    if args.no_wait:
        return 0
    if status.get("state") not in TERMINAL_STATES:
        status = client.wait(status["job_id"], timeout=args.timeout)
    if status.get("state") != "done":
        raise ServiceError(
            f"job {status['job_id']} failed: {status.get('error')}"
        )
    _print_payload(client.result(status["job_id"]))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    status = ServiceClient(args.server).status(args.job_id)
    for key in ("job_id", "kind", "state", "cached", "attempts",
                "runtime_seconds", "error"):
        if status.get(key) is not None:
            print(f"{key}: {status[key]}")
    return 0 if status.get("state") != "failed" else 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    _print_payload(ServiceClient(args.server).result(args.job_id))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _add_sanitize_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="re-check cache/arena invariants during replay, raising "
        "InvariantViolation on the first corruption",
    )
    parser.add_argument(
        "--sanitize-stride", type=int, default=DEFAULT_STRIDE, metavar="N",
        help=f"events between invariant sweeps (default: {DEFAULT_STRIDE})",
    )


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", default=os.environ.get("REPRO_SERVER", DEFAULT_SERVER),
        metavar="URL",
        help="service base URL (default: $REPRO_SERVER or "
        f"{DEFAULT_SERVER})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-gencache",
        description=(
            "Generational code-cache management for dynamic optimizers "
            "(Hazelwood & Smith, MICRO 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the benchmark catalog")

    run_parser = sub.add_parser("run", help="regenerate a table/figure")
    run_parser.add_argument("experiment", help="experiment id or 'all'")
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="extra scale divisor on top of profile defaults",
    )
    run_parser.add_argument(
        "--quick", action="store_true",
        help="use the 8-benchmark representative subset",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan experiments out over N local worker processes",
    )
    run_parser.add_argument(
        "--server", default=None, metavar="URL",
        help="dispatch through a running repro-gencache service instead",
    )
    run_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="memoize job results in DIR (with --jobs)",
    )
    run_parser.add_argument(
        "--timeout", type=float, default=1800.0, metavar="SECS",
        help="how long to wait for remote jobs (with --server)",
    )
    _add_sanitize_flags(run_parser)

    sweep_parser = sub.add_parser("sweep", help="Section 6.1 config sweep")
    sweep_parser.add_argument("benchmark", nargs="?", default="word")
    sweep_parser.add_argument("--seed", type=int, default=42)
    sweep_parser.add_argument("--scale", type=float, default=1.0)
    sweep_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan sweep grid cells out over N local worker processes",
    )
    sweep_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="memoize sweep-point results in DIR (with --jobs)",
    )
    _add_sanitize_flags(sweep_parser)

    profile_parser = sub.add_parser(
        "profile",
        help="run one experiment under cProfile; emit phase-timing JSON",
    )
    profile_parser.add_argument("experiment", help="experiment id")
    profile_parser.add_argument("--seed", type=int, default=42)
    profile_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="extra scale divisor on top of profile defaults",
    )
    profile_parser.add_argument(
        "--quick", action="store_true",
        help="use the 8-benchmark representative subset",
    )
    profile_parser.add_argument(
        "--sweep-benchmark", default="word", metavar="NAME",
        help="benchmark for the sweep/capacity experiments",
    )
    profile_parser.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="functions to include in the timing JSON (default: 15)",
    )
    profile_parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the .prof and .json outputs (default: .)",
    )

    record_parser = sub.add_parser("record", help="synthesize and save a log")
    record_parser.add_argument("benchmark")
    record_parser.add_argument("output")
    record_parser.add_argument("--seed", type=int, default=42)
    record_parser.add_argument("--scale", type=float, default=0.0)
    record_parser.add_argument(
        "--binary", action="store_true",
        help="write the compact varint binary format instead of text",
    )

    calibrate_parser = sub.add_parser(
        "calibrate",
        help="fit a profile's parameters to a target statistic "
        "(inverse workload synthesis)",
    )
    calibrate_parser.add_argument(
        "benchmark", help="base profile the search starts from"
    )
    calibrate_parser.add_argument(
        "--target", default=None, metavar="FILE",
        help="scenario-target JSON to fit (see 'calibrate --emit-target')",
    )
    calibrate_parser.add_argument(
        "--from-profile", default=None, metavar="NAME",
        help="fingerprint NAME and use it as the target (round-trip mode)",
    )
    calibrate_parser.add_argument(
        "--emit-target", default=None, metavar="FILE",
        help="fingerprint the base benchmark, write the target JSON to "
        "FILE, and exit without searching",
    )
    calibrate_parser.add_argument("--seed", type=int, default=42)
    calibrate_parser.add_argument(
        "--scale", type=float, default=256.0,
        help="synthesis scale divisor for candidate evaluation "
        "(default: 256)",
    )
    calibrate_parser.add_argument(
        "--budget", type=int, default=96, metavar="N",
        help="candidate-evaluation budget (default: 96)",
    )
    calibrate_parser.add_argument(
        "--tolerance", type=float, default=0.05, metavar="X",
        help="objective value considered converged (default: 0.05)",
    )
    calibrate_parser.add_argument(
        "--parameters", default=None, metavar="A,B,...",
        help="restrict the search to these parameter names",
    )
    calibrate_parser.add_argument(
        "--quick", action="store_true",
        help=f"cap the budget at {QUICK_CALIBRATE_BUDGET} and search only "
        "the core parameters (smoke-test mode)",
    )
    calibrate_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="save the fitted-profile artifact into DIR "
        "(default: print JSON to stdout)",
    )

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="search for workloads where one policy loses to another",
    )
    fuzz_parser.add_argument(
        "--victim", default="generational", metavar="NAME",
        help="contender whose losses the search maximizes "
        "(default: generational)",
    )
    fuzz_parser.add_argument(
        "--reference", default="unified", metavar="NAME",
        help="contender it is compared against (default: unified)",
    )
    fuzz_parser.add_argument("--seed", type=int, default=42)
    fuzz_parser.add_argument(
        "--scale", type=float, default=128.0,
        help="synthesis scale divisor for candidate evaluation "
        "(default: 128)",
    )
    fuzz_parser.add_argument(
        "--rounds", type=int, default=24, metavar="N",
        help="mutation rounds (default: 24)",
    )
    fuzz_parser.add_argument(
        "--min-regret", type=float, default=0.01, metavar="X",
        help="miss-rate gap (0-1) a counterexample must reach "
        "(default: 0.01)",
    )
    fuzz_parser.add_argument(
        "--base", default="word,gcc", metavar="A,B,...",
        help="base profiles mutation starts from (default: word,gcc)",
    )
    fuzz_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="save surviving counterexample artifacts into DIR "
        "(load them back via REPRO_SCENARIO_DIR)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="start the HTTP simulation service (cluster-serve with one "
        "shard of --jobs workers)",
    )
    serve_parser.add_argument("--host", default=DEFAULT_HOST)
    serve_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve_parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker process count (default: 2)",
    )
    serve_parser.add_argument(
        "--store", default=DEFAULT_STORE, metavar="DIR",
        help=f"disk tier directory (default: {DEFAULT_STORE}; "
        "pass '' for a memory-only hot tier)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT, metavar="SECS",
        help="per-job wall-clock limit",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="extra attempts after a worker crash or timeout",
    )
    serve_parser.add_argument(
        "--grace", type=float, default=30.0, metavar="SECS",
        help="drain window after SIGTERM/SIGINT before hard shutdown "
        "(default: 30)",
    )

    cluster_parser = sub.add_parser(
        "cluster-serve",
        help="start the sharded cluster service (asyncio front end, "
        "admission control, tiered result store)",
    )
    cluster_parser.add_argument("--host", default=DEFAULT_HOST)
    cluster_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    cluster_parser.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="shard scheduler count (default: 3)",
    )
    cluster_parser.add_argument(
        "--workers-per-shard", type=int, default=1, metavar="N",
        help="worker processes per shard (default: 1)",
    )
    cluster_parser.add_argument(
        "--store", default=DEFAULT_STORE, metavar="DIR",
        help=f"disk tier directory (default: {DEFAULT_STORE}; "
        "pass '' for a memory-only hot tier)",
    )
    cluster_parser.add_argument(
        "--watermark", type=int, default=256, metavar="N",
        help="cluster-wide queue-depth shed watermark (default: 256)",
    )
    cluster_parser.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="global token-bucket admit rate (default: unlimited)",
    )
    cluster_parser.add_argument(
        "--retention", type=int, default=None, metavar="N",
        help="terminal job records kept per shard; older completions "
        "are answered from the tiered store (default: 1024)",
    )
    cluster_parser.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT, metavar="SECS",
        help="per-job wall-clock limit",
    )
    cluster_parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="extra attempts after a worker crash or timeout",
    )
    cluster_parser.add_argument(
        "--grace", type=float, default=30.0, metavar="SECS",
        help="drain window after SIGTERM/SIGINT before hard shutdown "
        "(default: 30)",
    )

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="drive concurrent synthetic clients at a cluster and emit "
        "BENCH_service.json",
    )
    loadgen_parser.add_argument(
        "--server", default=None, metavar="URL",
        help="drive an already-running service instead of an "
        "in-process cluster",
    )
    loadgen_parser.add_argument(
        "--clients", type=int, default=100, metavar="N",
        help="concurrent client threads (default: 100)",
    )
    loadgen_parser.add_argument(
        "--requests", type=int, default=20, metavar="N",
        help="submissions per client (default: 20)",
    )
    loadgen_parser.add_argument(
        "--population", type=int, default=64, metavar="N",
        help="distinct job specs in the Zipf population (default: 64)",
    )
    loadgen_parser.add_argument(
        "--tenants", type=int, default=4, metavar="N",
        help="tenant identities clients rotate through (default: 4)",
    )
    loadgen_parser.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="in-process shard count (default: 3)",
    )
    loadgen_parser.add_argument(
        "--workers-per-shard", type=int, default=1, metavar="N",
        help="worker processes per in-process shard (default: 1)",
    )
    loadgen_parser.add_argument(
        "--watermark", type=int, default=64, metavar="N",
        help="in-process shed watermark (default: 64)",
    )
    loadgen_parser.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="in-process token-bucket admit rate (default: unlimited)",
    )
    loadgen_parser.add_argument(
        "--rounds", type=int, default=2, metavar="N",
        help="identical load bursts separated by a drain; later rounds "
        "resubmit evicted jobs through the tiered store (default: 2)",
    )
    loadgen_parser.add_argument(
        "--retention", type=int, default=4, metavar="N",
        help="terminal job records each shard keeps in memory; small "
        "values force repeat hits through the tiered store (default: 4)",
    )
    loadgen_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="disk tier directory for the in-process cluster "
        "(default: temp dir)",
    )
    loadgen_parser.add_argument("--seed", type=int, default=42)
    loadgen_parser.add_argument(
        "--scale", type=float, default=512.0,
        help="synthesis scale divisor for the job population "
        "(default: 512)",
    )
    loadgen_parser.add_argument(
        "--quick", action="store_true",
        help="cap clients/requests/population at 16/6/16 (CI smoke mode)",
    )
    loadgen_parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for BENCH_service.json/.txt (default: .)",
    )

    submit_parser = sub.add_parser(
        "submit", help="submit one experiment job over HTTP"
    )
    submit_parser.add_argument(
        "experiment", nargs="?", default=None, help="experiment id"
    )
    submit_parser.add_argument(
        "--spec", default=None, metavar="JSON",
        help="submit a raw job spec object instead of an experiment id "
        "(any kind: sweep-point, replay, shared-cell, ...; a shared-cell "
        "names its table, shared or fleet, in experiment_id)",
    )
    submit_parser.add_argument("--seed", type=int, default=42)
    submit_parser.add_argument("--scale", type=float, default=1.0)
    submit_parser.add_argument(
        "--quick", action="store_true",
        help="use the 8-benchmark representative subset",
    )
    submit_parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return immediately",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=1800.0, metavar="SECS",
        help="how long to wait for completion",
    )
    _add_server_flag(submit_parser)
    _add_sanitize_flags(submit_parser)

    status_parser = sub.add_parser("status", help="show one job's state")
    status_parser.add_argument("job_id")
    _add_server_flag(status_parser)

    fetch_parser = sub.add_parser("fetch", help="print one finished result")
    fetch_parser.add_argument("job_id")
    _add_server_flag(fetch_parser)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Exit codes: 0 success, 1 service/runtime failure, 2 configuration
    error (bad flags, unknown ids, conflicting combinations).
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "profile": _cmd_profile,
        "record": _cmd_record,
        "calibrate": _cmd_calibrate,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "cluster-serve": _cmd_cluster_serve,
        "loadgen": _cmd_loadgen,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"repro-gencache: error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"repro-gencache: service error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
