"""The four benchmark workloads and the rounds that measure them.

Every workload runs the program as a fresh process per round, with an
explicit artifact store (``REPRO_ARTIFACT_DIR``) and temp directory
under a per-run work directory, never the user's ``~/.cache``:

* ``paper-cold``   — ``repro-gencache run all --quick`` on an empty
  artifact store: what a first-time reproducer pays (synthesis,
  compile, plan build and artifact writes next to replay);
* ``paper-warm``   — the same command on a store filled during set-up:
  the repeat-run case (artifact loads, decompile and replay);
* ``fleet-256``    — the fleet scaling table for 256 processes: the
  fleet replay engine, which bypasses plans and the paper's dataset;
* ``service-zipf`` — ``cluster-serve`` under a closed loop of Zipf-drawn
  sweep-point requests: HTTP, admission, shard scheduling, worker IPC
  and the tiered result store, with little replay.

A round is one unit of measured work: one program run for the paper
and fleet workloads, one fresh server answering a fixed request stream
for the service workload.  Each round reports its time, peak RSS,
per-job latencies and an output digest, which the caller checks.

Every time the benchmark reports is CPU time at a reference core speed
(see ``refclock``): each program run (rounds, store fills, start-up
probes) and each service round (the server, its workers and the client
threads) runs inside a ``CoreClock``.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from refclock import CoreClock
from tracer import Tracer, rescaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PINS = HERE / "pins.json"

#: Longest a single program run may take before it is killed.
PROGRAM_TIMEOUT = 60.0

TERMINAL_STATES = ("done", "failed")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark configuration."""

    paper_scale: float
    fleet_processes: int
    fleet_scale: float
    service_requests: int
    service_population: int
    service_scale: float
    #: Set-up repetitions per run, whose median is ``setup_s``: start-up
    #: probes on paper-cold, fleet-256 and service-zipf.  paper-warm
    #: fills its store once, since a fill is a whole cold run.
    setups: int
    #: Rounds measured even when ``--seconds`` has already elapsed.
    min_rounds: int


#: The gated configuration.  The paper workloads run at a scale divisor
#: of 8 (not the CLI's 1) and the service stream at 1250 requests over
#: 512 specs (the same draws-per-spec ratio, and so about the same 76%
#: share of repeats, as 5000 over 2048) so that every round fits the
#: time budget several times over.
FULL = Sizes(
    paper_scale=8.0,
    fleet_processes=256,
    fleet_scale=512.0,
    service_requests=1250,
    service_population=512,
    service_scale=512.0,
    setups=3,
    min_rounds=1,
)

#: The smoke configuration the harness tests run end to end.
SMOKE = Sizes(
    paper_scale=64.0,
    fleet_processes=16,
    fleet_scale=512.0,
    service_requests=200,
    service_population=512,
    service_scale=512.0,
    setups=1,
    min_rounds=1,
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_sizes(sizes: Sizes) -> dict:
    """The fields of *sizes* that shape the inputs (not how often they
    are measured)."""
    return {
        key: value for key, value in asdict(sizes).items()
        if key not in ("setups", "min_rounds")
    }


def load_pins(sizes: Sizes) -> dict:
    """``pins.json`` (seed-42 output digests and the fleet's program
    seeds) when it was made for *sizes*' inputs, else ``{}``."""
    if not PINS.is_file():
        return {}
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    return pins if pins.get("inputs") == input_sizes(sizes) else {}


# ----------------------------------------------------------------------
# Running the program
# ----------------------------------------------------------------------


@dataclass
class ProgramRun:
    """One finished program process."""

    code: int
    #: CPU time (user and system, the process and the children it
    #: reaped) at the reference speed.
    seconds: float
    rss_mb: float
    stdout: bytes
    stderr: str
    #: The core's speed relative to the reference while it ran.
    speed: float


def _rss_mb(usage) -> float:
    # Linux reports ru_maxrss in KiB: the largest of the process and
    # the descendants it reaped.
    return usage.ru_maxrss / 1024.0


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _wait_with_timeout(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` the process (for its resource usage), killing it
    after *timeout* seconds.  Returns ``(exit code, rusage)``."""
    lock = threading.Lock()
    reaped = []

    def kill() -> None:
        with lock:
            if not reaped:
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    with lock:
        reaped.append(True)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Context:
    """Per-run state: seed, sizes, work directory and program env."""

    def __init__(
        self,
        seed: int,
        sizes: Sizes,
        workdir: Path,
        deadline: float,
        extra_env: dict[str, str] | None = None,
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        #: ``time.perf_counter()`` reading by which every program the
        #: run starts must have been stopped.
        self.deadline = deadline
        self.extra_env = dict(extra_env or {})
        self._counter = itertools.count()
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)

    def timeout(self) -> float:
        """How long the next program may run."""
        return max(1.0, min(PROGRAM_TIMEOUT, self.deadline - time.perf_counter()))

    def fresh_dir(self, prefix: str) -> Path:
        path = self.workdir / f"{prefix}-{next(self._counter)}"
        path.mkdir(parents=True)
        return path

    def env(self, artifact_dir: Path) -> dict[str, str]:
        """The program's environment: inherited, minus every ``REPRO_``
        setting, plus the explicit store and temp locations."""
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
        env["REPRO_ARTIFACT_DIR"] = str(artifact_dir)
        env["TMPDIR"] = str(self.workdir / "tmp")
        env.update(self.extra_env)
        return env

    def run(self, argv: list[str], artifact_dir: Path) -> ProgramRun:
        """Run *argv* to completion beside the reference loop on one
        vCPU; stdout and stderr go to files in the work directory so no
        pipe can fill up."""
        index = next(self._counter)
        out_path = self.workdir / f"stdout-{index}"
        err_path = self.workdir / f"stderr-{index}"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            with CoreClock() as clock:
                proc = subprocess.Popen(
                    argv, stdout=out, stderr=err, cwd=ROOT,
                    env=self.env(artifact_dir),
                )
                code, usage = _wait_with_timeout(proc, self.timeout())
            out.seek(0)
            err.seek(0)
            stdout = out.read()
            stderr = err.read().decode("utf-8", "replace")
        out_path.unlink()
        err_path.unlink()
        return ProgramRun(
            code, clock.reference_seconds(_cpu_s(usage)), _rss_mb(usage),
            stdout, stderr[-2000:], clock.speed,
        )


def _store_listing(store: Path) -> list[str]:
    return [str(path.relative_to(store)) for path in store.rglob("*") if path.is_file()]


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


@dataclass
class Round:
    """One measured unit of work."""

    #: CPU seconds at the reference speed.
    seconds: float
    rss_mb: float
    #: Per job: the round's time for a program round, the wall-clock
    #: latency of each request for a service round.
    latencies: list[float]
    digest: str | None
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    #: The program's stdout (paper and fleet rounds).
    stdout: bytes = b""
    #: Traced rounds: the span document and per-workload extras.
    trace: dict | None = None


@dataclass
class Setup:
    #: Reference CPU seconds.
    seconds: float
    failed: bool
    digest: str | None = None
    note: str | None = None


class Workload:
    """A named workload: set-up repetitions, then rounds."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: Set-up repetitions run before the rounds.
        self.setup_runs = ctx.sizes.setups

    def setup(self) -> Setup:  # pragma: no cover - overridden
        raise NotImplementedError

    def round(self, traced: bool = False) -> Round:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever set-up left behind."""


class ProgramWorkload(Workload):
    """A workload whose round is one run of a program: ``entry`` runs
    it untraced; the traced runner runs it as ``program``."""

    program = ""

    def entry(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def args(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def _program_round(self, artifacts: Path, traced: bool) -> Round:
        """Run the program (or its traced runner) once as a round."""
        spans = self.ctx.workdir / "spans.json"
        if traced:
            argv = [
                sys.executable, str(HERE / "tracer.py"), "--out", str(spans),
                "--run-id", f"{self.name}-{self.ctx.seed}", self.program,
                "--", *self.args(),
            ]
        else:
            argv = [*self.entry(), *self.args()]
        run = self.ctx.run(argv, artifacts)
        failed = run.code != 0
        notes = [f"exit {run.code}: {run.stderr.strip()[-500:]}"] if failed else []
        trace = None
        if traced and not failed:
            # The traced runner times spans in its own CPU time; scale
            # them to reference seconds like the round itself.
            trace = rescaled(json.loads(spans.read_text(encoding="utf-8")), run.speed)
            spans.unlink()
        return Round(
            seconds=run.seconds,
            rss_mb=run.rss_mb,
            latencies=[] if failed else [run.seconds],
            digest=None if failed else sha256(run.stdout),
            attempted=1,
            failed=int(failed),
            notes=notes,
            stdout=run.stdout,
            trace=trace,
        )

    def startup_probe(self, *probe_args: str) -> Setup:
        """The program invoked with ``--help``: interpreter start,
        imports and argument parsing."""
        run = self.ctx.run([*self.entry(), *probe_args, "--help"], self.ctx.workdir / "tmp")
        failed = run.code != 0
        note = f"start-up probe exit {run.code}: {run.stderr[-500:]}" if failed else None
        return Setup(run.seconds, failed, note=note)


class Paper(ProgramWorkload):
    """``repro-gencache run all --quick`` on a cold or a warm store."""

    program = "paper"

    def __init__(self, ctx: Context, warm: bool) -> None:
        super().__init__(ctx)
        self.warm = warm
        self.name = "paper-warm" if warm else "paper-cold"
        self.store: Path | None = None
        if warm:
            self.setup_runs = 1

    def entry(self) -> list[str]:
        return [sys.executable, "-m", "repro.cli"]

    def args(self) -> list[str]:
        return [
            "run", "all", "--quick", "--seed", str(self.ctx.seed),
            "--scale", f"{self.ctx.sizes.paper_scale:g}",
        ]

    def setup(self) -> Setup:
        if not self.warm:
            return self.startup_probe("run")
        # Fill a fresh store with one cold run; its output must match
        # the warm rounds', which checks cold == warm at every seed.
        self.close()
        self.store = self.ctx.fresh_dir("store")
        run = self.ctx.run([*self.entry(), *self.args()], self.store)
        failed = run.code != 0
        return Setup(
            run.seconds, failed,
            digest=None if failed else sha256(run.stdout),
            note=f"fill exit {run.code}: {run.stderr[-500:]}" if failed else None,
        )

    def round(self, traced: bool = False) -> Round:
        if not self.warm:
            store = self.ctx.fresh_dir("store")
            try:
                return self._program_round(store, traced)
            finally:
                shutil.rmtree(store, ignore_errors=True)
        if self.store is None:
            raise RuntimeError("paper-warm round before set-up")
        before = set(_store_listing(self.store))
        result = self._program_round(self.store, traced)
        added = sorted(set(_store_listing(self.store)) - before)
        if added:
            result.failed = result.attempted
            result.notes.append(
                f"warm run added {len(added)} file(s) to its store, e.g. {added[0]}"
            )
        return result

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None


class Fleet(ProgramWorkload):
    """The fleet scaling table for one process count.

    Fleet input size swings with the program seed (the table replays
    500k to 820k records per policy at 256 processes), which would
    drown any timing change.  So the run seed picks a program seed from
    the pinned list of seeds whose tables are within a few percent of
    the median size: every run seed gives different inputs of the same
    size.
    """

    name = "fleet-256"
    program = "fleet"

    def entry(self) -> list[str]:
        return [sys.executable, str(HERE / "fleet_table.py")]

    def program_seed(self) -> int:
        seeds = load_pins(self.ctx.sizes).get("fleet_seeds")
        return seeds[self.ctx.seed % len(seeds)] if seeds else self.ctx.seed

    def args(self) -> list[str]:
        sizes = self.ctx.sizes
        return [
            "--seed", str(self.program_seed()),
            "--processes", str(sizes.fleet_processes),
            "--scale", f"{sizes.fleet_scale:g}",
        ]

    def setup(self) -> Setup:
        return self.startup_probe()

    def round(self, traced: bool = False) -> Round:
        artifacts = self.ctx.fresh_dir("artifacts")
        try:
            return self._program_round(artifacts, traced)
        finally:
            shutil.rmtree(artifacts, ignore_errors=True)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------

#: The sweep-point population mixes these benchmarks (the --quick
#: subset), the unified manager and four generational layouts
#: (nursery, probation, persistent, promotion threshold).
POPULATION_BENCHMARKS = (
    "gzip", "crafty", "eon", "art", "mcf", "word", "iexplore", "solitaire",
)
POPULATION_LAYOUTS = (
    (0.1, 0.3, 0.6, 1),
    (0.1, 0.3, 0.6, 2),
    (0.2, 0.4, 0.4, 2),
    (0.3, 0.3, 0.4, 4),
)

#: cluster-serve flags: two shards of one worker each; retention 64
#: pushes repeats through the tiered store, and the watermark is far
#: above what two closed-loop clients can queue, so nothing is shed.
SERVER_FLAGS = (
    "--shards", "2", "--workers-per-shard", "1",
    "--retention", "64", "--watermark", "1024", "--grace", "10",
)
CLIENT_THREADS = 2

#: Job seeds of the sweep-point population.  The population is a fixed
#: catalog and the workload seed draws the request stream from it.  Over
#: 10 workload seeds, a stream's CPU work spread 9.4% (interquartile
#: range over median) when job seeds followed the workload seed too, and
#: 6.1% with this fixed catalog.  42 keeps seed 42's stream, and its
#: pinned digest, as they were.
POPULATION_SEED = 42


def population(size: int, seed: int, scale: float) -> list[dict]:
    """*size* sweep-point job specs, benchmark- and manager-diverse in
    every prefix; job seeds are *seed* plus the spec's row."""
    specs: list[dict] = []
    for offset in itertools.count():
        for benchmark in POPULATION_BENCHMARKS:
            base = {
                "kind": "sweep-point",
                "benchmark": benchmark,
                "seed": seed + offset,
                "scale_multiplier": scale,
            }
            specs.append({**base, "manager": "unified"})
            for nursery, probation, persistent, threshold in POPULATION_LAYOUTS:
                specs.append({
                    **base,
                    "manager": "generational",
                    "nursery": nursery,
                    "probation": probation,
                    "persistent": persistent,
                    "threshold": threshold,
                })
        if len(specs) >= size:
            return specs[:size]
    raise AssertionError("unreachable")


def zipf_draws(size: int, count: int, seed: int) -> list[int]:
    """*count* population ranks drawn with weight 1/(rank+1)."""
    weights = [1.0 / (rank + 1) for rank in range(size)]
    return random.Random(seed).choices(range(size), weights=weights, k=count)


class ServiceError(Exception):
    """A request that did not complete with a result."""


class _Client:
    """One closed-loop client: at most one connection open at a time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def call(self, method: str, path: str, body: bytes | None = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        try:
            return response.status, json.loads(data)
        except ValueError as exc:
            raise ServiceError(f"{method} {path}: non-JSON reply") from exc

    def wait_terminal(self, job_id: str) -> str | None:
        """Follow the job's event stream to a terminal state; None when
        the job is no longer known (retention evicted it)."""
        self.close()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status == 404:
                response.read()
                return None
            if response.status != 200:
                raise ServiceError(f"events for {job_id}: HTTP {response.status}")
            state = None
            while True:
                line = response.readline()
                if not line:
                    break
                if line.startswith(b"data: "):
                    state = json.loads(line[6:])["state"]
                    if state in TERMINAL_STATES:
                        break
            if state not in TERMINAL_STATES:
                raise ServiceError(f"event stream for {job_id} ended early")
            return state
        finally:
            conn.close()


@dataclass
class _Outcome:
    """What one client thread observed."""

    latencies: list[float] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    inline: int = 0
    refetches: int = 0
    executes: list[float] = field(default_factory=list)
    queues: list[float] = field(default_factory=list)
    #: The client thread's own CPU time.
    cpu_s: float = 0.0


class Service(Workload):
    """A fresh ``cluster-serve`` per round, driven by a closed loop.

    A round's time is its CPU work at the reference speed: the CPU time
    of the server and its workers from start to stop plus the client
    threads', all pinned to one vCPU with the reference loop.  Request
    latencies are recorded by the wall clock but not gated: over two
    minutes of a busy host the stream's wall time rose from 5.9 to 9.2 s
    (unpinned, no loop), and pinned beside the loop they measure the
    sharing, not the service.
    """

    name = "service-zipf"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        sizes = ctx.sizes
        specs = population(sizes.service_population, POPULATION_SEED, sizes.service_scale)
        self.bodies = [json.dumps(spec).encode("utf-8") for spec in specs]
        self.draws = zipf_draws(len(specs), sizes.service_requests, ctx.seed)

    # -- server lifecycle ------------------------------------------------

    def _start(self, store: Path, artifacts: Path):
        """Start the server; returns (process, port, seconds to healthy)."""
        began = time.perf_counter()
        with open(self.ctx.workdir / "server.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "cluster-serve",
                 *SERVER_FLAGS, "--port", "0", "--store", str(store)],
                stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                env=self.ctx.env(artifacts), start_new_session=True,
            )
        try:
            timer = threading.Timer(self.ctx.timeout(), proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline().decode("utf-8", "replace")
            finally:
                timer.cancel()
            match = re.search(r"http://[^\s:]+:(\d+)", line)
            if match is None:
                raise ServiceError(f"server did not start: {line!r}")
            port = int(match.group(1))
            probe = _Client(port)
            deadline = time.perf_counter() + self.ctx.timeout()
            while True:
                try:
                    status, body = probe.call("GET", "/healthz")
                    if status == 200 and body.get("status") == "ok":
                        break
                except (OSError, http.client.HTTPException):
                    pass
                if time.perf_counter() > deadline:
                    raise ServiceError("server never became healthy")
                time.sleep(0.01)
            probe.close()
        except BaseException:
            self._stop(proc)
            raise
        return proc, port, time.perf_counter() - began

    def _stop(self, proc: subprocess.Popen):
        """SIGTERM the server, reap it, and make sure nothing it started
        outlives it.  Returns ``(exit code, rusage)``; the usage covers
        the workers the server reaped."""
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        code, usage = _wait_with_timeout(proc, 30.0)
        proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                break
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        return code, usage

    def setup(self) -> Setup:
        """One server start, until every shard reports healthy, and its
        graceful stop, with no requests: the CPU time of the server and
        its workers at the reference speed."""
        store = self.ctx.fresh_dir("results")
        artifacts = self.ctx.fresh_dir("artifacts")
        try:
            with CoreClock() as clock:
                proc, _, _ = self._start(store, artifacts)
                code, usage = self._stop(proc)
        finally:
            shutil.rmtree(store, ignore_errors=True)
            shutil.rmtree(artifacts, ignore_errors=True)
        failed = code != 0
        note = f"server start probe exit {code}" if failed else None
        return Setup(clock.reference_seconds(_cpu_s(usage)), failed, note=note)

    # -- requests ----------------------------------------------------------

    def _request(
        self, client: _Client, index: int, body: bytes,
        tracer: Tracer | None, outcome: _Outcome,
    ) -> None:
        """Submit, wait for a terminal state, fetch the result.  A 404 on
        the fetch means retention evicted the finished record; the
        recovery docs/cluster.md gives is to resubmit (a store hit)."""

        def stage(name: str):
            if tracer is None:
                return contextlib.nullcontext()
            return tracer.span(name, f"service.{name}_ms", request=index)

        began = time.perf_counter()
        with stage("submit"):
            status, reply = client.call("POST", "/jobs", body)
        if status != 200:
            raise ServiceError(f"submit: HTTP {status} {reply.get('error')}")
        job_id = reply["job_id"]
        state = reply["state"]
        if state in TERMINAL_STATES:
            outcome.inline += 1
        else:
            wait_began = time.perf_counter()
            with stage("wait"):
                state = client.wait_terminal(job_id)
            waited = time.perf_counter() - wait_began
            if tracer is not None and state is not None:
                self._record_execute(client, job_id, waited, outcome)
        if state == "failed":
            raise ServiceError(f"job {job_id} failed")
        with stage("fetch"):
            status, payload = client.call("GET", f"/results/{job_id}")
            if status == 404:
                outcome.refetches += 1
                status, reply = client.call("POST", "/jobs", body)
                if status == 200 and reply["state"] not in TERMINAL_STATES:
                    client.wait_terminal(job_id)
                status, payload = client.call("GET", f"/results/{job_id}")
        if status != 200:
            raise ServiceError(f"fetch {job_id}: HTTP {status} {payload.get('error')}")
        outcome.latencies.append(time.perf_counter() - began)
        outcome.results[job_id] = payload

    def _record_execute(self, client, job_id, waited, outcome) -> None:
        status, reply = client.call("GET", f"/jobs/{job_id}")
        runtime = reply.get("runtime_seconds") if status == 200 else None
        if runtime is not None:
            outcome.executes.append(runtime)
            outcome.queues.append(max(0.0, waited - runtime))

    def _client_loop(self, port, lane, tracer, outcome) -> None:
        client = _Client(port)
        began = time.thread_time()
        try:
            for index in range(lane, len(self.draws), CLIENT_THREADS):
                try:
                    self._request(
                        client, index, self.bodies[self.draws[index]],
                        tracer, outcome,
                    )
                except (ServiceError, OSError, http.client.HTTPException,
                        KeyError) as exc:
                    outcome.failed += 1
                    if len(outcome.errors) < 3:
                        outcome.errors.append(f"request {index}: {exc}")
        finally:
            client.close()
            outcome.cpu_s = time.thread_time() - began

    def _stream(self, port: int, tracer: Tracer | None):
        """Send the request stream from the client threads; returns
        their outcomes, the stream's wall time, and the end-of-run
        ``/metrics`` reply (status and body)."""
        outcomes = [_Outcome() for _ in range(CLIENT_THREADS)]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(port, lane, tracer, outcomes[lane]),
                name=f"bench-client-{lane}",
            )
            for lane in range(CLIENT_THREADS)
        ]
        began = time.perf_counter()
        if tracer is not None:
            tracer.origin = began
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        probe = _Client(port)
        status, metrics = probe.call("GET", "/metrics")
        probe.close()
        return outcomes, wall, status, metrics

    def round(self, traced: bool = False) -> Round:
        store = self.ctx.fresh_dir("results")
        artifacts = self.ctx.fresh_dir("artifacts")
        tracer = Tracer(f"{self.name}-{self.ctx.seed}") if traced else None
        with CoreClock() as clock:
            proc, port, start_s = self._start(store, artifacts)
            try:
                outcomes, wall, status, metrics = self._stream(port, tracer)
            finally:
                _, usage = self._stop(proc)
                shutil.rmtree(store, ignore_errors=True)
                shutil.rmtree(artifacts, ignore_errors=True)
        cpu_s = _cpu_s(usage) + sum(outcome.cpu_s for outcome in outcomes)
        results: dict = {}
        for outcome in outcomes:
            results.update(outcome.results)
        failed = sum(outcome.failed for outcome in outcomes)
        notes = [error for outcome in outcomes for error in outcome.errors]
        refetches = sum(outcome.refetches for outcome in outcomes)
        if refetches:
            notes.append(
                f"{refetches} result(s) refetched after retention evicted "
                "the finished job's record"
            )
        cluster = metrics.get("cluster", {}) if status == 200 else {}
        shed = metrics.get("admission", {}).get("shed", 0) if status == 200 else 0
        if cluster.get("jobs_failed") or shed:
            notes.append(
                f"server reports {cluster.get('jobs_failed')} failed job(s), "
                f"{shed} shed"
            )
            failed = max(failed, 1)
        trace = None
        if tracer is not None:
            trace = {
                **tracer.to_dict(),
                "elapsed_s": wall,
                "lanes": CLIENT_THREADS,
                "service": {
                    "requests": len(self.draws),
                    "inline": sum(o.inline for o in outcomes),
                    "refetches": refetches,
                    "executes": [x for o in outcomes for x in o.executes],
                    "queues": [x for o in outcomes for x in o.queues],
                    "start_s": start_s,
                    "metrics": metrics if status == 200 else {},
                },
            }
        return Round(
            seconds=clock.reference_seconds(cpu_s),
            rss_mb=_rss_mb(usage),
            latencies=[x for o in outcomes for x in o.latencies],
            digest=sha256(
                json.dumps(results, sort_keys=True, separators=(",", ":")).encode()
            ),
            attempted=len(self.draws),
            failed=failed,
            notes=notes,
            trace=trace,
        )


def make_workload(name: str, ctx: Context) -> Workload:
    """The workload called *name*."""
    if name == "paper-cold":
        return Paper(ctx, warm=False)
    if name == "paper-warm":
        return Paper(ctx, warm=True)
    if name == "fleet-256":
        return Fleet(ctx)
    if name == "service-zipf":
        return Service(ctx)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("paper-cold", "paper-warm", "fleet-256", "service-zipf")
