"""Outside-in span tracer for the benchmark's traced pass.

The program under test carries no tracing of its own.  Instead this
module wraps the public entry points of each layer from the outside:
it replaces every binding of a function (the defining module's
attribute, each ``from x import f`` copy in other ``repro`` modules,
and module-level dict entries such as ``runner.CHARACTERIZATION``) or
a class attribute for methods, so the call records a span whichever
way the caller looks the function up.

A span records its name, start, end, parent span and run id (plus a
request id for client-side service spans).  Spans are kept in memory
and written out once, when the run ends.  A layer's self time is its
spans' durations minus the part covered by their child spans.

Run as a script it is the traced runner for one workload program::

    python benchmarks/e2e/tracer.py --out spans.json --run-id r1 \\
        paper -- run all --quick --seed 42 --scale 8
    python benchmarks/e2e/tracer.py --out spans.json --run-id r1 \\
        fleet -- --seed 42 --processes 256 --scale 512

The program's own stdout is passed through unchanged, so the traced
run's output is checked against the same digest as an untraced run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span recorder.

    Args:
        run_id: Identifier stamped on every span of this run.
        origin: Clock reading that span times are relative to.
        clock: What spans are timed with: the wall clock by default, or
            the process's CPU time in the traced runner.
    """

    def __init__(
        self, run_id: str, origin: float | None = None, clock=time.perf_counter
    ) -> None:
        self.run_id = run_id
        self.clock = clock
        self.origin = clock() if origin is None else origin
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, object, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, metric: str, **extra):
        """Record the enclosed block as one span (nested under the
        innermost open span of this thread)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append({
                "id": span_id,
                "parent": parent,
                "name": name,
                "metric": metric,
                "start": start - self.origin,
                "end": end - self.origin,
                "run": self.run_id,
                **extra,
            })

    def wrap(self, fn, name: str, metric: str, tagger=None, records=None):
        """*fn* wrapped so each call records a span.  *tagger* maps the
        call's ``(args, kwargs)`` to a suffix of the span's metric;
        *records* maps them to a work count stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_metric = metric
            if tagger is not None:
                span_metric = f"{metric}.{tagger(args, kwargs)}"
            extra = {} if records is None else {"records": records(args, kwargs)}
            with self.span(name, span_metric, **extra):
                return fn(*args, **kwargs)

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def patch_function(
        self, module_name: str, attr: str, metric: str, tagger=None, records=None
    ) -> bool:
        """Wrap the function ``module_name.attr`` at every binding a
        loaded ``repro`` module holds.  Returns False when the function
        does not exist (the span is then simply absent)."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self.wrap(
            original, f"{module_name.rsplit('.', 1)[-1]}.{attr}", metric,
            tagger, records,
        )
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)
                elif isinstance(value, dict):
                    for item_key, item in list(value.items()):
                        if item is original:
                            self._set(value, item_key, wrapper)
        return True

    def patch_method(
        self, module_name: str, qualname: str, metric: str, tagger=None, records=None
    ) -> bool:
        """Wrap the method (or classmethod) ``Class.attr`` on its class."""
        class_name, attr = qualname.split(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        cls = getattr(module, class_name, None)
        if cls is None or attr not in vars(cls):
            return False
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(original.__func__, qualname, metric, tagger, records)
            )
        else:
            replacement = self.wrap(original, qualname, metric, tagger, records)
        self._set(cls, attr, replacement)
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def to_dict(self) -> dict:
        return {"run": self.run_id, "spans": list(self.spans)}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - covered[span["id"]]
        for span in spans
    }


def metric_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per span metric."""
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["metric"]] += selfs[span["id"]]
    return dict(totals)


def root_time(spans: list[dict]) -> float:
    """Time covered by spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def rescaled(document: dict, factor: float) -> dict:
    """The span document with every span time and ``elapsed_s``
    multiplied by *factor*."""
    spans = [
        {**span, "start": span["start"] * factor, "end": span["end"] * factor}
        for span in document["spans"]
    ]
    return {**document, "spans": spans, "elapsed_s": document["elapsed_s"] * factor}


# ----------------------------------------------------------------------
# Program entry points wrapped in the traced pass
# ----------------------------------------------------------------------


def _manager_kind(args, kwargs) -> str:
    name = type(args[0].manager).__name__
    return "generational" if name.startswith("Generational") else "unified"


def _log_records(args, kwargs) -> int:
    log = args[1] if len(args) > 1 else kwargs.get("log")
    try:
        return len(log)
    except TypeError:
        return len(getattr(log, "records", ()))


def _sharing_policy(args, kwargs) -> str:
    try:
        return args[0].group.sharing.label().replace("+temp", "-temp")
    except AttributeError:
        return "unknown"


def _fleet_events(args, kwargs) -> int:
    return sum(stream.effective_length for stream in args[0].streams)


#: (module, function or Class.method, span metric, tagger, work count).
ENTRY_POINTS = (
    ("repro.workloads.synthesis", "synthesize_log", "workloads.synthesize_s"),
    ("repro.tracelog.stats", "summarize_log", "tracelog.summarize_s"),
    ("repro.fastpath.compiled", "compile_log", "fastpath.compile_s"),
    ("repro.fastpath.compiled", "CompiledTraceLog.decompile", "fastpath.decompile_s"),
    ("repro.fastpath.kernels", "build_plan", "kernels.plan_build_s"),
    ("repro.fastpath.artifacts", "load_compiled_container", "artifacts.load_compiled_s"),
    ("repro.fastpath.artifacts", "load_plan_container", "artifacts.load_plan_s"),
    ("repro.fastpath.artifacts", "dump_compiled_container", "artifacts.store_s"),
    ("repro.fastpath.artifacts", "dump_plan_container", "artifacts.store_s"),
    ("repro.fastpath.artifacts", "ArtifactCache.compiled_log", "artifacts.io_s"),
    ("repro.fastpath.artifacts", "ArtifactCache.kernel_plan", "artifacts.io_s"),
    ("repro.fastpath.artifacts", "ArtifactCache.log_stats", "artifacts.io_s"),
    ("repro.cachesim.simulator", "CacheSimulator.run", "cachesim.replay_s",
     _manager_kind, _log_records),
    ("repro.experiments.evaluation", "run_evaluation", "experiments.self_s"),
    ("repro.experiments.runner", "render_all", "experiments.render_s"),
    ("repro.shared.fleet.workloads", "FleetWorkloads.from_specs", "fleet.workloads_s"),
    ("repro.shared.fleet.simulator", "FleetSimulator.run", "fleet.replay_s",
     _sharing_policy, _fleet_events),
)


def install_program_patches(tracer: Tracer) -> list[str]:
    """Wrap every entry point in :data:`ENTRY_POINTS` plus each loaded
    experiment module's ``run``; returns the ones that were missing."""
    missing = []
    for module_name, attr, metric, *hooks in ENTRY_POINTS:
        patch = tracer.patch_method if "." in attr else tracer.patch_function
        if not patch(module_name, attr, metric, *hooks):
            missing.append(f"{module_name}.{attr}")
    experiments = sorted(
        name for name in sys.modules
        if name.startswith("repro.experiments.")
        and callable(getattr(sys.modules[name], "run", None))
    )
    for name in experiments:
        tracer.patch_function(name, "run", "experiments.self_s")
    return missing


#: Process-wide counter dicts read as deltas when the program has them.
COUNTER_SOURCES = (
    ("repro.fastpath.replay", "FASTPATH_TOTALS"),
    ("repro.fastpath.artifacts", "ARTIFACT_TOTALS"),
)


def read_counters() -> dict[str, int]:
    """A flat snapshot of whichever counter dicts exist."""
    snapshot: dict[str, int] = {}
    for module_name, attr in COUNTER_SOURCES:
        try:
            counters = getattr(importlib.import_module(module_name), attr, None)
        except ImportError:
            counters = None
        if isinstance(counters, dict):
            snapshot.update(
                (key, value) for key, value in counters.items()
                if isinstance(value, (int, float))
            )
    return snapshot


# ----------------------------------------------------------------------
# Traced runner
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    # The benchmark runs this beside its reference loop, so spans are
    # timed in this process's CPU time, which the loop's share of the
    # core does not inflate.
    clock = time.process_time
    began = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="spans JSON to write")
    parser.add_argument("--run-id", default="traced")
    parser.add_argument("program", choices=("paper", "fleet"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    program_args = options.args
    if program_args and program_args[0] == "--":
        program_args = program_args[1:]

    tracer = Tracer(options.run_id, origin=began, clock=clock)
    with tracer.span("import", "startup.import_s"):
        if options.program == "paper":
            from repro import cli as program
        else:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import fleet_table as program
    missing = install_program_patches(tracer)
    before = read_counters()
    try:
        code = program.main(program_args)
    finally:
        sys.stdout.flush()
        ended = clock()
        after = read_counters()
        tracer.restore()
        document = tracer.to_dict()
        document["elapsed_s"] = ended - began
        document["counters"] = {
            key: after[key] - before.get(key, 0) for key in after
        }
        document["missing_entry_points"] = missing
        Path(options.out).write_text(json.dumps(document), encoding="utf-8")
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
