"""The builtin cachelint rules.

Each rule encodes one invariant the reproduction's results depend on —
determinism of the simulator core, conformance of eviction policies to
the :class:`~repro.policies.base.CodeCache` contract, numeric hygiene
in the metrics layer, and the package boundaries in :data:`BOUNDARIES`.
See ``docs/analysis.md`` for the rationale and examples of every rule.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from repro.analysis.core import FileContext, Rule, Severity, register
from repro.units import KB, MB

#: Modules whose direct use makes a simulation nondeterministic (or
#: dependent on wall-clock state).  Randomness must come from
#: :mod:`repro.rand`'s seeded substreams instead.
NONDETERMINISTIC_MODULES = frozenset(
    {"random", "time", "datetime", "secrets", "uuid"}
)

#: Byte-unit magic numbers that must be spelled via repro.units.
_BYTE_LITERALS = {
    KB: "KB",
    MB: "MB",
}


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _body_does_nothing(body: list[ast.stmt]) -> bool:
    """True when a handler body is only ``pass``/docstring/``...``."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


@register
class NoNondeterminismRule(Rule):
    """Simulation code must be reproducible from the master seed: no
    ``random``/``time``/``datetime``-family imports and no salted
    builtin ``hash()`` outside :mod:`repro.rand`."""

    rule_id = "no-nondeterminism"
    description = (
        "sim core must not import random/time/datetime or call builtin "
        "hash(); route randomness through repro.rand"
    )
    severity = Severity.ERROR
    # scheduler.py, client.py and profiling.py legitimately consume
    # wall-clock time (timeouts, backoff, polling, phase timings), and
    # the cluster serving layer (admission buckets, latency benchmarks)
    # is wall-clock territory end to end; none of them touch simulated
    # state.
    exempt_paths = (
        "*repro/rand.py",
        "*repro/service/scheduler.py",
        "*repro/service/client.py",
        "*repro/fastpath/profiling.py",
        "*repro/cluster/*",
    )

    def visit_Import(self, ctx: FileContext, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in NONDETERMINISTIC_MODULES:
                ctx.report(
                    self,
                    node,
                    f"import of nondeterministic module {alias.name!r}; "
                    "use the seeded streams in repro.rand",
                )

    def visit_ImportFrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if node.level == 0 and root in NONDETERMINISTIC_MODULES:
            ctx.report(
                self,
                node,
                f"import from nondeterministic module {root!r}; "
                "use the seeded streams in repro.rand",
            )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            ctx.report(
                self,
                node,
                "builtin hash() is salted per-process (PYTHONHASHSEED); "
                "use repro.rand.derive_seed for stable hashing",
            )


class Boundary(NamedTuple):
    """One import-confinement boundary: code that only its own package
    may import or construct.  Each row of :data:`BOUNDARIES` registers
    as its own rule."""

    rule_id: str
    description: str
    #: Where the confined code lives (fnmatch patterns, never checked).
    exempt_paths: tuple[str, ...]
    #: What to do instead; ends every message.
    advice: str
    #: Modules no other file may import, by exact dotted name.
    modules: frozenset[str] = frozenset()
    #: Top-level modules no other file may import anything from.
    module_roots: frozenset[str] = frozenset()
    #: Classes no other file may call, bare or as an attribute.
    constructors: frozenset[str] = frozenset()
    #: Names no other file may import from any ``repro.*`` module.
    names: frozenset[str] = frozenset()


#: The import boundaries; see ``docs/analysis.md`` for each rationale.
BOUNDARIES = (
    # The simulator core is single-threaded by design (replay results
    # must not depend on interleaving), so worker pools, locks and
    # queues only appear in the serving layers.
    Boundary(
        rule_id="no-raw-concurrency",
        description=(
            "threading/multiprocessing/queue/concurrent/asyncio imports "
            "are confined to repro.service and repro.cluster; the "
            "simulation core stays single-threaded"
        ),
        exempt_paths=("*repro/service/*", "*repro/cluster/*"),
        advice="dispatch through the service layer",
        module_roots=frozenset(
            {
                "threading",
                "_thread",
                "multiprocessing",
                "concurrent",
                "queue",
                "asyncio",
            }
        ),
    ),
    # Tightens the row above for the event loop: asyncio and the
    # EventBus thread->loop bridge live in the cluster front end only.
    Boundary(
        rule_id="cluster-api",
        description=(
            "asyncio imports and repro.cluster.events internals are "
            "confined to repro.cluster; other layers use the streaming "
            "HTTP API"
        ),
        exempt_paths=("*repro/cluster/*",),
        advice="the event loop lives in repro.cluster; consume events "
        "via the streaming HTTP API",
        modules=frozenset({"repro.cluster.events"}),
        module_roots=frozenset({"asyncio"}),
    ),
    # The shared cache's raw mutators skip the group manager's
    # attachment and pin-claim bookkeeping.
    Boundary(
        rule_id="shared-cache-api",
        description=(
            "SharedPersistentCache construction/mutation is confined to "
            "repro.shared; other layers go through the cache group manager"
        ),
        exempt_paths=("*repro/shared/*",),
        advice="drive the shared cache through make_group",
        modules=frozenset({"repro.shared.cache"}),
        constructors=frozenset({"SharedPersistentCache"}),
        names=frozenset({"SharedPersistentCache"}),
    ),
    # Replay correctness depends on every column writer keeping the six
    # packed arrays in lockstep.  binary.py decodes straight into packed
    # columns (the sanctioned serialization fast path).
    Boundary(
        rule_id="fastpath-api",
        description=(
            "repro.fastpath.compiled/replay imports and direct "
            "CompiledTraceLog construction are confined to repro.fastpath; "
            "other layers use the package-root API"
        ),
        exempt_paths=("*repro/fastpath/*", "*repro/tracelog/binary.py"),
        advice="use the repro.fastpath package-root API "
        "(compile_log, ensure_compiled)",
        modules=frozenset(
            {"repro.fastpath.compiled", "repro.fastpath.replay"}
        ),
        constructors=frozenset({"CompiledTraceLog"}),
    ),
    # The fleet scheduler's segment accounting, the distinct-workload
    # cursor sharing and the columnar replay loop are one coupled
    # mechanism whose equivalence to the reference simulator is pinned.
    Boundary(
        rule_id="fleet-api",
        description=(
            "repro.shared.fleet.scheduler/workloads/simulator imports and "
            "direct DistinctWorkload construction are confined to "
            "repro.shared.fleet; other layers use the package-root API"
        ),
        exempt_paths=("*repro/shared/fleet/*",),
        advice="use the repro.shared.fleet package-root API "
        "(FleetWorkloads.from_specs, FleetSimulator)",
        modules=frozenset(
            {
                "repro.shared.fleet.scheduler",
                "repro.shared.fleet.workloads",
                "repro.shared.fleet.simulator",
            }
        ),
        constructors=frozenset({"DistinctWorkload"}),
    ),
)


class BoundaryRule(Rule):
    """Flags imports and constructor calls that cross one
    :class:`Boundary` from outside its package."""

    boundary: Boundary
    severity = Severity.ERROR

    def _confined(self, module: str) -> bool:
        return (
            module in self.boundary.modules
            or module.split(".")[0] in self.boundary.module_roots
        )

    def visit_Import(self, ctx: FileContext, node: ast.Import) -> None:
        for alias in node.names:
            if self._confined(alias.name):
                ctx.report(
                    self,
                    node,
                    f"import of {alias.name} crosses the {self.rule_id} "
                    f"boundary; {self.boundary.advice}",
                )

    def visit_ImportFrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        if node.level != 0:
            return
        module = node.module or ""
        if self._confined(module):
            ctx.report(
                self,
                node,
                f"import from {module} crosses the {self.rule_id} "
                f"boundary; {self.boundary.advice}",
            )
        elif module.startswith("repro."):
            for alias in node.names:
                if alias.name in self.boundary.names:
                    ctx.report(
                        self,
                        node,
                        f"import of {alias.name} crosses the "
                        f"{self.rule_id} boundary; {self.boundary.advice}",
                    )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name in self.boundary.constructors:
            ctx.report(
                self,
                node,
                f"direct {name} construction crosses the {self.rule_id} "
                f"boundary; {self.boundary.advice}",
            )


for _boundary in BOUNDARIES:
    register(
        type(
            "BoundaryRule[" + _boundary.rule_id + "]",
            (BoundaryRule,),
            {
                "rule_id": _boundary.rule_id,
                "description": _boundary.description,
                "exempt_paths": _boundary.exempt_paths,
                "boundary": _boundary,
            },
        )
    )


@register
class PolicyApiRule(Rule):
    """Every ``CodeCache`` policy must implement the hook contract:
    define ``_allocate`` and ``policy_name``, and an overridden
    ``__init__`` must call ``super().__init__``."""

    rule_id = "policy-api"
    description = (
        "CodeCache subclasses must define _allocate and policy_name, "
        "and their __init__ must call super().__init__"
    )
    severity = Severity.ERROR
    include_paths = ("*policies/*.py",)
    exempt_paths = ("*policies/base.py", "*policies/__init__.py")

    def begin_file(self, ctx: FileContext) -> None:
        # Class names known (in this file) to derive from CodeCache,
        # so BaseX -> SubX chains are still checked.
        self._policy_classes: set[str] = set()

    def visit_ClassDef(self, ctx: FileContext, node: ast.ClassDef) -> None:
        base_names = {
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        }
        direct = "CodeCache" in base_names
        inherited = bool(base_names & self._policy_classes)
        if not direct and not inherited:
            return
        self._policy_classes.add(node.name)

        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        class_attrs = {
            target.id
            for stmt in node.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        } | {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }

        if direct:
            if "_allocate" not in methods:
                ctx.report(
                    self,
                    node,
                    f"policy {node.name!r} does not override _allocate",
                )
            if "policy_name" not in class_attrs:
                ctx.report(
                    self,
                    node,
                    f"policy {node.name!r} does not set policy_name",
                )

        init = methods.get("__init__")
        if init is not None and not self._calls_super_init(init):
            ctx.report(
                self,
                init,
                f"{node.name}.__init__ does not call super().__init__ "
                "(the trace table and arena would be left unbuilt)",
            )

    @staticmethod
    def _calls_super_init(init: ast.FunctionDef) -> bool:
        for sub in ast.walk(init):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "__init__"
                and isinstance(sub.func.value, ast.Call)
                and isinstance(sub.func.value.func, ast.Name)
                and sub.func.value.func.id == "super"
            ):
                return True
        return False


@register
class FloatEqualityRule(Rule):
    """Miss rates, fractions and overhead ratios are floats; comparing
    them with ``==``/``!=`` against float literals is a rounding bug
    waiting to happen."""

    rule_id = "float-equality"
    description = (
        "no ==/!= comparisons against float literals; use math.isclose "
        "or an inequality guard"
    )
    severity = Severity.ERROR

    def visit_Compare(self, ctx: FileContext, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                ctx.report(
                    self,
                    node,
                    "equality comparison against a float literal; use "
                    "math.isclose or an inequality guard",
                )
                return


@register
class BareExceptRule(Rule):
    """Swallowed exceptions hide simulator corruption; handlers must
    name a specific type and actually do something."""

    rule_id = "bare-except"
    description = (
        "no bare `except:` and no `except Exception: pass`-style "
        "swallowing outside errors.py"
    )
    severity = Severity.ERROR
    exempt_paths = ("*repro/errors.py",)

    def visit_ExceptHandler(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            ctx.report(
                self,
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt and "
                "hides corruption; name the exception type",
            )
            return
        names = []
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for entry in types:
            if isinstance(entry, ast.Name):
                names.append(entry.id)
            elif isinstance(entry, ast.Attribute):
                names.append(entry.attr)
        if {"Exception", "BaseException"} & set(names) and _body_does_nothing(
            node.body
        ):
            ctx.report(
                self,
                node,
                f"`except {' | '.join(names)}` with an empty body swallows "
                "every error; handle or re-raise",
            )


@register
class UnitsHygieneRule(Rule):
    """Byte arithmetic must go through :mod:`repro.units` (KB/MB
    constants and helpers) instead of repeating 1024 magic numbers."""

    rule_id = "units-hygiene"
    description = (
        "byte arithmetic must use repro.units (KB/MB) rather than raw "
        "1024/1048576 literals"
    )
    severity = Severity.WARNING
    exempt_paths = ("*repro/units.py",)

    def visit_BinOp(self, ctx: FileContext, node: ast.BinOp) -> None:
        for operand in (node.left, node.right):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, int)
                and not isinstance(operand.value, bool)
                and operand.value in _BYTE_LITERALS
            ):
                ctx.report(
                    self,
                    node,
                    f"magic byte constant {operand.value}; use "
                    f"repro.units.{_BYTE_LITERALS[operand.value]}",
                )
                return


@register
class MutableDefaultRule(Rule):
    """A mutable default argument is shared across calls — in a
    simulator that aliases state across runs and silently breaks
    replay determinism."""

    rule_id = "mutable-default"
    description = "no mutable default arguments (list/dict/set literals or calls)"
    severity = Severity.ERROR

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
    )

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        self._check(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: FileContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._check(ctx, node)

    def visit_Lambda(self, ctx: FileContext, node: ast.Lambda) -> None:
        self._check(ctx, node)

    def _check(
        self, ctx: FileContext, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            if self._is_mutable(default):
                name = getattr(node, "name", "<lambda>")
                ctx.report(
                    self,
                    default,
                    f"mutable default argument in {name}(); default to "
                    "None and construct inside the body",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )


@register
class ScenariosDeterminismRule(Rule):
    """Scenario search must replay bit-for-bit from ``(seed, name)``:
    calibration walks and fuzz campaigns are institutionalized as
    content-addressed artifacts whose recorded outcomes are re-checked
    forever after, so a stray wall-clock read in an objective or a
    privately-constructed RNG silently breaks every future replay.
    Randomness enters :mod:`repro.scenarios` only through
    :func:`repro.rand.substream` handles passed down the call tree."""

    rule_id = "scenarios-determinism"
    description = (
        "repro.scenarios must not read wall clocks, construct Random "
        "objects, or reseed streams; derive all randomness via "
        "repro.rand.substream"
    )
    severity = Severity.ERROR
    include_paths = ("*repro/scenarios/*",)

    #: Callable names that read ambient time (module functions and
    #: datetime classmethods alike — matched as bare names or
    #: attributes, so ``time.monotonic()`` and ``datetime.now()`` both
    #: trip).
    _CLOCK_CALLS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "localtime",
            "gmtime",
            "now",
            "today",
            "utcnow",
        }
    )

    #: RNG constructors; scenario code takes streams as arguments
    #: (ultimately from repro.rand.substream) instead of building them.
    _RNG_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name in self._CLOCK_CALLS:
            ctx.report(
                self,
                node,
                f"wall-clock call {name}() in repro.scenarios; objectives "
                "and mutators must depend only on (seed, profile)",
            )
        elif name in self._RNG_CONSTRUCTORS:
            ctx.report(
                self,
                node,
                f"direct {name}() construction in repro.scenarios; take a "
                "stream from repro.rand.substream instead",
            )
        elif name == "seed" and isinstance(func, ast.Attribute):
            ctx.report(
                self,
                node,
                "reseeding a stream in repro.scenarios breaks substream "
                "independence; derive a fresh substream instead",
            )
