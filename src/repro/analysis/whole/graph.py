"""Import- and call-graph construction over a loaded Program.

The :class:`CallGraph` is the shared substrate of every whole-program
pass: a symbol table of classes and functions, per-module import maps,
and one resolved :class:`CallSite` list per function.  Resolution is
deliberately static and conservative:

* plain names resolve through the module's import aliases and its own
  top-level definitions;
* ``self.method()`` resolves through the class hierarchy (nearest
  definition in the MRO), plus *override edges* to every subclass
  redefinition — dynamic dispatch reaches those at runtime;
* attribute chains (``self.server.scheduler.submit``) resolve through
  inferred attribute types: ``self.x: T``, ``self.x = T(...)``,
  ``self.x = param`` with an annotated parameter, and class-level
  annotations all type ``x``, and container annotations
  (``list[T]``, ``dict[K, V]``) type the elements that subscripts,
  loops and ``.get()`` produce.

Calls that resolve to nothing keep their syntactic name, which is what
the fastpath allowlist and the name-based taint sinks match against.

:class:`ImportCycleRule` rides on the same build: module-level import
cycles (excluding ``if TYPE_CHECKING:`` blocks and function-scoped lazy
imports) are reported as strongly connected components.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import Severity, Violation, WholeProgramRule, register
from repro.analysis.whole.program import ModuleInfo, Program

#: Constructor names whose result is treated as a synchronization
#: primitive — attributes holding one are never "shared state".
SYNC_TYPES = frozenset(
    {
        "Lock",
        "RLock",
        "Event",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Queue",
        "SimpleQueue",
        "LifoQueue",
        "PriorityQueue",
        "JoinableQueue",
        "local",
    }
)

#: Builtins that pass their argument's container type through.
_PASSTHROUGH_CALLS = frozenset({"list", "sorted", "tuple", "reversed"})


@dataclass(frozen=True)
class TypeRef:
    """A statically inferred type.

    Attributes:
        qualname: Program-class qualname the value itself has, if any.
        elem: Program-class qualname of the values a container yields
            (``list[T]`` elements, ``dict[K, V]`` values).
    """

    qualname: str | None = None
    elem: str | None = None


@dataclass
class CallSite:
    """One call expression inside a function body.

    Attributes:
        name: Last syntactic segment (``submit`` in ``a.b.submit()``).
        dotted: Best-effort dotted rendering of the callee.
        lineno: Source line of the call.
        targets: Resolved program-function qualnames (empty when the
            callee is a builtin, stdlib, or unresolvable).
    """

    name: str
    dotted: str
    lineno: int
    targets: tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function or method of the program."""

    qualname: str
    module: str
    name: str
    lineno: int
    node: ast.AST
    class_qualname: str | None = None
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class of the program."""

    qualname: str
    module: str
    name: str
    lineno: int
    node: ast.ClassDef
    base_names: tuple[str, ...] = ()
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    #: Constant class-level assignments (``fastpath_safe = True``).
    flags: dict[str, object] = field(default_factory=dict)
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    #: Attributes holding a synchronization primitive.
    sync_attrs: set[str] = field(default_factory=set)
    #: Function refs assigned into attributes (thread-target tracking).
    attr_func_refs: dict[str, set[str]] = field(default_factory=dict)


class CallGraph:
    """Symbol table plus resolved call edges for one Program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module name -> local alias -> dotted target.
        self.imports: dict[str, dict[str, str]] = {}
        #: module name -> imported *program* module -> first import line.
        self.module_imports: dict[str, dict[str, int]] = {}
        #: module name -> module-level string constants (env-key names).
        self.module_constants: dict[str, dict[str, str]] = {}
        #: module name -> mutable module-level globals -> def line.
        self.module_globals: dict[str, dict[str, int]] = {}
        self._mro_cache: dict[str, tuple[str, ...]] = {}
        self._subclasses: dict[str, set[str]] = {}
        self._return_cache: dict[str, TypeRef | None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, program: Program) -> "CallGraph":
        graph = cls(program)
        for module in program.modules.values():
            graph._collect_imports(module)
            graph._collect_definitions(module)
        graph._resolve_bases()
        for module in program.modules.values():
            graph._collect_class_details(module)
        for fn in graph.functions.values():
            _FunctionScope(graph, fn).resolve_calls()
        return graph

    def _collect_imports(self, module: ModuleInfo) -> None:
        aliases: dict[str, str] = {}
        imported: dict[str, int] = {}
        constants: dict[str, str] = {}
        globals_: dict[str, int] = {}
        is_package = module.path.replace("\\", "/").endswith("/__init__.py")

        def depend(target: str, lineno: int) -> None:
            # Importing a.b.c runs a/__init__ and a/b/__init__ first;
            # the packages the importer lives in are already under way.
            parts = target.split(".")
            for depth in range(1, len(parts)):
                package = ".".join(parts[:depth])
                inside = module.name == package or module.name.startswith(
                    package + "."
                )
                if package in self.program.modules and not inside:
                    imported.setdefault(package, lineno)
            imported.setdefault(target, lineno)

        def scan(body: list[ast.stmt], module_level: bool) -> None:
            for stmt in body:
                if isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        local = alias.asname or alias.name.split(".")[0]
                        target = alias.name if alias.asname else local
                        aliases.setdefault(local, target)
                        if module_level and alias.name in self.program.modules:
                            depend(alias.name, stmt.lineno)
                elif isinstance(stmt, ast.ImportFrom):
                    base = self._import_base(module, stmt, is_package)
                    if base is None:
                        continue
                    for alias in stmt.names:
                        local = alias.asname or alias.name
                        aliases.setdefault(local, f"{base}.{alias.name}")
                    if module_level:
                        # ``from pkg import submodule`` depends on the
                        # submodule (the import system's sys.modules
                        # fallback makes it cycle-safe even while
                        # pkg/__init__ is still running); importing a name
                        # defined *in* the package needs its __init__.
                        # depend() adds the enclosing packages.
                        for alias in stmt.names:
                            sub = f"{base}.{alias.name}"
                            if sub in self.program.modules:
                                depend(sub, stmt.lineno)
                            elif base in self.program.modules:
                                depend(base, stmt.lineno)
                elif isinstance(stmt, ast.If):
                    if _is_type_checking(stmt.test):
                        continue
                    scan(stmt.body, module_level)
                    scan(stmt.orelse, module_level)
                elif isinstance(stmt, ast.Try):
                    for sub in (stmt.body, stmt.orelse, stmt.finalbody):
                        scan(sub, module_level)
                    for handler in stmt.handlers:
                        scan(handler.body, module_level)
                elif isinstance(stmt, ast.Assign) and module_level:
                    for target in stmt.targets:
                        if not isinstance(target, ast.Name):
                            continue
                        value = stmt.value
                        if isinstance(value, ast.Constant) and isinstance(
                            value.value, str
                        ):
                            constants[target.id] = value.value
                        elif _is_mutable_literal(value):
                            globals_[target.id] = stmt.lineno
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Lazy imports still bind names for call resolution,
                    # but create no module-level import edge.
                    scan(stmt.body, module_level=False)
                elif isinstance(stmt, ast.ClassDef):
                    scan(stmt.body, module_level)

        scan(module.tree.body, module_level=True)
        self.imports[module.name] = aliases
        self.module_imports[module.name] = imported
        self.module_constants[module.name] = constants
        self.module_globals[module.name] = globals_

    @staticmethod
    def _import_base(
        module: ModuleInfo, node: ast.ImportFrom, is_package: bool
    ) -> str | None:
        if node.level == 0:
            return node.module
        parts = module.name.split(".")
        # Level 1 from a plain module drops the module segment itself;
        # packages (__init__) resolve level 1 to themselves.
        drop = node.level if not is_package else node.level - 1
        if drop >= len(parts):
            return node.module
        base_parts = parts[: len(parts) - drop]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _collect_definitions(self, module: ModuleInfo) -> None:
        def visit(body: list[ast.stmt], class_qual: str | None) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = class_qual or module.name
                    qual = f"{scope}.{stmt.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        module=module.name,
                        name=stmt.name,
                        lineno=stmt.lineno,
                        node=stmt,
                        class_qualname=class_qual,
                    )
                    self.functions[qual] = info
                    if class_qual is not None:
                        self.classes[class_qual].methods[stmt.name] = qual
                elif isinstance(stmt, ast.ClassDef):
                    scope = class_qual or module.name
                    qual = f"{scope}.{stmt.name}"
                    self.classes[qual] = ClassInfo(
                        qualname=qual,
                        module=module.name,
                        name=stmt.name,
                        lineno=stmt.lineno,
                        node=stmt,
                        base_names=tuple(
                            _dotted_name(base) or "?" for base in stmt.bases
                        ),
                    )
                    visit(stmt.body, qual)
                elif isinstance(stmt, (ast.If, ast.Try)):
                    if isinstance(stmt, ast.If):
                        visit(stmt.body, class_qual)
                        visit(stmt.orelse, class_qual)
                    else:
                        visit(stmt.body, class_qual)
                        visit(stmt.orelse, class_qual)
                        visit(stmt.finalbody, class_qual)
                        for handler in stmt.handlers:
                            visit(handler.body, class_qual)

        visit(module.tree.body, None)

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            resolved = []
            for base in info.base_names:
                qual = self.lookup_class(base, info.module)
                if qual is not None:
                    resolved.append(qual)
            info.bases = tuple(resolved)
        for info in self.classes.values():
            for base in info.bases:
                self._subclasses.setdefault(base, set()).add(info.qualname)

    def _collect_class_details(self, module: ModuleInfo) -> None:
        for info in self.classes.values():
            if info.module != module.name:
                continue
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    ref = self.resolve_annotation(stmt.annotation, module.name)
                    if ref is not None:
                        info.attr_types.setdefault(stmt.target.id, ref)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and isinstance(
                            stmt.value, ast.Constant
                        ):
                            info.flags[target.id] = stmt.value.value
            for method_qual in info.methods.values():
                self._scan_self_assigns(info, self.functions[method_qual])

    def _scan_self_assigns(self, info: ClassInfo, fn: FunctionInfo) -> None:
        params = _param_types(self, fn)
        for node in ast.walk(fn.node):
            target = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            if isinstance(node, ast.AnnAssign):
                ref = self.resolve_annotation(node.annotation, fn.module)
                if ref is not None:
                    info.attr_types.setdefault(attr, ref)
                continue
            value = node.value
            if isinstance(value, ast.Call):
                dotted = _dotted_name(value.func)
                if dotted is not None:
                    last = dotted.rsplit(".", 1)[-1]
                    if last in SYNC_TYPES:
                        info.sync_attrs.add(attr)
                        continue
                    qual = self.lookup_class(dotted, fn.module)
                    if qual is not None:
                        info.attr_types.setdefault(attr, TypeRef(qualname=qual))
            elif isinstance(value, ast.Name) and value.id in params:
                ref = params[value.id]
                if ref is not None:
                    info.attr_types.setdefault(attr, ref)
            refs = self._function_refs(value, fn)
            if refs:
                info.attr_func_refs.setdefault(attr, set()).update(refs)

    def _function_refs(self, expr: ast.expr, fn: FunctionInfo) -> set[str]:
        """Program functions an expression may evaluate to (for
        thread-target and callback tracking)."""
        refs: set[str] = set()
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                refs |= self._function_refs(value, fn)
        elif isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                refs |= self._function_refs(elt, fn)
        elif isinstance(expr, (ast.Name, ast.Attribute)):
            dotted = _dotted_name(expr)
            if dotted is None:
                return refs
            if dotted.startswith("self.") and fn.class_qualname:
                method = self.method_on(
                    fn.class_qualname, dotted[len("self."):]
                )
                if method is not None:
                    refs.add(method)
            else:
                qual = self.lookup_function(dotted, fn.module)
                if qual is not None:
                    refs.add(qual)
        return refs

    # ------------------------------------------------------------------
    # Symbol lookups
    # ------------------------------------------------------------------

    def _expand(self, dotted: str, module: str) -> str:
        """Expand a local dotted name through the module's aliases."""
        head, _, rest = dotted.partition(".")
        target = self.imports.get(module, {}).get(head)
        if target is None:
            return f"{module}.{dotted}"
        return f"{target}.{rest}" if rest else target

    def lookup_class(self, dotted: str, module: str) -> str | None:
        for candidate in (f"{module}.{dotted}", self._expand(dotted, module)):
            if candidate in self.classes:
                return candidate
        return None

    def lookup_function(self, dotted: str, module: str) -> str | None:
        for candidate in (f"{module}.{dotted}", self._expand(dotted, module)):
            if candidate in self.functions:
                return candidate
        return None

    def mro(self, qualname: str) -> tuple[str, ...]:
        cached = self._mro_cache.get(qualname)
        if cached is not None:
            return cached
        order = [qualname]
        info = self.classes.get(qualname)
        if info is not None:
            for base in info.bases:
                for entry in self.mro(base):
                    if entry not in order:
                        order.append(entry)
        result = tuple(order)
        self._mro_cache[qualname] = result
        return result

    def method_on(self, class_qual: str, name: str) -> str | None:
        """Nearest definition of method *name* in the MRO."""
        for entry in self.mro(class_qual):
            info = self.classes.get(entry)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def subclasses_of(self, class_qual: str) -> set[str]:
        """All transitive program subclasses."""
        result: set[str] = set()
        frontier = [class_qual]
        while frontier:
            current = frontier.pop()
            for sub in self._subclasses.get(current, ()):
                if sub not in result:
                    result.add(sub)
                    frontier.append(sub)
        return result

    def method_targets(self, class_qual: str, name: str) -> tuple[str, ...]:
        """Static target plus dynamic-dispatch overrides."""
        targets = []
        static = self.method_on(class_qual, name)
        if static is not None:
            targets.append(static)
        for sub in self.subclasses_of(class_qual):
            info = self.classes[sub]
            if name in info.methods:
                targets.append(info.methods[name])
        return tuple(sorted(set(targets)))

    def flag_value(self, class_qual: str, name: str) -> object:
        """Nearest constant class-attribute value in the MRO."""
        for entry in self.mro(class_qual):
            info = self.classes.get(entry)
            if info is not None and name in info.flags:
                return info.flags[name]
        return None

    def attr_type(self, class_qual: str, attr: str) -> TypeRef | None:
        for entry in self.mro(class_qual):
            info = self.classes.get(entry)
            if info is not None and attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def is_sync_attr(self, class_qual: str, attr: str) -> bool:
        return any(
            attr in info.sync_attrs
            for entry in self.mro(class_qual)
            if (info := self.classes.get(entry)) is not None
        )

    def return_type(self, qualname: str) -> TypeRef | None:
        """Resolved return annotation of a program function, if any."""
        if qualname in self._return_cache:
            return self._return_cache[qualname]
        self._return_cache[qualname] = None  # cycle guard
        fn = self.functions.get(qualname)
        returns = getattr(fn.node, "returns", None) if fn else None
        ref = (
            self.resolve_annotation(returns, fn.module)
            if returns is not None
            else None
        )
        self._return_cache[qualname] = ref
        return ref

    def resolve_annotation(self, node: ast.expr, module: str) -> TypeRef | None:
        """Best-effort TypeRef for an annotation expression."""
        if isinstance(node, ast.Constant):
            # String annotations ('-> "Scheduler"') are parsed and chased.
            if not isinstance(node.value, str):
                return None
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            if isinstance(parsed, ast.Constant):
                return None
            return self.resolve_annotation(parsed, module)
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = _dotted_name(node)
            if dotted is None:
                return None
            qual = self.lookup_class(dotted, module)
            return TypeRef(qualname=qual) if qual is not None else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self.resolve_annotation(node.left, module)
            return left or self.resolve_annotation(node.right, module)
        if isinstance(node, ast.Subscript):
            base = _dotted_name(node.value)
            if base is None:
                return None
            base = base.rsplit(".", 1)[-1]
            args = (
                list(node.slice.elts)
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            if base in ("Optional",):
                return self.resolve_annotation(args[0], module)
            if base in ("list", "List", "set", "Set", "frozenset", "tuple",
                        "Tuple", "Sequence", "Iterable", "Iterator", "deque"):
                inner = self.resolve_annotation(args[0], module)
                if inner is not None and inner.qualname is not None:
                    return TypeRef(elem=inner.qualname)
                return None
            if base in ("dict", "Dict", "Mapping", "MutableMapping") and len(
                args
            ) == 2:
                inner = self.resolve_annotation(args[1], module)
                if inner is not None and inner.qualname is not None:
                    return TypeRef(elem=inner.qualname)
                return None
        return None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        """caller qualname -> callee qualnames."""
        result: dict[str, set[str]] = {}
        for fn in self.functions.values():
            out = result.setdefault(fn.qualname, set())
            for call in fn.calls:
                out.update(call.targets)
        return result

    def reachable_from(
        self, roots: set[str], edges: dict[str, set[str]] | None = None
    ) -> set[str]:
        """Forward closure over call edges."""
        if edges is None:
            edges = self.edges()
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for nxt in edges.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def shortest_path(
        self,
        start: str,
        goals: set[str],
        edges: dict[str, set[str]] | None = None,
    ) -> list[str] | None:
        """BFS path from *start* to the nearest of *goals*."""
        if edges is None:
            edges = self.edges()
        if start in goals:
            return [start]
        prev: dict[str, str] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            nxt_frontier = []
            for current in frontier:
                for nxt in sorted(edges.get(current, ())):
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    prev[nxt] = current
                    if nxt in goals:
                        path = [nxt]
                        while path[-1] in prev:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    nxt_frontier.append(nxt)
            frontier = nxt_frontier
        return None

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components (size > 1) of the module-level
        import graph, each sorted, the list sorted by first member."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        cycles: list[list[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for nxt in sorted(self.module_imports.get(node, ())):
                if nxt not in self.module_imports:
                    continue
                if nxt not in index:
                    strongconnect(nxt)
                    low[node] = min(low[node], low[nxt])
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))

        for name in sorted(self.module_imports):
            if name not in index:
                strongconnect(name)
        return sorted(cycles)

    def to_dict(self) -> dict:
        """JSON-ready form (``repro-lint --graph``)."""
        return {
            "modules": {
                name: {
                    "path": module.path,
                    "imports": sorted(self.module_imports.get(name, ())),
                }
                for name, module in sorted(self.program.modules.items())
            },
            "classes": {
                qual: {
                    "bases": sorted(info.bases),
                    "methods": sorted(info.methods),
                }
                for qual, info in sorted(self.classes.items())
            },
            "functions": {
                qual: {
                    "module": fn.module,
                    "line": fn.lineno,
                    "calls": [
                        {
                            "name": call.name,
                            "line": call.lineno,
                            "targets": sorted(call.targets),
                        }
                        for call in fn.calls
                    ],
                }
                for qual, fn in sorted(self.functions.items())
            },
        }


class _FunctionScope:
    """Type environment and call resolution for one function body."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.fn = fn
        self.env: dict[str, TypeRef] = {}
        for name, ref in _param_types(graph, fn).items():
            if ref is not None:
                self.env[name] = ref
        if fn.class_qualname is not None:
            self.env["self"] = TypeRef(qualname=fn.class_qualname)
        self._collect_locals()

    def _collect_locals(self) -> None:
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    ref = self.infer(node.value)
                    if ref is not None:
                        self.env.setdefault(target.id, ref)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ref = self.graph.resolve_annotation(
                    node.annotation, self.fn.module
                )
                if ref is not None:
                    self.env.setdefault(node.target.id, ref)
            elif isinstance(node, ast.For):
                self._bind_loop_target(node.target, node.iter)
            elif isinstance(node, ast.comprehension):
                self._bind_loop_target(node.target, node.iter)

    def _bind_loop_target(self, target: ast.expr, iterable: ast.expr) -> None:
        # ``for i, x in enumerate(xs)`` binds x to xs's element type.
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "enumerate"
            and iterable.args
        ):
            if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                self._bind_loop_target(target.elts[1], iterable.args[0])
            return
        if not isinstance(target, ast.Name):
            return
        ref = self.infer(iterable)
        if ref is not None and ref.elem is not None:
            self.env.setdefault(target.id, TypeRef(qualname=ref.elem))

    def infer(self, node: ast.expr) -> TypeRef | None:
        """The TypeRef an expression evaluates to, if inferable."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.infer(node.value)
            if base is not None and base.qualname is not None:
                return self.graph.attr_type(base.qualname, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            base = self.infer(node.value)
            if base is not None and base.elem is not None:
                return TypeRef(qualname=base.elem)
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in _PASSTHROUGH_CALLS and node.args:
                    return self.infer(node.args[0])
                dotted = func.id
            else:
                dotted = _dotted_name(func)
            if dotted is not None and not dotted.startswith("self."):
                qual = self.graph.lookup_class(dotted, self.fn.module)
                if qual is not None:
                    return TypeRef(qualname=qual)
            # ``d.get(k)`` / ``d.pop(k)`` yield the container's values.
            if isinstance(func, ast.Attribute) and func.attr in (
                "get",
                "pop",
                "popleft",
                "get_nowait",
            ):
                base = self.infer(func.value)
                if base is not None and base.elem is not None:
                    return TypeRef(qualname=base.elem)
            # Otherwise type the call by the target's return annotation.
            for target in self.resolve_call(node).targets:
                ref = self.graph.return_type(target)
                if ref is not None:
                    return ref
        return None

    def resolve_calls(self) -> None:
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Call):
                self.fn.calls.append(self.resolve_call(node))

    def resolve_call(self, node: ast.Call) -> CallSite:
        func = node.func
        graph = self.graph
        module = self.fn.module
        if isinstance(func, ast.Name):
            name = func.id
            targets = self._name_targets(name)
            return CallSite(
                name=name,
                dotted=name,
                lineno=node.lineno,
                targets=targets,
            )
        if isinstance(func, ast.Attribute):
            name = func.attr
            dotted = _dotted_name(func)
            targets: tuple[str, ...] = ()
            if dotted is not None and not dotted.startswith("self."):
                # Module-qualified call: workers_module.worker_main(...).
                qual = graph.lookup_function(dotted, module)
                if qual is not None:
                    targets = (qual,)
                else:
                    class_qual = graph.lookup_class(dotted, module)
                    if class_qual is not None:
                        init = graph.method_on(class_qual, "__init__")
                        targets = (init,) if init is not None else ()
            if not targets and _is_super_call(func.value):
                if self.fn.class_qualname is not None:
                    for entry in graph.mro(self.fn.class_qualname)[1:]:
                        info = graph.classes.get(entry)
                        if info is not None and name in info.methods:
                            targets = (info.methods[name],)
                            break
            if not targets:
                receiver = self.infer(func.value)
                if receiver is not None and receiver.qualname is not None:
                    targets = graph.method_targets(receiver.qualname, name)
            return CallSite(
                name=name,
                dotted=dotted or f"?.{name}",
                lineno=node.lineno,
                targets=targets,
            )
        return CallSite(
            name="?", dotted="?", lineno=node.lineno, targets=()
        )

    def _name_targets(self, name: str) -> tuple[str, ...]:
        graph = self.graph
        module = self.fn.module
        qual = graph.lookup_function(name, module)
        if qual is not None:
            return (qual,)
        class_qual = graph.lookup_class(name, module)
        if class_qual is not None:
            init = graph.method_on(class_qual, "__init__")
            return (init,) if init is not None else ()
        return ()


def _param_types(graph: CallGraph, fn: FunctionInfo) -> dict[str, TypeRef | None]:
    """Annotated-parameter types for a function."""
    result: dict[str, TypeRef | None] = {}
    args = getattr(fn.node, "args", None)
    if args is None:
        return result
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            result[arg.arg] = graph.resolve_annotation(
                arg.annotation, fn.module
            )
        else:
            result.setdefault(arg.arg, None)
    return result


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _is_super_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def _is_type_checking(test: ast.expr) -> bool:
    dotted = _dotted_name(test)
    return dotted is not None and dotted.rsplit(".", 1)[-1] == "TYPE_CHECKING"


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted_name(node.func)
        if dotted is None:
            return False
        return dotted.rsplit(".", 1)[-1] in (
            "list",
            "dict",
            "set",
            "deque",
            "defaultdict",
            "Counter",
            "OrderedDict",
        )
    return False


@register
class ImportCycleRule(WholeProgramRule):
    """The module-level import graph must stay acyclic; cycles make
    initialization order load-bearing and partial modules observable."""

    rule_id = "import-cycle"
    description = (
        "no module-level import cycles (TYPE_CHECKING blocks and "
        "function-scoped lazy imports are exempt)"
    )
    severity = Severity.ERROR

    def check(self, program: Program) -> list[Violation]:
        graph = program.graph
        violations = []
        for cycle in graph.import_cycles():
            first = cycle[0]
            module = program.modules[first]
            others = [name for name in cycle if name != first]
            line = min(
                (
                    graph.module_imports[first][name]
                    for name in others
                    if name in graph.module_imports[first]
                ),
                default=1,
            )
            violations.append(
                Violation(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=module.path,
                    line=line,
                    col=0,
                    message=(
                        "module-level import cycle between "
                        + ", ".join(cycle)
                        + "; break it with a function-scoped import"
                    ),
                    trace=tuple(cycle),
                )
            )
        return violations
