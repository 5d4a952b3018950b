"""The cachelint rule framework.

A :class:`Rule` is a named AST checker.  Rules declare handlers the
same way :class:`ast.NodeVisitor` subclasses do — a method
``visit_ClassDef`` runs for every ``ast.ClassDef`` — but the engine
walks each module tree exactly once, dispatching every node to every
interested rule, so adding rules does not add passes.

Rules are registered in a module-level :data:`REGISTRY` via the
:func:`register` decorator and report through
:meth:`FileContext.report`, which applies ``# cachelint:`` suppressions
before recording anything.  The shipped rules register on the first
:func:`all_rules` or :func:`make_rules` call, so importing the engine
alone does not load them.
"""

from __future__ import annotations

import abc
import ast
import enum
from dataclasses import dataclass, field
from fnmatch import fnmatch

from repro.analysis.suppressions import SuppressionMap
from repro.errors import ConfigError


class Severity(enum.IntEnum):
    """How bad a violation is; drives the process exit code."""

    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        """Lower-case label used by the reporters."""
        return self.name.lower()


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location.

    Attributes:
        rule_id: Id of the rule that fired.
        severity: Severity the rule carries.
        path: File the violation was found in (as given to the engine).
        line: 1-based source line.
        col: 0-based source column.
        message: Human-readable explanation.
        trace: Optional call-path context (whole-program rules) — one
            rendered step per element, source first, sink last.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()

    def location(self) -> str:
        """``path:line:col`` string for reports."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FileContext:
    """Everything a rule may consult while checking one file.

    Attributes:
        path: The file's path as given to the engine.
        source: Full source text.
        tree: Parsed module AST.
        suppressions: Parsed ``# cachelint:`` comments.
        violations: Hits recorded so far (suppressed ones excluded).
    """

    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionMap
    violations: list[Violation] = field(default_factory=list)
    suppressed_count: int = 0

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        """Record a violation at *node* unless a suppression covers it."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressions.is_suppressed(rule.rule_id, line):
            self.suppressed_count += 1
            return
        self.violations.append(
            Violation(
                rule_id=rule.rule_id,
                severity=rule.severity,
                path=self.path,
                line=line,
                col=col,
                message=message,
            )
        )


class Rule(abc.ABC):
    """One named domain check.

    Subclasses set the class attributes below and define any number of
    ``visit_<NodeType>`` handlers taking ``(ctx, node)``.  The optional
    hooks :meth:`begin_file` / :meth:`end_file` bracket each module and
    are where per-file state must be reset — one rule instance checks
    many files.
    """

    #: Stable id used in reports and suppression comments.
    rule_id: str = "abstract"
    #: One-line description shown by ``repro-lint --list-rules``.
    description: str = ""
    severity: Severity = Severity.ERROR
    #: fnmatch patterns (against a ``/``-normalized path); when
    #: non-empty the rule only runs on matching files.
    include_paths: tuple[str, ...] = ()
    #: fnmatch patterns of files the rule never runs on (the sanctioned
    #: implementation sites, e.g. ``repro/rand.py`` for determinism).
    exempt_paths: tuple[str, ...] = ()
    #: True for whole-program rules (run over the call graph, not one
    #: file at a time); the CLI only includes them under ``--deep``.
    whole_program: bool = False

    def applies_to(self, path: str) -> bool:
        """Whether this rule should run on *path* at all."""
        normalized = path.replace("\\", "/")
        if any(fnmatch(normalized, pat) for pat in self.exempt_paths):
            return False
        if self.include_paths:
            return any(fnmatch(normalized, pat) for pat in self.include_paths)
        return True

    def begin_file(self, ctx: FileContext) -> None:
        """Hook called before the walk of one file starts."""

    def end_file(self, ctx: FileContext) -> None:
        """Hook called after the walk of one file completes."""


class WholeProgramRule(Rule):
    """A rule that checks the whole program at once.

    Instead of ``visit_*`` handlers, subclasses implement
    :meth:`check`, receiving the loaded
    :class:`repro.analysis.whole.program.Program` after every file has
    been parsed.  Violations they return are still subject to the
    per-line ``# cachelint: disable=`` suppressions of the file each
    one points at — the engine applies those after :meth:`check`.
    """

    whole_program = True

    @abc.abstractmethod
    def check(self, program) -> list[Violation]:
        """Return every violation found in *program*."""


#: All known rules by id, in registration order.
REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY`."""
    rule_id = rule_class.rule_id
    if not rule_id or rule_id == Rule.rule_id:
        raise ConfigError(f"{rule_class.__name__} must define a rule_id")
    if rule_id in REGISTRY:
        raise ConfigError(f"duplicate rule id {rule_id!r}")
    REGISTRY[rule_id] = rule_class
    return rule_class


def _register_shipped_rules() -> None:
    """Register the shipped rules: the per-file rules, then the
    whole-program passes.  Each module registers its rules when first
    imported, so every later call only finds them in ``sys.modules``."""
    from repro.analysis import builtin, whole  # noqa: F401


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    _register_shipped_rules()
    return [rule_class() for rule_class in REGISTRY.values()]


def make_rules(rule_ids: list[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all of them when *rule_ids* is
    None).

    Raises:
        ConfigError: if an id is unknown.
    """
    if rule_ids is None:
        return all_rules()
    _register_shipped_rules()
    unknown = [rid for rid in rule_ids if rid not in REGISTRY]
    if unknown:
        raise ConfigError(
            f"unknown rule id(s) {unknown}; choose from {sorted(REGISTRY)}"
        )
    return [REGISTRY[rid]() for rid in rule_ids]
