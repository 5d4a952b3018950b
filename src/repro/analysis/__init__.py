"""Domain-aware static analysis + runtime sanitizing for the repro.

Two halves:

* **cachelint** — an AST-based lint with domain rules (determinism,
  policy-API conformance, float-equality, exception hygiene, units
  hygiene, mutable defaults), whole-program passes (import cycles,
  determinism taint, fastpath safety, concurrency locksets — see
  :mod:`repro.analysis.whole`), ``# cachelint: disable=`` suppressions,
  and text/JSON reporters.  CLI: ``repro-lint`` (``--deep`` for the
  whole-program passes).
* **sanitizer** — :class:`SanitizerHarness`, which re-checks the
  cache/arena structural invariants every N replayed events and raises
  structured :class:`~repro.errors.InvariantViolation` errors.

Quickstart::

    from repro.analysis import Analyzer, all_rules
    report = Analyzer(all_rules()).analyze_paths(["src/repro"])
    assert report.exit_code() == 0

    from repro.analysis import SanitizerHarness
    simulator = CacheSimulator(manager, sanitizer=SanitizerHarness(manager))
"""

import importlib

#: Each public name -> its module, imported on first access (PEP 562),
#: so the sanitizer a replay needs does not load the lint engine.  The
#: shipped rules register on the first :func:`all_rules` or
#: :func:`make_rules` call.
_EXPORTS = {
    "AnalysisReport": "repro.analysis.engine",
    "Analyzer": "repro.analysis.engine",
    "DEFAULT_STRIDE": "repro.errors",
    "FileContext": "repro.analysis.core",
    "Program": "repro.analysis.whole.program",
    "REGISTRY": "repro.analysis.core",
    "Rule": "repro.analysis.core",
    "SanitizerHarness": "repro.analysis.sanitizer",
    "Severity": "repro.analysis.core",
    "SuppressionMap": "repro.analysis.suppressions",
    "Violation": "repro.analysis.core",
    "WholeProgramRule": "repro.analysis.core",
    "all_rules": "repro.analysis.core",
    "analyze": "repro.analysis.engine",
    "disable_sanitizer": "repro.analysis.sanitizer",
    "enable_sanitizer": "repro.analysis.sanitizer",
    "make_rules": "repro.analysis.core",
    "parse_suppressions": "repro.analysis.suppressions",
    "register": "repro.analysis.core",
    "render_json": "repro.analysis.reporters",
    "render_text": "repro.analysis.reporters",
    "sanitizer_enabled": "repro.analysis.sanitizer",
}

__all__ = [
    "Program",
    "WholeProgramRule",
    "AnalysisReport",
    "Analyzer",
    "DEFAULT_STRIDE",
    "FileContext",
    "REGISTRY",
    "Rule",
    "SanitizerHarness",
    "Severity",
    "SuppressionMap",
    "Violation",
    "all_rules",
    "analyze",
    "disable_sanitizer",
    "enable_sanitizer",
    "make_rules",
    "parse_suppressions",
    "register",
    "render_json",
    "render_text",
    "sanitizer_enabled",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
