"""The docs name only code that exists.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` cite modules,
functions and files in inline code spans.  A rename or a delete that
misses one leaves the docs pointing at nothing, so every backticked
``repro.*`` dotted name must resolve and every backticked repo path
must exist.  ROADMAP.md, CHANGES.md and PAPER.md are history and may
name what is gone.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += sorted((ROOT / "docs").glob("*.md"))

#: Inline code spans (fenced blocks never close on their opening line).
_SPAN = re.compile(r"`([^`\n]+)`")
#: A dotted name at the start of a span: ``repro.x.y`` in
#: ``repro.x.y(arg)`` or ``repro.x.y/z``.
_NAME = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
_PATH_ROOTS = ("src/", "tests/", "benchmarks/", "examples/", "docs/")


def _spans():
    for doc in DOCS:
        for span in _SPAN.findall(doc.read_text(encoding="utf-8")):
            yield doc.name, span.strip()


def _dotted_names() -> set[tuple[str, str]]:
    found = set()
    for doc, span in _spans():
        match = _NAME.match(span)
        if match:
            found.add((doc, match.group()))
    return found


def _repo_paths() -> set[tuple[str, str]]:
    found = set()
    for doc, span in _spans():
        if not span.startswith(_PATH_ROOTS):
            continue
        path = span.split()[0].split("::")[0]
        if not any(char in path for char in "*?["):
            found.add((doc, path))
    return found


def _resolves(dotted: str) -> bool:
    """Import the longest importable module prefix of *dotted*, then
    ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_dotted_names_resolve():
    names = _dotted_names()
    assert len(names) > 20  # a broken scan would pass vacuously
    missing = sorted(
        f"{doc}: {name}" for doc, name in names if not _resolves(name)
    )
    assert not missing, "docs name code that does not exist:\n" + "\n".join(
        missing
    )


def test_repo_paths_exist():
    paths = _repo_paths()
    assert len(paths) > 20  # a broken scan would pass vacuously
    missing = sorted(
        f"{doc}: {path}" for doc, path in paths if not (ROOT / path).exists()
    )
    assert not missing, "docs name files that do not exist:\n" + "\n".join(
        missing
    )
