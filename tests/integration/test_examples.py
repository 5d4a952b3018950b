"""Every example script must run end-to-end.

These are the repository's runnable deliverables; a refactor that
breaks one should fail the suite, not a user's first session.  Each is
run as a subprocess with small inputs where the script accepts them.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: (script, argv) — arguments pick small benchmarks to keep this fast.
EXAMPLES: tuple[tuple[str, list[str]], ...] = (
    ("quickstart.py", []),
    ("dll_churn.py", []),
    ("policy_comparison.py", ["art"]),
    ("config_sweep.py", ["art"]),
    ("oracle_headroom.py", ["gzip"]),
)


@pytest.mark.parametrize("script,argv", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_example_runs(script: str, argv: list[str]):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    completed = subprocess.run(
        [sys.executable, str(path), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script} failed:\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{script} produced no output"


def test_quickstart_reports_headline_metrics():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0
    out = completed.stdout
    assert "miss-rate reduction" in out
    assert "overhead ratio" in out
    assert "Figure 9" in out and "Figure 11" in out
