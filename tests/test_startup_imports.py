"""Start-up cost: the package root, the CLI parser and a serial paper
run load only the modules they use.

The module-count cases run in a fresh interpreter each, since this
test process has long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

#: Subsystems that neither start-up nor a serial paper run uses.
UNUSED_AT_STARTUP = (
    "repro.analysis.builtin",
    "repro.analysis.engine",
    "repro.analysis.whole",
    "repro.service",
    "repro.cluster",
    "repro.shared",
    "repro.scenarios",
    "http.client",
    "multiprocessing",
    "asyncio",
)

#: Where each public name came from when the root imported them all:
#: the lazy root must hand out the very same objects.
PUBLIC_SOURCES = {
    "repro._version": ("__version__",),
    "repro.analysis": ("SanitizerHarness",),
    "repro.cachesim": (
        "Arena",
        "CacheSimulator",
        "CacheStats",
        "SimulationResult",
        "simulate_log",
    ),
    "repro.core": (
        "GenerationalCacheManager",
        "GenerationalConfig",
        "PromotionMode",
        "UnifiedCacheManager",
    ),
    "repro.core.config": ("BEST_CONFIG", "FIGURE9_CONFIGS"),
    "repro.errors": ("InvariantViolation", "ReproError"),
    "repro.overhead": ("CostModel", "OverheadAccount", "TABLE2_COSTS"),
    "repro.policies": (
        "CircularCache",
        "CodeCache",
        "LRUCache",
        "PreemptiveFlushCache",
        "PseudoCircularCache",
        "UnboundedCache",
    ),
    "repro.tracelog": ("TraceLog", "read_log", "write_log"),
    "repro.workloads": (
        "WorkloadProfile",
        "all_profiles",
        "get_profile",
        "synthesize_log",
    ),
}


def run_fresh(code: str, tmp_path, *, last_line: bool = True) -> str:
    """Run *code* in a fresh interpreter on this source tree and return
    its last stdout line (or all of stdout)."""
    env = dict(os.environ, REPRO_ARTIFACT_DIR=str(tmp_path))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] if last_line else out.stdout


def loaded_after(setup: str, tmp_path) -> list[str]:
    """Every module in ``sys.modules`` after *setup* ran."""
    code = f"{setup}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return json.loads(run_fresh(code, tmp_path))


def own(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


def unused(modules: list[str]) -> list[str]:
    """The entries of :data:`UNUSED_AT_STARTUP` that got loaded."""
    return sorted(set(UNUSED_AT_STARTUP).intersection(modules))


class TestModuleCounts:
    def test_import_repro_loads_only_the_root(self, tmp_path):
        modules = loaded_after("import repro", tmp_path)
        assert own(modules) == ["repro", "repro._version"]
        assert unused(modules) == []

    def test_build_parser_loads_at_most_four_modules(self, tmp_path):
        modules = loaded_after(
            "import repro.cli\nrepro.cli.build_parser()", tmp_path
        )
        assert len(own(modules)) <= 4, own(modules)
        assert unused(modules) == []

    def test_serial_paper_run_skips_unused_subsystems(self, tmp_path):
        modules = loaded_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['run', 'all', '--quick', '--scale', '64']) == 0",
            tmp_path,
        )
        assert "repro.experiments.fig09_miss_rates" in modules
        assert unused(modules) == []

    def test_sanitizer_does_not_load_the_lint_engine(self, tmp_path):
        modules = loaded_after("import repro.analysis.sanitizer", tmp_path)
        assert unused(modules) == []

    def test_service_client_loads_no_pool_or_simulator(self, tmp_path):
        """``status``, ``fetch``, ``submit`` and ``loadgen --server``
        only make HTTP requests: the client must not load the worker
        pool or anything that simulates."""
        modules = loaded_after("import repro.service.client", tmp_path)
        assert "repro.service.jobs" in modules
        assert {
            "multiprocessing",
            "repro.cachesim",
            "repro.core.generational",
            "repro.core.unified",
            "repro.experiments",
            "repro.policies",
            "repro.shared.manager",
            "repro.shared.simulator",
            "repro.shared.compose",
            "repro.tracelog",
        }.isdisjoint(modules)
        assert len(own(modules)) <= 13, own(modules)

    def test_serve_loads_job_modules_before_the_pool_forks(self, tmp_path):
        """``serve`` forks its workers after importing the cluster; a
        sweep-point job's modules must be loaded by then, or every
        worker imports them again."""
        modules = loaded_after("import repro.cluster", tmp_path)
        assert {
            "repro.experiments.dataset",
            "repro.experiments.evaluation",
            "repro.workloads.synthesis",
        } <= set(modules)


class TestLazyRoot:
    def test_every_public_name_is_the_defining_modules_object(self):
        listed = {name for names in PUBLIC_SOURCES.values() for name in names}
        assert listed == set(repro.__all__)
        for source, names in PUBLIC_SOURCES.items():
            module = importlib.import_module(source)
            for name in names:
                value = getattr(repro, name)
                assert value is getattr(module, name), name
                home = getattr(value, "__module__", None)
                if home is not None and not isinstance(value, str):
                    defining = importlib.import_module(home)
                    assert getattr(defining, name) is value, name

    def test_dir_lists_the_public_names(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    @pytest.mark.parametrize(
        "package",
        ["repro", "repro.analysis", "repro.core", "repro.service", "repro.shared"],
    )
    def test_unknown_attribute_raises(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")

    @pytest.mark.parametrize(
        "package", ["repro.analysis", "repro.core", "repro.service", "repro.shared"]
    )
    def test_subpackage_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))


def test_rules_register_in_lint_order_on_first_use(tmp_path):
    """A process that loads only the engine gets every shipped rule, in
    the order ``repro-lint --list-rules`` prints them."""
    ids = json.loads(
        run_fresh(
            "import json, repro.analysis.engine as engine\n"
            "print(json.dumps([r.rule_id for r in engine.all_rules()]))",
            tmp_path,
        )
    )
    listing = run_fresh(
        "from repro.analysis.cli import main\nmain(['--list-rules'])",
        tmp_path,
        last_line=False,
    )
    assert ids == [line.split()[0] for line in listing.splitlines()]
    assert len(ids) > 10
