"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaf_errors = [
            errors.ConfigError,
            errors.ArenaError,
            errors.ArenaOverlapError,
            errors.ArenaBoundsError,
            errors.TraceTooLargeError,
            errors.CacheFullError,
            errors.UnknownTraceError,
            errors.DuplicateTraceError,
            errors.LogFormatError,
            errors.LogOrderError,
            errors.WorkloadError,
            errors.ExperimentError,
        ]
        for error in leaf_errors:
            assert issubclass(error, errors.ReproError)

    def test_arena_family(self):
        for error in (
            errors.ArenaOverlapError,
            errors.ArenaBoundsError,
            errors.TraceTooLargeError,
            errors.CacheFullError,
        ):
            assert issubclass(error, errors.ArenaError)

    def test_log_order_is_format_error(self):
        assert issubclass(errors.LogOrderError, errors.LogFormatError)

    def test_catching_the_base_class_works(self):
        from repro.cachesim import Arena

        with pytest.raises(errors.ReproError):
            Arena(0)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_matches_pyproject(self):
        import pathlib
        import re

        pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
        assert match is not None
        assert repro.__version__ == match.group(1)

    def test_headline_symbols_present(self):
        assert callable(repro.simulate_log)
        assert callable(repro.synthesize_log)
        assert repro.BEST_CONFIG.label() == "45-10-45 (thresh 1)"
        assert len(repro.FIGURE9_CONFIGS) == 3
