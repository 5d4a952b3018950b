"""CLI integration tests."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.tracelog.reader import read_log


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "figure-9"])
        assert args.experiment == "figure-9"
        assert args.seed == 42
        assert not args.quick
        # The parser holds the sanitizer's stride default itself, so
        # --sanitize and job specs see it without the flag.
        assert args.sanitize_stride == 1024


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "word" in out
        assert "gzip" in out
        assert "Word Processor" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table-2"]) == 0
        out = capsys.readouterr().out
        assert "69834" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "figure-99"]) == 2

    def test_run_characterization_quick_scaled(self, capsys):
        assert main(["run", "figure-2", "--quick", "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "FIGURE-2" in out
        assert "word" in out

    def test_record_writes_readable_log(self, tmp_path, capsys):
        target = tmp_path / "art.log"
        assert main(["record", "art", str(target), "--scale", "2"]) == 0
        log = read_log(target)
        assert log.benchmark == "art"
        assert log.n_traces > 0

    def test_record_binary(self, tmp_path, capsys):
        from repro.tracelog.binary import read_binary_log

        text_target = tmp_path / "art.log"
        binary_target = tmp_path / "art.bin"
        assert main(["record", "art", str(text_target), "--scale", "2"]) == 0
        assert main(
            ["record", "art", str(binary_target), "--scale", "2", "--binary"]
        ) == 0
        assert list(read_binary_log(binary_target).rows()) == list(
            read_log(text_target).rows()
        )
        assert binary_target.stat().st_size < text_target.stat().st_size

    def test_run_extension_experiment(self, capsys):
        assert main(["run", "capacity", "--quick", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "CAPACITY-SENSITIVITY" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "art", "--scale", "2"]) == 0
        out = capsys.readouterr().out
        assert "SECTION-6.1-SWEEP" in out
        assert "BestThreshold" in out


class TestLazyVerbs:
    """Verbs whose handlers import their own subsystem on dispatch, run
    through ``main`` so each deferred import executes once."""

    def test_profile_writes_pstats_and_timing_json(self, tmp_path, capsys):
        argv = [
            "profile", "figure-9", "--quick", "--scale", "64",
            "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        assert (tmp_path / "profile_figure-9.prof").stat().st_size > 0
        timing = json.loads(
            (tmp_path / "profile_figure-9.json").read_text(encoding="utf-8")
        )
        assert timing["experiment"] == "figure-9"
        assert set(timing["phases"]) == {"workloads", "experiment"}
        assert json.loads(capsys.readouterr().out) == timing

    def test_loadgen_in_process(self, tmp_path, capsys):
        assert main(["loadgen", "--quick", "--out", str(tmp_path)]) == 0
        bench = json.loads(
            (tmp_path / "BENCH_service.json").read_text(encoding="utf-8")
        )
        assert bench["requests"]["errors"] == 0
        assert bench["requests"]["accepted"] > 0
        assert (tmp_path / "BENCH_service.txt").exists()

    def test_fetch_unreachable_server_exits_one(self, capsys):
        assert main(["fetch", "j0", "--server", "http://127.0.0.1:9"]) == 1
        assert "service error" in capsys.readouterr().err


class TestValidation:
    """Structured ConfigError handling: bad flag combinations exit 2
    with a one-line message instead of a traceback."""

    def _error(self, capsys) -> str:
        return capsys.readouterr().err

    def test_negative_scale_rejected(self, capsys):
        assert main(["run", "figure-2", "--scale", "-4"]) == 2
        assert "repro-gencache: error:" in self._error(capsys)

    def test_zero_scale_rejected(self, capsys):
        assert main(["run", "figure-2", "--scale", "0"]) == 2
        assert "--scale" in self._error(capsys)

    def test_quick_with_inflating_scale_rejected(self, capsys):
        assert main(["run", "figure-2", "--quick", "--scale", "0.5"]) == 2
        assert "conflicting" in self._error(capsys)

    def test_quick_with_shrinking_scale_is_fine(self, capsys):
        # --quick --scale 8 shrinks further; that combination is the
        # documented fast path and must keep working.
        assert main(["run", "figure-2", "--quick", "--scale", "16"]) == 0

    def test_jobs_with_server_conflict(self, capsys):
        assert (
            main(
                ["run", "figure-2", "--jobs", "2", "--server", "http://x"]
            )
            == 2
        )
        assert "conflicting" in self._error(capsys)

    def test_zero_jobs_rejected(self, capsys):
        assert main(["run", "figure-2", "--jobs", "0"]) == 2

    def test_unknown_experiment_message(self, capsys):
        assert main(["run", "figure-99"]) == 2
        assert "figure-99" in self._error(capsys)

    def test_submit_all_rejected(self, capsys):
        assert main(["submit", "all", "--no-wait"]) == 2
        assert "single experiment" in self._error(capsys)

    def test_sweep_negative_scale_rejected(self, capsys):
        assert main(["sweep", "art", "--scale", "-1"]) == 2

    def test_unreachable_server_is_service_error(self, capsys):
        assert main(["status", "j0", "--server", "http://127.0.0.1:9"]) == 1
        assert "service error" in self._error(capsys)


class TestParallelDispatch:
    def test_run_with_jobs(self, capsys):
        assert (
            main(["run", "figure-1", "--quick", "--scale", "32", "--jobs", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "FIGURE-1" in out

    def test_run_with_jobs_and_store(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        argv = [
            "run", "figure-1", "--quick", "--scale", "32",
            "--jobs", "2", "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestScenarioVerbs:
    """The calibrate/fuzz verbs and the scenarios regression table."""

    @staticmethod
    def _emit_target(tmp_path):
        path = tmp_path / "target.json"
        assert (
            main(
                [
                    "calibrate", "word", "--emit-target", str(path),
                    "--scale", "512", "--seed", "7",
                ]
            )
            == 0
        )
        return path

    def test_emit_target_writes_json(self, tmp_path, capsys):
        path = self._emit_target(tmp_path)
        capsys.readouterr()
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["name"] == "word"
        assert len(payload["statistics"]["miss_curve"]) == 4

    def test_calibrate_artifacts_are_seed_deterministic(self, tmp_path, capsys):
        target = self._emit_target(tmp_path)
        argv = [
            "calibrate", "word", "--target", str(target),
            "--scale", "512", "--seed", "7", "--budget", "2",
            "--parameters", "total_trace_kb",
        ]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        files_a = sorted(p.name for p in out_a.glob("s*.json"))
        files_b = sorted(p.name for p in out_b.glob("s*.json"))
        assert files_a == files_b and len(files_a) == 1
        assert (out_a / files_a[0]).read_bytes() == (out_b / files_b[0]).read_bytes()

    def test_calibrate_needs_exactly_one_target_source(self, tmp_path, capsys):
        target = self._emit_target(tmp_path)
        capsys.readouterr()
        assert main(["calibrate", "word", "--scale", "512"]) == 2
        assert (
            main(
                [
                    "calibrate", "word", "--target", str(target),
                    "--from-profile", "gcc", "--scale", "512",
                ]
            )
            == 2
        )

    def test_calibrate_unknown_benchmark_exits_two(self, capsys):
        assert main(["calibrate", "nope", "--from-profile", "word"]) == 2
        assert "error" in capsys.readouterr().err

    def test_calibrate_bad_scale_exits_two(self, capsys):
        assert main(["calibrate", "word", "--from-profile", "word", "--scale", "-1"]) == 2

    def test_fuzz_same_contenders_exits_two(self, capsys):
        assert main(["fuzz", "--victim", "unified", "--reference", "unified"]) == 2
        assert "must differ" in capsys.readouterr().err

    def test_fuzz_unknown_contender_exits_two(self, capsys):
        assert main(["fuzz", "--victim", "bogus"]) == 2

    def test_fuzz_no_survivors_still_succeeds(self, capsys):
        argv = [
            "fuzz", "--rounds", "1", "--scale", "512", "--base", "word",
            "--min-regret", "0.9", "--seed", "13",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 counterexample(s)" in out
        assert "no candidate cleared" in out

    def test_fuzz_writes_survivor_artifacts(self, tmp_path, capsys):
        argv = [
            "fuzz", "--victim", "flush-all", "--reference", "unified",
            "--rounds", "2", "--scale", "512", "--base", "word",
            "--min-regret", "0.000001", "--seed", "13",
            "--out", str(tmp_path / "cx"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cx-flush-all-vs-unified-" in out
        saved = list((tmp_path / "cx").glob("s*.json"))
        assert saved

    def test_run_scenarios_quick(self, capsys):
        assert main(["run", "scenarios", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "SCENARIO-REGRESSION" in out
        assert "ok" in out
