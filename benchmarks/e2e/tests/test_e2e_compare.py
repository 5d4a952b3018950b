"""compare.py verdicts on synthetic samples."""

import json

import compare
from compare import verdict

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.2, 9.8, 10.0, 10.1, 9.9]


def test_clear_gain_is_better():
    change = [x - 1.0 for x in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "better"
    faster = [x + 1.0 for x in PARENT]
    assert verdict(PARENT, faster, "higher", 0.1) == "better"


def test_gain_needs_ten_pairs():
    assert verdict(PARENT[:3], [x - 1.0 for x in PARENT[:3]], "lower", 0.1) == "same"


def test_gain_needs_nine_of_ten_pairs():
    change = [x - 0.5 for x in PARENT]
    change[0] += 2.0
    change[1] += 2.0
    assert verdict(PARENT, change, "lower", 0.1) == "same"


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    change = [x - 0.01 for x in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "same"


def test_worse_than_the_bound_is_worse():
    assert verdict(PARENT, [x * 1.2 for x in PARENT], "lower", 0.1) == "worse"
    assert verdict(PARENT, [x * 0.8 for x in PARENT], "higher", 0.1) == "worse"


def test_small_regression_inside_the_bound_is_same():
    assert verdict(PARENT, [x * 1.03 for x in PARENT], "lower", 0.1) == "same"


def test_wide_spread_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 7.0]
    assert verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"
    assert verdict(PARENT, noisy, "lower", 0.1) == "unresolved"


def test_wide_spread_is_resolved_when_every_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 10.0, 9.0, 11.0, 7.0]
    # Every change run is faster, but the median gap (5.5) is inside
    # the parent's interquartile range (5.75): no gain, yet resolved.
    assert verdict(noisy, [4.0] * 10, "lower", 0.1) == "same"
    assert verdict(noisy, [2.0] * 10, "lower", 0.1) == "better"


def _results(values, error_rate=0.0):
    return {"workloads": {"paper-cold": {
        "runs": [
            {"metrics": {m: v for m in (
                "round_s", "peak_rss_mb", "setup_s", "jobs_per_s",
            )}}
            for v in values
        ],
        "error_rate": error_rate,
    }}}


def test_main_exits_nonzero_on_worse(tmp_path, capsys):
    parent = tmp_path / "parent.json"
    same = tmp_path / "same.json"
    worse = tmp_path / "worse.json"
    errors = tmp_path / "errors.json"
    parent.write_text(json.dumps(_results(PARENT)))
    same.write_text(json.dumps(_results(PARENT)))
    # Lower is better for most metrics, so a 30% rise is a regression.
    worse.write_text(json.dumps(_results([x * 1.3 for x in PARENT])))
    errors.write_text(json.dumps(_results(PARENT, error_rate=0.01)))
    assert compare.main([str(parent), str(same)]) == 0
    assert compare.main([str(parent), str(worse)]) == 1
    assert compare.main([str(parent), str(errors)]) == 1
    assert "error_rate" in capsys.readouterr().out
