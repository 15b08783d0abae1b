"""tools/ab.py's pairing and summary, on made-up results: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(setup_s, grad_calls=100.0, correct=True):
    values = {"time_to_cert_s": 0.2, "setup_s": setup_s, "grad_calls": grad_calls,
              "diag_calls": 50.0, "peak_rss_mb": 60.0}
    return {"correct": correct, "metrics": {name: {"value": value} for name, value in values.items()}}


def row(lines, name):
    return next(line for line in lines if line.startswith(name))


def test_sides_take_turns_going_first():
    assert [ab.pair_order(k) for k in range(4)] == [
        ("base", "change"), ("change", "base"), ("base", "change"), ("change", "base")]


def test_quartiles_include_the_ends():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_the_pairs_in_which_the_change_is_lower():
    results = {"base": [result(s) for s in (0.20, 0.19, 0.21, 0.20)],
               "change": [result(s) for s in (0.15, 0.20, 0.14, 0.16)]}
    lines, agree = ab.summarize(results, END_TO_END)
    assert agree
    setup = row(lines, "setup_s")
    assert setup.endswith("3 of 4")
    assert "0.2 [0.1975, 0.2025]" in setup and "0.155 [0.1475, 0.17]" in setup
    assert "-22.5%" in setup and " yes " in setup
    assert row(lines, "grad_calls").endswith("0 of 4") and " no " in row(lines, "grad_calls")
    assert "  setup_s        0.2/0.15 0.19/0.2 0.21/0.14 0.2/0.16" in lines


@pytest.mark.parametrize("results, failure", [
    ({"base": [result(0.2), result(0.2)], "change": [result(0.1), result(0.1, grad_calls=101.0)]},
     "FAILED: grad_calls differs between runs: [100.0, 101.0]"),
    ({"base": [result(0.2), result(0.2, correct=False)], "change": [result(0.1), result(0.1)]},
     "FAILED: base runs [1] were not correct"),
])
def test_summary_fails_on_differing_counts_or_a_failed_run(results, failure):
    lines, agree = ab.summarize(results, END_TO_END)
    assert not agree and failure in lines


def test_summary_prints_each_runs_calibration_time_beside_its_pair():
    results = {side: [result(0.2), result(0.2)] for side in ab.SIDES}
    for side, times in (("base", (0.011, 0.0135)), ("change", (0.012, 0.01))):
        for run, seconds in zip(results[side], times):
            run["calibration_s"] = seconds
    lines, agree = ab.summarize(results, END_TO_END)
    assert agree
    assert lines[-1] == "  calibration_s  0.011/0.012 0.0135/0.01"
    del results["base"][1]["calibration_s"]
    assert not any("calibration_s" in line for line in ab.summarize(results, END_TO_END)[0])
