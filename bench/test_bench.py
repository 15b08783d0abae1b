"""Tests for the benchmark harness itself: python3 -m pytest bench -q"""

import json
from pathlib import Path

import pytest

from run import measure
from tracing import Span, covered, layer_metrics, self_times
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = ("grad_calls", "diag_calls")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {
        (name, trace, repeat): measure(name, seed=3, seconds=0.01, trace=trace, tiny=True, out_dir=out)
        for name in WORKLOADS
        for trace in (False, True)
        for repeat in (0, 1)
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_pass_reports_every_metric_with_its_unit(tiny_runs, name, trace, section):
    result = tiny_runs[name, trace, 0]["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == _units(section)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_across_runs(tiny_runs, name):
    first, second = tiny_runs[name, False, 0], tiny_runs[name, False, 1]
    for metric in COUNT_METRICS:
        assert first["result"]["metrics"][metric] == second["result"]["metrics"][metric]
    bills = [
        [(s["start"], s["counters"], s["diag_counters"], s["mu"]) for s in run["solves"]]
        for run in (first, second)
    ]
    n = min(len(bills[0]), len(bills[1]))
    assert n >= WORKLOADS[name].problems * WORKLOADS[name].starts and bills[0][:n] == bills[1][:n]
    traced = [tiny_runs[name, True, r]["result"]["metrics"] for r in (0, 1)]
    for metric, unit in _units("per_layer").items():
        if unit == "count":
            assert traced[0][metric] == traced[1][metric], metric


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),  # overlaps a by 0.5: counted once
        Span("c", 9.0, 12.0, 0, 0),  # runs past the root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 3.0 - 1.0, 1.0, 2.5, 3.0])
    assert covered(0.0, 1.0, []) == 0.0


def test_layer_metrics_classify_value_passes_and_steps():
    def span(name, start, end, parent, **attrs):
        return Span(name, start, end, parent, 0, attrs)

    value = dict(components=10, full=True)
    spans = [
        span("drivers.run", 0.0, 10.0, -1),
        span("finite_sum.batch_value", 1.0, 2.0, 0, **value),  # trace value, t=0
        span("cubic.solve_exact", 2.0, 3.0, 0, status="exact", iterations=0),
        span("finite_sum.batch_value", 3.0, 4.0, 0, **value),  # f_trial
        span("drivers.penalty_update", 4.0, 4.5, 0, accepted=False),
        span("finite_sum.batch_value", 5.0, 6.0, 0, **value),  # trace value, t=1
        span("cubic.solve_exact", 6.0, 7.0, 0, status="exact", iterations=0),
        span("finite_sum.batch_value", 8.0, 9.0, 0, **value),  # f_out
    ]
    solves = [{"iterations": 2, "exit": "converged", "mu_ratio": 0.5}]
    m = layer_metrics(spans, solves, setups=1, component_bytes=8)
    assert m["drivers.trace_value.passes"] == (4, "count")
    assert m["drivers.trace_value.f_trial_share"] == (0.25, "fraction")
    assert m["drivers.accept_share"] == (0.0, "fraction")
    assert m["cubic.solve_exact.calls"] == (2, "count")
    assert m["drivers.self_s"][0] == pytest.approx(10.0 - 6.5)
    assert m["finite_sum.full_batch_share"] == (1.0, "fraction")
