"""Spans around vrcubic's layer boundaries, recorded from outside the package.

``traced`` replaces the public functions each layer calls through, at the
module where the caller looks them up (``vrcubic.cli``, ``vrcubic.drivers``,
``vrcubic.estimators``, ``vrcubic.diagnostics``), and the problem's
``batch_*_fn`` kernels on the instance.  Everything is restored on exit, so
an untraced run executes the package exactly as shipped.

A span is (name, start, end, parent span, solve id, attributes).  Spans stay
in memory until the run ends; ``layer_metrics`` reduces them to per-layer
numbers and ``write_spans`` stores them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    solve: int  # -1 during set-up
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans; ``solve`` tags every span opened until changed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solve = -1
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, annotate):
        span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.solve)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if annotate is not None:
            span.attrs = annotate(args, kwargs, result)
        return result


def _wrap(tracer: Tracer, name: str, fn, annotate=None):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, annotate)

    return traced_call


def _same(a, b) -> bool:
    return a is b or np.array_equal(a, b)


def _batch_size(args, kwargs, result):
    idx = args[2] if len(args) > 2 else kwargs["idx"]
    problem = args[0] if args else kwargs["problem"]
    size = int(np.size(idx))
    return {"components": size, "full": size == problem.n}


def _kernel_annotator(kind: str):
    previous = []

    def annotate(args, kwargs, result):
        idx, x = args[0], args[1]
        attrs = {"components": int(np.size(idx))}
        if kind == "hvp":
            attrs["repeat"] = bool(previous) and _same(idx, previous[0]) and _same(x, previous[1])
            previous[:] = [idx, x]
        return attrs

    return annotate


def _estimator_kind(reset_attr: str):
    def annotate(args, kwargs, result):
        state, problem, B = args[0], args[1], args[4]
        return {"reset": getattr(state, reset_attr), "full": B >= problem.n}

    return annotate


def _cubic_result(args, kwargs, result):
    return {"status": result.status, "iterations": result.iterations}


def _accepted(args, kwargs, result):
    return {"accepted": bool(result[1])}


_FINITE_SUM = {
    "batch_value": "finite_sum.batch_value",
    "batch_gradient": "finite_sum.batch_gradient",
    "batch_hessian": "finite_sum.batch_hessian",
    "batch_hvp": "finite_sum.batch_hvp",
}

# (module, attribute, span name, annotator) for every patched import site.
_SITES = [
    ("vrcubic.cli", "build_problem", "cli.build_problem", None),
    ("vrcubic.cli", "build_solver_config", "cli.build_solver_config", None),
    ("vrcubic.cli", "parse_libsvm", "objectives.parse_libsvm", None),
    ("vrcubic.cli", "make_synthetic", "objectives.make_synthetic", None),
    ("vrcubic.cli", "run_srvrc", "drivers.run", None),
    ("vrcubic.cli", "run_srvrc_free", "drivers.run", None),
    ("vrcubic.cli", "mu_criterion", "diagnostics.mu", None),
    ("vrcubic.diagnostics", "mu_criterion", "diagnostics.mu", None),
    ("vrcubic.diagnostics", "min_eigenvalue", "diagnostics.min_eigenvalue", None),
    ("vrcubic.drivers", "update_gradient_estimator", "estimators.grad_update",
     _estimator_kind("grad_reset_due")),
    ("vrcubic.drivers", "update_hessian_estimator", "estimators.hess_update",
     _estimator_kind("hess_reset_due")),
    ("vrcubic.drivers", "solve_exact", "cubic.solve_exact", _cubic_result),
    ("vrcubic.drivers", "cubic_subsolver", "cubic.subsolver", _cubic_result),
    ("vrcubic.drivers", "cubic_finalsolver", "cubic.finalsolver", _cubic_result),
    ("vrcubic.drivers", "adaptive_penalty_update", "drivers.penalty_update", _accepted),
    ("vrcubic.drivers", "sample_multiset", "finite_sum.sample_multiset", None),
    ("vrcubic.estimators", "sample_multiset", "finite_sum.sample_multiset", None),
] + [
    (module, attr, name, _batch_size)
    for module in ("vrcubic.drivers", "vrcubic.estimators", "vrcubic.diagnostics")
    for attr, name in _FINITE_SUM.items()
]

_KERNELS = {
    "batch_value_fn": "value",
    "batch_grad_fn": "grad",
    "batch_hess_fn": "hess",
    "batch_hvp_fn": "hvp",
}


@contextmanager
def traced(tracer: Tracer, problem=None):
    """Install span wrappers at every import site (and on problem's kernels)."""
    saved = []

    def patch(owner, attr, name, annotate):
        original = getattr(owner, attr, None)
        if original is None:  # not imported there (or no such kernel): nothing to trace
            return
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, annotate))

    try:
        for module, attr, name, annotate in _SITES:
            patch(importlib.import_module(module), attr, name, annotate)
        objectives = importlib.import_module("vrcubic.objectives")
        patch(objectives.LibsvmDataset, "to_dense", "objectives.to_dense", None)
        if problem is not None:
            for attr, kind in _KERNELS.items():
                patch(problem, attr, f"objectives.{kind}", _kernel_annotator(kind))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def _value_pass_kinds(spans: list[Span]) -> dict[int, str]:
    """Label each objective-value pass a driver makes: trace, f_trial or f_out.

    Inside one driver span the last value pass is f_out; a pass that directly
    follows a cubic solve is the adaptive penalty's f_trial; the rest are the
    per-iteration trace values.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0 and spans[s.parent].name == "drivers.run":
            children[s.parent].append(i)
    kinds = {}
    for kids in children.values():
        values = [i for i in kids if spans[i].name == "finite_sum.batch_value"]
        for pos, i in enumerate(kids):
            if spans[i].name != "finite_sum.batch_value":
                continue
            if i == values[-1]:
                kinds[i] = "f_out"
            elif pos > 0 and spans[kids[pos - 1]].name.startswith("cubic."):
                kinds[i] = "f_trial"
            else:
                kinds[i] = "trace"
    return kinds


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: list[Span],
    solves: list[dict],
    setups: int,
    component_bytes: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer numbers: per certified solve, set-up ones per set-up pass."""
    selfs = self_times(spans)
    n_solves = len(solves)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    comps = defaultdict(int)
    setup_dur = defaultdict(float)
    for i, s in enumerate(spans):
        if s.solve < 0:
            setup_dur[s.name] += s.end - s.start
            continue
        dur[s.name] += s.end - s.start
        self_s[s.name] += selfs[i]
        calls[s.name] += 1
        comps[s.name] += s.attrs.get("components", 0)
    solve_spans = [s for s in spans if s.solve >= 0]

    def per_solve(x: float) -> float:
        return x / n_solves

    out: dict[str, tuple[float, str]] = {}
    for op in ("gradient", "hessian", "hvp", "value"):
        out[f"finite_sum.batch_{op}.self_s"] = (per_solve(self_s[f"finite_sum.batch_{op}"]), "s")
    out["finite_sum.sample_multiset.s"] = (per_solve(dur["finite_sum.sample_multiset"]), "s")
    full = sum(
        s.attrs["components"] for s in solve_spans
        if s.name in _FINITE_SUM.values() and s.attrs["full"]
    )
    out["finite_sum.full_batch_share"] = (
        _share(full, sum(comps[name] for name in _FINITE_SUM.values())), "fraction")

    for kind in ("grad", "hess", "hvp", "value"):
        name = f"objectives.{kind}"
        out[f"{name}.s"] = (per_solve(dur[name]), "s")
        out[f"{name}.us_per_component"] = (1e6 * _share(dur[name], comps[name]), "us")
        out[f"{name}.gb_computed"] = (per_solve(comps[name] * component_bytes / 1e9), "GB")
    repeats = sum(1 for s in solve_spans if s.attrs.get("repeat"))
    out["objectives.hvp.repeat_share"] = (_share(repeats, calls["objectives.hvp"]), "fraction")
    for name in ("objectives.parse_libsvm", "objectives.to_dense", "objectives.make_synthetic",
                 "cli.build_problem", "cli.build_solver_config"):
        out[f"{name}.s"] = (setup_dur[name] / setups, "s")

    out["estimators.grad_update.self_s"] = (per_solve(self_s["estimators.grad_update"]), "s")
    out["estimators.hess_update.self_s"] = (per_solve(self_s["estimators.hess_update"]), "s")
    updates = [s for s in solve_spans if s.name.startswith("estimators.")]
    corrections = [s for s in updates if not s.attrs["reset"]]
    out["estimators.resets"] = (per_solve(len(updates) - len(corrections)), "count")
    out["estimators.corrections"] = (per_solve(len(corrections)), "count")
    out["estimators.full_batch_corrections"] = (
        per_solve(sum(1 for s in corrections if s.attrs["full"])), "count")

    out["cubic.solve_exact.calls"] = (per_solve(calls["cubic.solve_exact"]), "count")
    out["cubic.solve_exact.s"] = (per_solve(dur["cubic.solve_exact"]), "s")
    for solver in ("subsolver", "finalsolver"):
        name = f"cubic.{solver}"
        spans_here = [s for s in solve_spans if s.name == name]
        out[f"{name}.calls"] = (per_solve(len(spans_here)), "count")
        out[f"{name}.self_s"] = (per_solve(self_s[name]), "s")
        out[f"{name}.iterations"] = (per_solve(sum(s.attrs["iterations"] for s in spans_here)), "count")
        if solver == "subsolver":
            early = sum(1 for s in spans_here if s.attrs["status"] == "subsolver-early-exit")
            out[f"{name}.early_exit_share"] = (_share(early, len(spans_here)), "fraction")
    matvecs = sum(
        1 for s in solve_spans
        if s.name == "finite_sum.batch_hvp" and spans[s.parent].name in ("cubic.subsolver", "cubic.finalsolver")
    )
    out["cubic.matvecs"] = (per_solve(matvecs), "count")

    out["drivers.self_s"] = (per_solve(self_s["drivers.run"]), "s")
    out["drivers.iterations"] = (per_solve(sum(r["iterations"] for r in solves)), "count")
    kinds = _value_pass_kinds(spans)
    out["drivers.trace_value.passes"] = (per_solve(len(kinds)), "count")
    out["drivers.trace_value.s"] = (per_solve(sum(spans[i].end - spans[i].start for i in kinds)), "s")
    trials = sum(1 for k in kinds.values() if k == "f_trial")
    out["drivers.trace_value.f_trial_share"] = (_share(trials, len(kinds)), "fraction")
    # Steps the driver tried: every iteration but a converged run's last one.
    tried = sum(r["iterations"] - (r["exit"] == "converged") for r in solves)
    rejected = sum(1 for s in solve_spans if s.name == "drivers.penalty_update" and not s.attrs["accepted"])
    out["drivers.accept_share"] = (_share(tried - rejected, tried), "fraction")

    out["diagnostics.mu.s"] = (per_solve(dur["diagnostics.mu"]), "s")
    full_hess = sum(
        s.end - s.start for s in solve_spans
        if s.name == "finite_sum.batch_hessian" and spans[s.parent].name == "diagnostics.mu"
    )
    out["diagnostics.full_hessian.s"] = (per_solve(full_hess), "s")
    out["diagnostics.min_eigenvalue.s"] = (per_solve(dur["diagnostics.min_eigenvalue"]), "s")
    out["diagnostics.mu_ratio"] = (statistics.median(r["mu_ratio"] for r in solves), "ratio")
    return out


def write_spans(path: Path, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "solve": s.solve, **s.attrs,
            }) + "\n")
