"""Each kernel answer depends only on the components charged for it.

A query bills |idx| component evaluations, but the kernels that answer it
read shared state: the synthetic family's precomputed full means, in-place
contractions over all n rows above each crossover, the logistic forward
pass remembered for the last point, and one scratch buffer per thread.
This audit records every kernel call that real runs and direct queries
make -- kind, idx, x, and v for each Hessian-vector product -- with its
answer.  It then replays each call on a freshly built problem whose rows
outside idx hold other values, and asks for the same bytes.

The redrawn rows are finite.  The in-place path weights the rows a
multiset leaves out by an exact 0, and 0 * NaN is NaN, so a NaN row would
reach the answer by design; a finite row times 0 adds an exact 0.
"""

import math

import numpy as np
import pytest

from vrcubic import objectives
from vrcubic.diagnostics import mu_criterion
from vrcubic.drivers import AdaptivePenalty, SolverConfig, run_srvrc, run_srvrc_free
from vrcubic.estimators import PracticalBatchRule
from vrcubic.finite_sum import batch_gradient, batch_hessian, batch_hvp, batch_value
from vrcubic.objectives import binary_logreg_from_arrays, make_synthetic, multiclass_logreg_from_arrays

N = 400
# every crossover at which a kernel family switches between gathering and reading in place
CROSSOVERS = (objectives._SYNTHETIC_IN_PLACE, objectives._LOGREG_IN_PLACE,
              objectives._LOGREG_HESS_IN_PLACE)


def binary_family(rng):
    X, y = rng.standard_normal((N, 12)) / 4, (rng.random(N) < 0.5).astype(float)

    def build(keep, redraw):
        X2, y2 = X.copy(), y.copy()
        out = np.setdiff1d(np.arange(N), keep)
        X2[out], y2[out] = redraw.standard_normal((out.size, X.shape[1])), 1.0 - y[out]
        return binary_logreg_from_arrays(X2, y2, lam=1e-2)

    return build


def multiclass_family(rng):
    X, labels = rng.standard_normal((N, 6)) / 4, rng.integers(0, 3, N)

    def build(keep, redraw):
        X2, labels2 = X.copy(), labels.copy()
        out = np.setdiff1d(np.arange(N), keep)
        X2[out], labels2[out] = redraw.standard_normal((out.size, X.shape[1])), (labels[out] + 1) % 3
        return multiclass_logreg_from_arrays(X2, labels2, 3, lam=1e-2)

    return build


def synthetic_family(monkeypatch):
    """make_synthetic(4, N, 6); a redrawn build changes the packed A_i before
    the full means are taken, so those means are the redrawn problem's own."""
    draw = objectives._draw_components

    def build(keep, redraw):
        out = np.setdiff1d(np.arange(N), keep)

        def draw_then_redraw(gen, P, d, convex):
            draw(gen, P, d, convex)
            P[out] = redraw.uniform(-1.0, 1.0, (out.size, P.shape[1]))

        with monkeypatch.context() as patch:
            patch.setattr(objectives, "_draw_components", draw_then_redraw)
            problem = make_synthetic(4, N, 6)
        # Only a batch holding every row equally often reads the full mean of b,
        # and such a batch leaves no row out, so b may change after the build.
        b = problem.extra["b"]
        b.setflags(write=True)
        b[out] = redraw.standard_normal((out.size, b.shape[1]))
        b.setflags(write=False)
        return problem

    return build


def record(problem):
    """Wrap problem's kernels so each call appends (kind, idx, x, v, answer) to
    the returned list; a Hessian-vector call is one product of an operator."""
    calls = []

    def wrap(kind, kernel):
        def recorded(idx, x):
            args = np.array(idx), np.array(x, dtype=float)
            answer = kernel(idx, x)
            if kind != "hvp":
                calls.append((kind, *args, None, np.array(answer, dtype=float)))
                return answer

            def product(v):
                out = answer(v)
                calls.append((kind, *args, np.array(v, dtype=float), np.array(out, dtype=float)))
                return out

            return product

        return recorded

    for kind in ("value", "grad", "hess", "hvp"):
        setattr(problem, f"batch_{kind}_fn", wrap(kind, getattr(problem, f"batch_{kind}_fn")))
    return calls


def direct_queries(problem, rng):
    """Every oracle on batches at both sides of every crossover, the full set
    in two orders, a size-n multiset with repeats, and two gathered batches
    of one size at one point, at two points."""
    n, dim = problem.n, problem.dim
    batches = [np.arange(n), rng.permutation(n), rng.integers(0, n, n), np.tile(np.arange(n), 2),
               rng.integers(0, n, n // 10), rng.integers(0, n, n // 10)]
    for c in CROSSOVERS:
        k = math.ceil(c * n)
        batches += [rng.integers(0, n, k - 1), rng.integers(0, n, k)]
    points = [0.3 * rng.standard_normal(dim) for _ in range(2)]
    v = rng.standard_normal(dim)
    for x in points + points[:1]:
        for idx in batches:
            batch_value(problem, x, idx)
            batch_gradient(problem, x, idx)
            batch_hessian(problem, x, idx)
            batch_hvp(problem, x, idx)(v)


def runs(problem):
    """run_srvrc under a rule whose resets (390) and corrections (97) lie on
    either side of every crossover of N = 400, and under the paper's
    schedule; run_srvrc_free under a practical rule; mu at each x_out."""
    x0 = np.full(problem.dim, 0.5)
    common = {"eps": 1e-2, "T": 30, "seed": 3, "x0": x0}
    results = [
        run_srvrc(problem, SolverConfig(batch=PracticalBatchRule(390, 390, 4),
                                        penalty=AdaptivePenalty(), **common)),
        run_srvrc(problem, SolverConfig(**common)),
        run_srvrc_free(problem, SolverConfig(batch=PracticalBatchRule(390, 150, 4),
                                             penalty=AdaptivePenalty(), **common)),
    ]
    for result in results:
        mu_criterion(problem, result.x_out, problem.lipschitz_hess)


@pytest.mark.parametrize("family", ["binary", "multiclass", "synthetic"])
def test_every_answer_depends_only_on_its_charged_components(family, monkeypatch):
    rng = np.random.default_rng(31)
    build = {"binary": lambda: binary_family(rng), "multiclass": lambda: multiclass_family(rng),
             "synthetic": lambda: synthetic_family(monkeypatch)}[family]()
    problem = build(np.arange(N), rng)  # keeps every row: the original problem
    calls = record(problem)
    runs(problem)
    direct_queries(problem, rng)
    kinds = {kind for kind, *_ in calls}
    assert kinds == {"value", "grad", "hess", "hvp"}, kinds
    redraw = np.random.default_rng(32)
    for k, (kind, idx, x, v, answer) in enumerate(calls):
        fresh = build(idx, redraw)
        kernel = getattr(fresh, f"batch_{kind}_fn")
        got = kernel(idx, x) if v is None else kernel(idx, x)(v)
        assert np.array(got, dtype=float).tobytes() == answer.tobytes(), (k, kind, idx.size)
