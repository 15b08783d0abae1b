import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.diagnostics import mu_criterion
from vrcubic.drivers import AdaptivePenalty, SolverConfig, run_srvrc, run_srvrc_free
from vrcubic.estimators import PracticalBatchRule
from vrcubic.finite_sum import (
    DENSE_LIMIT,
    FiniteSumProblem,
    OracleCounter,
    batch_gradient,
    batch_hessian,
    batch_hvp,
    batch_value,
    full_index,
    sample_multiset,
)
from vrcubic.objectives import binary_logreg_from_arrays, make_synthetic, multiclass_logreg_from_arrays


def quadratic_problem(coeffs):
    """f_i(x) = 0.5 * a_i * ||x||^2 on d=3; every derivative is hand-checkable."""
    a = np.asarray(coeffs, dtype=float)
    d = 3
    return FiniteSumProblem(
        n=len(a),
        dim=d,
        component_value=lambda i, x: 0.5 * a[i] * float(x @ x),
        component_grad=lambda i, x: a[i] * x,
        component_hess=lambda i, x: a[i] * np.eye(d),
        component_hvp=lambda i, x, v: a[i] * v,
        lipschitz_grad=float(np.max(np.abs(a))),
        lipschitz_hess=1.0,
    )


class TestSampling:
    def test_full_batch_when_B_equals_n(self):
        rng = np.random.default_rng(0)
        idx = sample_multiset(rng, 5, 5)
        assert_allclose(idx, np.arange(5))

    def test_full_batch_when_B_exceeds_n(self):
        rng = np.random.default_rng(0)
        idx = sample_multiset(rng, 5, 7)
        assert_allclose(idx, np.arange(5))

    def test_full_batch_consumes_no_randomness(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        sample_multiset(rng1, 5, 9)
        assert rng1.integers(0, 1 << 30) == rng2.integers(0, 1 << 30)

    def test_subsample_range_and_determinism(self):
        idx1 = sample_multiset(np.random.default_rng(42), 100, 10)
        idx2 = sample_multiset(np.random.default_rng(42), 100, 10)
        assert idx1.shape == (10,)
        assert idx1.min() >= 0 and idx1.max() < 100
        assert_allclose(idx1, idx2)

    def test_sorted_for_deterministic_reduction(self):
        idx = sample_multiset(np.random.default_rng(7), 1000, 50)
        assert np.all(np.diff(idx) >= 0)

    def test_replacement_sampling_repeats_indices(self):
        # with B close to n, collisions are essentially certain
        idx = sample_multiset(np.random.default_rng(1), 20, 19)
        assert len(np.unique(idx)) < 19

    @pytest.mark.parametrize("n,B", [(0, 3), (5, 0), (5, -1)])
    def test_degenerate_sizes_rejected(self, n, B):
        with pytest.raises(ValueError):
            sample_multiset(np.random.default_rng(0), n, B)


class TestBatchOracles:
    def test_singleton_gradient(self):
        p = quadratic_problem([2.0, 5.0])
        x = np.array([1.0, -1.0, 2.0])
        c = OracleCounter()
        g = batch_gradient(p, x, np.array([1]), c)
        assert_allclose(g, 5.0 * x)
        assert c.grad_calls == 1

    def test_pair_average_gradient(self):
        # hand-computed: mean of a_1*x and a_2*x is ((a_1+a_2)/2) x
        p = quadratic_problem([2.0, 5.0])
        x = np.array([1.0, -1.0, 2.0])
        g = batch_gradient(p, x, np.array([0, 1]), OracleCounter())
        assert_allclose(g, 3.5 * x)

    def test_full_gradient_is_component_mean(self):
        p = quadratic_problem([1.0, 2.0, 3.0, 10.0])
        x = np.array([0.5, 0.25, -1.0])
        g = batch_gradient(p, x, full_index(p), OracleCounter())
        assert_allclose(g, 4.0 * x)

    def test_multiset_weighting(self):
        # index 0 twice, index 1 once: mean uses multiplicity
        p = quadratic_problem([2.0, 8.0])
        x = np.ones(3)
        g = batch_gradient(p, x, np.array([0, 0, 1]), OracleCounter())
        assert_allclose(g, 4.0 * x)

    def test_batch_hessian_average(self):
        p = quadratic_problem([2.0, 6.0])
        H = batch_hessian(p, np.zeros(3), np.array([0, 1]), OracleCounter())
        assert_allclose(H, 4.0 * np.eye(3))

    def test_batch_value_average(self):
        p = quadratic_problem([2.0, 6.0])
        x = np.array([1.0, 0.0, 0.0])
        f = batch_value(p, x, np.array([0, 1]), OracleCounter())
        assert_allclose(f, 2.0)

    def test_hvp_zero_vector(self):
        p = quadratic_problem([3.0, 4.0])
        hv = batch_hvp(p, np.ones(3), full_index(p), np.zeros(3), OracleCounter())
        assert_allclose(hv, np.zeros(3))

    def test_hvp_identity_hessian(self):
        p = quadratic_problem([1.0, 1.0])
        v = np.array([0.3, -2.0, 1.0])
        hv = batch_hvp(p, np.zeros(3), full_index(p), v, OracleCounter())
        assert_allclose(hv, v)

    def test_hvp_matches_hessian_product(self):
        p = quadratic_problem([2.0, 5.0, 1.0])
        rng = np.random.default_rng(0)
        x, v = rng.standard_normal(3), rng.standard_normal(3)
        idx = np.array([0, 2])
        c = OracleCounter()
        hv = batch_hvp(p, x, idx, v, c)
        H = batch_hessian(p, x, idx, c)
        assert_allclose(hv, H @ v, rtol=1e-12, atol=1e-12)

    def test_out_of_range_index_rejected(self):
        p = quadratic_problem([1.0, 2.0])
        with pytest.raises(IndexError):
            batch_gradient(p, np.zeros(3), np.array([2]), OracleCounter())

    def test_empty_batch_rejected(self):
        p = quadratic_problem([1.0, 2.0])
        with pytest.raises(ValueError):
            batch_gradient(p, np.zeros(3), np.array([], dtype=int), OracleCounter())

    def test_missing_hessian_oracle_reported(self):
        p = FiniteSumProblem(
            n=1,
            dim=2,
            component_value=lambda i, x: float(x @ x),
            component_grad=lambda i, x: 2.0 * x,
            lipschitz_grad=2.0,
            lipschitz_hess=1.0,
        )
        with pytest.raises(ValueError, match="Hessian"):
            batch_hessian(p, np.zeros(2), full_index(p), OracleCounter())


class TestLinearity:
    def test_disjoint_union_average(self):
        p = quadratic_problem([1.0, 2.0, 3.0, 4.0, 5.0])
        x = np.array([1.0, 2.0, 3.0])
        i1 = np.array([0, 1])
        i2 = np.array([2, 3, 4])
        g1 = batch_gradient(p, x, i1, OracleCounter())
        g2 = batch_gradient(p, x, i2, OracleCounter())
        g = batch_gradient(p, x, np.concatenate([i1, i2]), OracleCounter())
        assert_allclose(g, (2 * g1 + 3 * g2) / 5, rtol=1e-12)


class TestCounters:
    def test_counts_accumulate_per_component(self):
        p = quadratic_problem([1.0, 2.0, 3.0])
        c = OracleCounter()
        x = np.zeros(3)
        batch_gradient(p, x, np.array([0, 1]), c)
        batch_gradient(p, x, np.array([2]), c)
        batch_hessian(p, x, full_index(p), c)
        batch_hvp(p, x, np.array([0]), np.ones(3), c)
        batch_value(p, x, np.array([0, 0]), c)
        assert c.grad_calls == 3
        assert c.hess_calls == 3
        assert c.hvp_calls == 1
        assert c.value_calls == 2

    def test_full_set_charges_n(self):
        p = quadratic_problem([1.0] * 7)
        c = OracleCounter()
        idx = sample_multiset(np.random.default_rng(0), 7, 100)
        batch_gradient(p, np.zeros(3), idx, c)
        assert c.grad_calls == 7

    def test_snapshot_is_independent_copy(self):
        c = OracleCounter(grad_calls=4, hvp_calls=2)
        snap = c.snapshot()
        c.grad_calls += 10
        assert snap.grad_calls == 4
        assert snap.hvp_calls == 2
        assert snap.value_calls == 0


class TestValidation:
    def test_bad_problem_sizes(self):
        with pytest.raises(ValueError):
            FiniteSumProblem(
                n=0,
                dim=2,
                component_value=lambda i, x: 0.0,
                component_grad=lambda i, x: np.zeros(2),
                lipschitz_grad=1.0,
                lipschitz_hess=1.0,
            )

    def test_nonpositive_lipschitz_rejected(self):
        with pytest.raises(ValueError):
            FiniteSumProblem(
                n=1,
                dim=2,
                component_value=lambda i, x: 0.0,
                component_grad=lambda i, x: np.zeros(2),
                lipschitz_grad=1.0,
                lipschitz_hess=0.0,
            )


def penalized_quadratics(n=40, d=4, seed=0):
    """Data for f_i(x) = 0.5 x.A_i.x + b_i.x + 0.5 sum_j x_j^2 / (1 + x_j^2)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, d, d))
    A = 0.45 * (G + np.transpose(G, (0, 2, 1))) / np.sqrt(d)
    b = rng.standard_normal((n, d)) / np.sqrt(d)
    return A, b


def _pen_value(x):
    return 0.5 * float(np.sum(x * x / (1.0 + x * x)))


def _pen_grad(x):
    return x / (1.0 + x * x) ** 2


def _pen_curv(x):
    return (1.0 - 3.0 * x * x) / (1.0 + x * x) ** 3


def component_problem(hess=True, hvp=True, n=40, d=4):
    """The penalized quadratics given by per-component oracles only."""
    A, b = penalized_quadratics(n, d)
    return FiniteSumProblem(
        n=n,
        dim=d,
        component_value=lambda i, x: 0.5 * float(x @ A[i] @ x) + float(b[i] @ x) + _pen_value(x),
        component_grad=lambda i, x: A[i] @ x + b[i] + _pen_grad(x),
        component_hess=(lambda i, x: A[i] + np.diag(_pen_curv(x))) if hess else None,
        component_hvp=(lambda i, x, v: A[i] @ v + _pen_curv(x) * v) if hvp else None,
        lipschitz_grad=3.0,
        lipschitz_hess=2.5,
    )


def kernel_problem(n=40, d=4):
    """The same penalized quadratics given by batch kernels only."""
    A, b = penalized_quadratics(n, d)

    def value(idx, x):
        quad = 0.5 * np.einsum("i,kij,j->k", x, A[idx], x) + b[idx] @ x
        return float(quad.mean()) + _pen_value(x)

    return FiniteSumProblem(
        n=n,
        dim=d,
        batch_value_fn=value,
        batch_grad_fn=lambda idx, x: A[idx].mean(axis=0) @ x + b[idx].mean(axis=0) + _pen_grad(x),
        batch_hess_fn=lambda idx, x: A[idx].mean(axis=0) + np.diag(_pen_curv(x)),
        batch_hvp_fn=lambda idx, x, v: A[idx].mean(axis=0) @ v + _pen_curv(x) * v,
        lipschitz_grad=3.0,
        lipschitz_hess=2.5,
    )


def index_order_mean(oracle, idx, *args):
    """Hand-written multiset mean: accumulate in index order, divide once."""
    acc = 0.0
    for i in idx:
        acc = acc + oracle(int(i), *args)
    return acc / len(idx)


# (exit, iterations, oracle counters, diagnostic counters) of seeded runs on
# the component-only, Hessian-only problem, captured before batch kernels
# became the only oracle path.
COMPONENT_GOLDEN_RUNS = {
    "srvrc-adaptive": (
        run_srvrc,
        {"penalty": AdaptivePenalty()},
        ("converged", 14, (208, 104, 0, 0), (0, 0, 0, 1120)),
    ),
    "srvrc_free": (run_srvrc_free, {}, ("converged", 36, (528, 0, 950, 0), (0, 0, 0, 1480))),
}


class TestOracleProtocol:
    def test_kernel_only_problem_runs_both_drivers(self):
        p = kernel_problem()
        config = SolverConfig(eps=1e-2, T=60, x0=np.full(4, 0.8), batch=PracticalBatchRule(20, 10, 3))
        for runner in (run_srvrc, run_srvrc_free):
            result = runner(p, config)
            assert result.exit == "converged"
            assert np.isfinite(result.x_out).all()

    def test_component_views_are_singleton_kernels(self):
        p = kernel_problem()
        x = np.array([0.3, -1.2, 0.7, 2.0])
        v = np.array([1.0, 0.5, -0.25, 2.0])
        for i in (0, 17, p.n - 1):
            one = np.array([i])
            assert p.component_value(i, x) == p.batch_value_fn(one, x)
            assert np.array_equal(p.component_grad(i, x), p.batch_grad_fn(one, x))
            assert np.array_equal(p.component_hess(i, x), p.batch_hess_fn(one, x))
            assert np.array_equal(p.component_hvp(i, x, v), p.batch_hvp_fn(one, x, v))

    @pytest.mark.parametrize("missing", ["value", "grad"])
    def test_missing_value_or_gradient_oracle_rejected(self, missing):
        oracles = {
            "value": {"component_value": lambda i, x: 0.0},
            "grad": {"batch_grad_fn": lambda idx, x: np.zeros(2)},
        }
        with pytest.raises(ValueError, match=missing):
            FiniteSumProblem(n=1, dim=2, **oracles["grad" if missing == "value" else "value"])

    @pytest.mark.parametrize("hvp", [True, False], ids=["hess+hvp", "hess-only"])
    def test_component_only_batches_are_index_order_means(self, hvp):
        p = component_problem(hvp=hvp)
        q = component_problem()  # its oracles are the hand-written reference
        x = np.array([0.3, -1.2, 0.7, 2.0])
        v = np.array([1.0, 0.5, -0.25, 2.0])
        idx = np.array([0, 3, 3, 9, 21, 39])
        assert batch_value(p, x, idx) == index_order_mean(q.component_value, idx, x)
        assert np.array_equal(batch_gradient(p, x, idx), index_order_mean(q.component_grad, idx, x))
        assert np.array_equal(batch_hessian(p, x, idx), index_order_mean(q.component_hess, idx, x))
        if hvp:
            expected = index_order_mean(q.component_hvp, idx, x, v)
        else:
            expected = index_order_mean(q.component_hess, idx, x) @ v
        assert np.array_equal(batch_hvp(p, x, idx, v), expected)

    def test_missing_hvp_oracle_raises_before_charging(self):
        p = component_problem(hess=False, hvp=False)
        c = OracleCounter()
        with pytest.raises(ValueError, match="Hessian-vector"):
            batch_hvp(p, np.zeros(4), full_index(p), np.ones(4), c)
        with pytest.raises(ValueError, match="Hessian"):
            batch_hessian(p, np.zeros(4), full_index(p), c)
        assert c == OracleCounter()

    @pytest.mark.parametrize("name", sorted(COMPONENT_GOLDEN_RUNS))
    def test_component_only_golden_bills(self, name):
        runner, options, expected = COMPONENT_GOLDEN_RUNS[name]
        p = component_problem(hvp=False)
        config = SolverConfig(
            eps=1e-3, T=60, x0=np.full(4, 0.8), seed=3, batch=PracticalBatchRule(20, 10, 3), **options
        )
        result = runner(p, config)
        got = (
            result.exit,
            result.iterations,
            dataclasses.astuple(result.counters),
            dataclasses.astuple(result.diag_counters),
        )
        assert got == expected


def diagonal_problem(d, hvp=True, hess_log=None):
    """f(x) = 0.5 x.D.x, n=1, with D = diag(-1, 1, ..., 2); Hessian calls go to hess_log."""
    D = np.concatenate([[-1.0], np.linspace(1.0, 2.0, d - 1)])

    def hess(i, x):
        if hess_log is not None:
            hess_log.append(i)
        return np.diag(D)

    return FiniteSumProblem(
        n=1,
        dim=d,
        component_value=lambda i, x: 0.5 * float(x @ (D * x)),
        component_grad=lambda i, x: D * x,
        component_hess=hess,
        component_hvp=(lambda i, x, v: D * v) if hvp else None,
        lipschitz_grad=2.0,
        lipschitz_hess=1.0,
    ), D


class TestDenseLimit:
    @pytest.mark.parametrize("d", [DENSE_LIMIT, DENSE_LIMIT + 1])
    def test_hessian_kept_at_limit_dropped_above(self, d):
        kept = d <= DENSE_LIMIT
        component, _ = diagonal_problem(d)
        kernel = FiniteSumProblem(
            n=1,
            dim=d,
            batch_value_fn=lambda idx, x: 0.0,
            batch_grad_fn=lambda idx, x: np.zeros(d),
            batch_hess_fn=lambda idx, x: np.zeros((d, d)),
        )
        binary = binary_logreg_from_arrays(np.zeros((2, d)), np.array([0.0, 1.0]))
        multiclass = multiclass_logreg_from_arrays(np.zeros((1, d)), np.array([0]), 1)
        for p in (component, kernel, binary, multiclass):
            assert (p.batch_hess_fn is not None) == kept
            assert (p.component_hess is not None) == kept
        assert binary.batch_hvp_fn is not None and multiclass.batch_hvp_fn is not None

    def test_hessian_only_problem_keeps_hvp_above_limit(self):
        p, D = diagonal_problem(DENSE_LIMIT + 1, hvp=False)
        v = np.arange(p.dim, dtype=float)
        c = OracleCounter()
        assert np.array_equal(batch_hvp(p, np.zeros(p.dim), full_index(p), v, c), D * v)
        assert c == OracleCounter(hvp_calls=1)

    def test_hessian_requests_raise_before_charging_above_limit(self):
        log = []
        p, _ = diagonal_problem(DENSE_LIMIT + 1, hvp=False, hess_log=log)
        c = OracleCounter()
        with pytest.raises(ValueError, match=f"exceeds the dense limit {DENSE_LIMIT}"):
            batch_hessian(p, np.zeros(p.dim), full_index(p), c)
        assert c == OracleCounter()
        config = SolverConfig(eps=1e-2, T=3, batch=PracticalBatchRule(1, 1, 1))
        with pytest.raises(ValueError, match=f"exceeds the dense limit {DENSE_LIMIT}"):
            run_srvrc(p, config)
        assert log == []

    def test_mu_criterion_bills_hvps_not_hessians_above_limit(self):
        log = []
        p, _ = diagonal_problem(DENSE_LIMIT + 1, hess_log=log)
        c = OracleCounter()
        mu = mu_criterion(p, np.zeros(p.dim), rho=1.0, counter=c)
        assert mu == pytest.approx(1.0, rel=1e-8)
        assert c.grad_calls == 1 and c.hvp_calls > 0
        assert c.hess_calls == 0 and log == []


def hessian_kernel_problem(n=40, d=4, hess_log=None, signed_zero=False):
    """The penalized quadratics given by value, gradient and Hessian kernels only.

    ``signed_zero`` adds diag(copysign(0.25, x)) to the Hessian, so x = -0.0
    and x = 0.0 give different products; Hessian calls go to hess_log.
    """
    A, _ = penalized_quadratics(n, d)
    reference = kernel_problem(n, d)

    def hess(idx, x):
        if hess_log is not None:
            hess_log.append(idx.size)
        H = A[idx].mean(axis=0) + np.diag(_pen_curv(x))
        return H + np.diag(np.copysign(0.25, x)) if signed_zero else H

    return FiniteSumProblem(
        n=n,
        dim=d,
        batch_value_fn=reference.batch_value_fn,
        batch_grad_fn=reference.batch_grad_fn,
        batch_hess_fn=hess,
        lipschitz_grad=3.0,
        lipschitz_hess=2.5,
    )


def _logreg_data(classes=None, n=30, d=4, seed=12):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    labels = rng.integers(0, classes or 2, size=n)
    return X, labels if classes else labels.astype(float)


# Builders of problems whose kernels keep their last answer (a linearization,
# for Hessian-vector kernels); each call builds a fresh problem, i.e. cold kernels.
LINEARIZED = {
    "binary-logreg": lambda: binary_logreg_from_arrays(*_logreg_data(), lam=0.1),
    "multiclass-logreg": lambda: multiclass_logreg_from_arrays(*_logreg_data(3), 3, lam=0.1),
    "synthetic": lambda: make_synthetic(3, 30, 4),
    "synthetic-convex": lambda: make_synthetic(3, 30, 4, "convex"),
    "hessian-kernel": lambda: hessian_kernel_problem(n=30, signed_zero=True),
}


class TestLinearizedHvp:
    @pytest.mark.parametrize("name", sorted(LINEARIZED))
    def test_kept_linearization_matches_cold_kernel(self, name):
        warm = LINEARIZED[name]()
        rng = np.random.default_rng(4)

        def check(idx, x):
            v = rng.standard_normal(warm.dim)
            got = warm.batch_hvp_fn(idx, x, v)
            cold = LINEARIZED[name]()
            want = cold.batch_hvp_fn(idx.copy(), x.copy(), v)
            assert got.tobytes() == want.tobytes()
            for kind in ("value", "grad", "hess"):
                got = getattr(warm, f"batch_{kind}_fn")(idx, x)
                want = getattr(cold, f"batch_{kind}_fn")(idx.copy(), x.copy())
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), kind

        a, b = np.array([0, 2, 2, 5, 29]), np.array([1, 3, 3, 3, 8])
        x = rng.standard_normal(warm.dim)
        for _ in range(3):  # one (idx, x), many vectors
            check(a, x)
        check(b, x)  # a new idx
        check(a, x)  # an earlier idx again
        x[1] += 0.5  # x mutated in place
        check(a, x)
        a[0] = 7  # idx mutated in place
        check(a, x)
        zero = np.zeros(warm.dim)
        check(a, zero)
        zero *= -1.0  # -0.0 has other bytes than 0.0
        check(a, zero)

    def test_hessian_formed_once_per_point(self):
        log = []
        p = hessian_kernel_problem(hess_log=log)
        x, idx = np.full(p.dim, 0.3), np.array([1, 4, 4])
        c = OracleCounter()
        for k in range(5):
            batch_hvp(p, x, idx, np.eye(p.dim)[k % p.dim], c)
        assert log == [3]
        assert c == OracleCounter(hvp_calls=15)  # each application is still billed
        batch_hvp(p, x + 1.0, idx, np.ones(p.dim), c)
        assert log == [3, 3]


def counted(kernel, log):
    """``kernel`` that appends the bytes of every x it is evaluated at to log."""

    def counting(idx, x):
        log.append(x.tobytes())
        return kernel(idx, x)

    return counting


def counting_problem(logs, n=40, d=4):
    """kernel_problem whose value, gradient and Hessian evaluations are logged by kind."""
    reference = kernel_problem(n, d)
    kernels = {
        f"batch_{kind}_fn": counted(getattr(reference, f"batch_{kind}_fn"), logs.setdefault(kind, []))
        for kind in ("value", "grad", "hess")
    }
    return FiniteSumProblem(n=n, dim=d, lipschitz_grad=3.0, lipschitz_hess=2.5, **kernels)


class TestLastQueryMemo:
    def test_full_batch_corrections_evaluate_each_iterate_once(self):
        logs = {}
        p = counting_problem(logs)
        # B = 3n clamps every batch, corrections included, to the full index
        rule = PracticalBatchRule(3 * p.n, 3 * p.n, 3)
        result = run_srvrc(p, SolverConfig(eps=1e-6, T=7, x0=np.full(4, 0.8), seed=2, batch=rule))
        assert (result.exit, result.iterations) == ("budget-exhausted", 7)
        # the bill counts queries: n per reset (t = 0, 3, 6) and 2n per correction
        assert dataclasses.astuple(result.counters) == (440, 440, 0, 0)
        for kind in ("grad", "hess"):
            assert len(logs[kind]) == len(set(logs[kind])) == result.iterations, kind

    def test_no_kernel_is_evaluated_twice_in_a_row_at_one_query(self):
        logs = {}
        p = counting_problem(logs)
        config = SolverConfig(
            eps=1e-3, T=60, x0=np.full(4, 0.8), seed=3, batch=PracticalBatchRule(120, 120, 3),
            penalty=AdaptivePenalty(),
        )
        result = run_srvrc(p, config)
        assert result.diag_counters.value_calls > p.n * len(logs["value"])  # f_trial was reused
        for kind, log in logs.items():
            assert all(a != b for a, b in zip(log, log[1:])), kind

    @pytest.mark.parametrize("name", sorted(LINEARIZED))
    def test_callers_own_their_answers(self, name):
        p = LINEARIZED[name]()
        idx, x = np.array([0, 2, 2, 5]), np.full(p.dim, 0.4)
        for kind in ("grad", "hess"):
            kernel = getattr(p, f"batch_{kind}_fn")
            got = kernel(idx, x)
            want = got.tobytes()
            for _ in range(2):  # mutate the answer computed, then the one kept
                got += 1.0
                got = kernel(idx, x)
                assert got.tobytes() == want
            oracle = batch_gradient if kind == "grad" else batch_hessian
            oracle(p, x, idx)[...] = np.nan
            assert kernel(idx, x).tobytes() == want

    @pytest.mark.parametrize("runner", [run_srvrc, run_srvrc_free])
    def test_warm_problem_runs_like_a_fresh_one(self, runner):
        options = {"eps": 1e-3, "T": 40, "seed": 5, "penalty": AdaptivePenalty(), "subsolver_max_iters": 300}
        config = SolverConfig(x0=np.full(8, 0.8), **options)
        fresh = runner(make_synthetic(3, 400, 8), config)
        warm = make_synthetic(3, 400, 8)
        runner(warm, SolverConfig(x0=np.full(8, -0.5), **options))  # leaves answers at other points
        full = full_index(warm)
        for oracle in (batch_value, batch_gradient, batch_hessian):
            oracle(warm, config.x0.copy(), full)  # and one at the run's first query
        for _ in range(2):
            again = runner(warm, config)
            assert np.array_equal(again.x_out, fresh.x_out)
            assert [dataclasses.replace(r, wall_ms=0) for r in again.trace] == [
                dataclasses.replace(r, wall_ms=0) for r in fresh.trace
            ]
            assert (again.counters, again.diag_counters) == (fresh.counters, fresh.diag_counters)


class TestHessianKernelOnly:
    def test_products_are_the_hessian_times_v(self):
        p = hessian_kernel_problem()
        x, v = np.array([0.3, -1.2, 0.7, 2.0]), np.array([1.0, 0.5, -0.25, 2.0])
        idx = np.array([0, 3, 3, 9, 21, 39])
        assert np.array_equal(batch_hvp(p, x, idx, v), p.batch_hess_fn(idx, x) @ v)
        assert np.array_equal(p.component_hvp(3, x, v), p.batch_hess_fn(np.array([3]), x) @ v)

    def test_srvrc_free_converges(self):
        p = hessian_kernel_problem(d=3)
        config = SolverConfig(eps=1e-2, T=60, x0=np.full(3, 0.8), batch=PracticalBatchRule(20, 10, 3))
        result = run_srvrc_free(p, config)
        assert result.exit == "converged"
        assert result.counters.hvp_calls > 0 and result.counters.hess_calls == 0
        assert mu_criterion(p, result.x_out, p.lipschitz_hess) <= 600 * 1e-2**1.5

    def test_mu_criterion_bills_hvps_above_limit(self):
        d = DENSE_LIMIT + 1
        D = np.concatenate([[-1.0], np.linspace(1.0, 2.0, d - 1)])
        log = []

        def hess(idx, x):
            log.append(idx.size)
            return np.diag(D)

        p = FiniteSumProblem(
            n=1,
            dim=d,
            batch_value_fn=lambda idx, x: 0.5 * float(x @ (D * x)),
            batch_grad_fn=lambda idx, x: D * x,
            batch_hess_fn=hess,
            lipschitz_grad=2.0,
        )
        assert p.batch_hess_fn is None and p.batch_hvp_fn is not None
        c = OracleCounter()
        mu = mu_criterion(p, np.zeros(d), rho=1.0, counter=c)
        assert mu == pytest.approx(1.0, rel=1e-8)
        assert c.grad_calls == 1 and c.hvp_calls > 1 and c.hess_calls == 0
        assert log == [1]  # one Hessian for the whole Lanczos run
