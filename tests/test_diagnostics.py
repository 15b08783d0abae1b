import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.diagnostics import (
    certify_local_min,
    finite_diff_grad_check,
    min_eigenvalue,
    mu_criterion,
)
from vrcubic.finite_sum import OracleCounter, from_components
from vrcubic.objectives import make_binary_logreg, make_synthetic, parse_libsvm


def quadratic_bowl(d=3):
    """F(x) = 0.5 ||x||^2: stationary PSD origin."""
    return from_components(
        n=2,
        dim=d,
        value=lambda i, x: 0.5 * float(x @ x),
        grad=lambda i, x: x.copy(),
        hess=lambda i, x: np.eye(d),
        lipschitz_grad=1.0,
        lipschitz_hess=1.0,
    )


def linear_problem(g):
    """F(x) = g.x: constant gradient, zero Hessian."""
    g = np.asarray(g, dtype=float)
    d = g.size
    return from_components(
        n=1,
        dim=d,
        value=lambda i, x: float(g @ x),
        grad=lambda i, x: g.copy(),
        hess=lambda i, x: np.zeros((d, d)),
        lipschitz_grad=1.0,
        lipschitz_hess=1.0,
    )


def saddle_problem(lam_min=-0.2, d=2):
    """Zero gradient at origin, Hessian diag(lam_min, 1, ..., 1)."""
    D = np.eye(d)
    D[0, 0] = lam_min
    return from_components(
        n=1,
        dim=d,
        value=lambda i, x: 0.5 * float(x @ D @ x),
        grad=lambda i, x: D @ x,
        hess=lambda i, x: D.copy(),
        lipschitz_grad=1.0,
        lipschitz_hess=1.0,
    )


BINARY_LINES = [
    "+1 1:0.9 2:-0.3",
    "-1 1:-0.7 2:0.4",
    "+1 2:1.2",
    "-1 1:0.1 2:-1.1",
    "+1 1:0.5 2:0.5",
    "-1 1:-1.0",
]


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, -5.0, 0.0])) == -5.0

    def test_zero_matrix(self):
        assert min_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            min_eigenvalue(np.zeros((2, 3)))


class TestMuCriterion:
    def test_zero_at_stationary_psd_point(self):
        problem = quadratic_bowl()
        assert mu_criterion(problem, np.zeros(3), rho=1.0) == 0.0

    def test_pure_gradient_term(self):
        g = np.array([0.3, -0.4])  # norm 0.5
        problem = linear_problem(g)
        mu = mu_criterion(problem, np.zeros(2), rho=1.0)
        assert_allclose(mu, 0.5**1.5, rtol=1e-12)

    def test_pure_curvature_term(self):
        problem = saddle_problem(lam_min=-0.2)
        mu = mu_criterion(problem, np.zeros(2), rho=1.0)
        assert_allclose(mu, 0.2**3, rtol=1e-10)  # 0.008

    def test_takes_the_larger_term(self):
        # gradient norm 1 -> 1.0; curvature -2 with rho=1 -> 8.0
        D = np.diag([-2.0, 1.0])
        g = np.array([1.0, 0.0])
        problem = from_components(
            n=1,
            dim=2,
            value=lambda i, x: float(g @ x) + 0.5 * float(x @ D @ x),
            grad=lambda i, x: g + D @ x,
            hess=lambda i, x: D.copy(),
            lipschitz_grad=2.0,
            lipschitz_hess=1.0,
        )
        assert_allclose(mu_criterion(problem, np.zeros(2), rho=1.0), 8.0, rtol=1e-10)

    def test_monotone_in_rho(self):
        problem = saddle_problem(lam_min=-0.5)
        x = np.zeros(2)
        values = [mu_criterion(problem, x, rho=r) for r in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_iff_second_order_stationary(self):
        problem = make_synthetic(seed=3, n=20, d=4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(4)
            # component i is the kernel on [i]
            g = np.mean([problem.batch_grad_fn(np.array([i]), x) for i in range(problem.n)], axis=0)
            mu = mu_criterion(problem, x, rho=1.0)
            if np.linalg.norm(g) > 1e-8:
                assert mu > 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        d = 4
        S = rng.standard_normal((d, d))
        H = 0.5 * (S + S.T)
        g = rng.standard_normal(d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))

        def make(gv, Hm):
            return from_components(
                n=1,
                dim=d,
                value=lambda i, x: float(gv @ x) + 0.5 * float(x @ Hm @ x),
                grad=lambda i, x: gv + Hm @ x,
                hess=lambda i, x: Hm.copy(),
                lipschitz_grad=10.0,
                lipschitz_hess=1.0,
            )

        mu = mu_criterion(make(g, H), np.zeros(d), rho=1.3)
        mu_rot = mu_criterion(make(Q @ g, Q @ H @ Q.T), np.zeros(d), rho=1.3)
        assert_allclose(mu_rot, mu, rtol=1e-8)

    def test_matvec_only_problem_uses_lanczos(self):
        D = np.diag([-0.3, 0.7, 1.2])
        problem = from_components(
            n=1,
            dim=3,
            value=lambda i, x: 0.5 * float(x @ D @ x),
            grad=lambda i, x: D @ x,
            hvp=lambda i, x, v: D @ v,
            lipschitz_grad=1.2,
            lipschitz_hess=1.0,
        )
        counter = OracleCounter()
        mu = mu_criterion(problem, np.zeros(3), rho=1.0, counter=counter)
        assert_allclose(mu, 0.3**3, rtol=1e-6)
        assert counter.hvp_calls > 0
        assert counter.hess_calls == 0

    def test_matvec_only_lanczos_is_deterministic(self):
        # ARPACK's default start vector comes from its own unseeded generator,
        # which moved the HVP bill (1550 vs 2050) between repeated calls
        n, d = 50, 30
        rng = np.random.default_rng(0)
        G = rng.standard_normal((n, d, d))
        A = (G + np.transpose(G, (0, 2, 1))) / (2.0 * math.sqrt(d))
        problem = from_components(
            n=n,
            dim=d,
            value=lambda i, x: 0.5 * float(x @ A[i] @ x),
            grad=lambda i, x: A[i] @ x,
            hvp=lambda i, x, v: A[i] @ v,
        )
        x = rng.standard_normal(d)
        outcomes = set()
        for _ in range(100):
            counter = OracleCounter()
            outcomes.add((mu_criterion(problem, x, rho=1.0, counter=counter), counter.hvp_calls))
        assert len(outcomes) == 1

    def test_counter_charges_full_passes(self):
        problem = quadratic_bowl()
        counter = OracleCounter()
        mu_criterion(problem, np.ones(3), rho=1.0, counter=counter)
        assert counter.grad_calls == problem.n
        assert counter.hess_calls == problem.n

    def test_rho_must_be_positive(self):
        # rho = inf would scale the curvature term to 0, so a saddle would read mu = 0
        for rho in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rho"):
                mu_criterion(quadratic_bowl(), np.zeros(3), rho=rho)


class TestCertify:
    def test_stationary_psd_point_certifies(self):
        problem = quadratic_bowl()
        ok, cert = certify_local_min(problem, np.zeros(3), eps=1e-2, rho=1.0)
        assert ok
        assert cert.mu == 0.0
        assert cert.grad_norm == 0.0
        assert cert.lambda_min == pytest.approx(1.0)

    def test_boundary_constant_is_respected(self):
        # gradient norm chosen so mu = 700 eps^{3/2}: just above the c=600 bar
        eps = 1e-2
        gnorm = (700.0 * eps**1.5) ** (2.0 / 3.0)
        problem = linear_problem(np.array([gnorm, 0.0]))
        ok, cert = certify_local_min(problem, np.zeros(2), eps=eps, rho=1.0, c=600.0)
        assert not ok
        assert_allclose(cert.mu, 700.0 * eps**1.5, rtol=1e-10)
        ok_wide, _ = certify_local_min(problem, np.zeros(2), eps=eps, rho=1.0, c=800.0)
        assert ok_wide

    def test_certificate_reports_tolerance_pair(self):
        problem = quadratic_bowl()
        eps, rho = 4e-2, 2.25
        _, cert = certify_local_min(problem, np.zeros(3), eps=eps, rho=rho)
        assert cert.eps_g == eps
        assert_allclose(cert.eps_H, math.sqrt(rho * eps), rtol=1e-15)

    def test_negative_curvature_blocks_certification(self):
        problem = saddle_problem(lam_min=-0.9)
        ok, cert = certify_local_min(problem, np.zeros(2), eps=1e-4, rho=1.0)
        assert not ok
        assert cert.lambda_min == pytest.approx(-0.9)

    def test_parameter_validation(self):
        problem = quadratic_bowl()
        with pytest.raises(ValueError, match="eps"):
            certify_local_min(problem, np.zeros(3), eps=0.0, rho=1.0)
        with pytest.raises(ValueError, match="c "):
            certify_local_min(problem, np.zeros(3), eps=1e-2, rho=1.0, c=0.0)
        # f = (x0^2 - x1^2) / 2 at the origin: gradient 0, lambda_min = -1, a strict saddle
        saddle = from_components(
            n=1, dim=2, value=lambda i, x: 0.5 * (x[0] ** 2 - x[1] ** 2),
            grad=lambda i, x: np.array([x[0], -x[1]]), hess=lambda i, x: np.diag([1.0, -1.0]),
        )
        ok, cert = certify_local_min(saddle, np.zeros(2), eps=1e-2, rho=1.0)
        assert not ok and cert.lambda_min == -1.0
        # an infinite eps, rho or c would certify it
        for name in ("eps", "rho", "c"):
            for bad in (math.inf, math.nan):
                params = {"eps": 1e-2, "rho": 1.0, "c": 600.0, name: bad}
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                    certify_local_min(saddle, np.zeros(2), **params)


class TestFiniteDiffCheck:
    def test_linear_objective_is_exact(self):
        problem = linear_problem(np.array([1.0, -2.0, 3.0]))
        assert finite_diff_grad_check(problem, np.zeros(3)) <= 1e-12

    def test_logreg_gradient_verifies(self):
        problem = make_binary_logreg(parse_libsvm(BINARY_LINES), lam=0.1)
        rng = np.random.default_rng(5)
        x = 0.5 * rng.standard_normal(problem.dim)
        assert finite_diff_grad_check(problem, x) <= 1e-5

    def test_corrupted_gradient_is_flagged(self):
        base = make_binary_logreg(parse_libsvm(BINARY_LINES), lam=0.1)
        broken = from_components(  # component i is the kernel on [i]
            n=base.n,
            dim=base.dim,
            value=lambda i, x: base.batch_value_fn(np.array([i]), x),
            grad=lambda i, x: base.batch_grad_fn(np.array([i]), x) + 1.0,
            lipschitz_grad=base.lipschitz_grad,
            lipschitz_hess=base.lipschitz_hess,
        )
        rng = np.random.default_rng(6)
        x = 0.5 * rng.standard_normal(base.dim)
        assert finite_diff_grad_check(broken, x) >= 0.5

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            finite_diff_grad_check(quadratic_bowl(), np.zeros(3), step=0.0)

    def test_step_must_be_finite(self):
        for step in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="^step must be positive and finite"):
                finite_diff_grad_check(quadratic_bowl(), np.zeros(3), step=step)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nonfinite_difference_is_not_agreement(self):
        base = make_binary_logreg(parse_libsvm(BINARY_LINES), lam=0.1)
        broken = from_components(  # every gradient coordinate is off by 5
            n=base.n,
            dim=base.dim,
            value=lambda i, x: base.batch_value_fn(np.array([i]), x),
            grad=lambda i, x: base.batch_grad_fn(np.array([i]), x) + 5.0,
            lipschitz_grad=base.lipschitz_grad,
            lipschitz_hess=base.lipschitz_hess,
        )
        x = 0.5 * np.random.default_rng(6).standard_normal(base.dim)
        assert finite_diff_grad_check(broken, x) >= 0.5
        for step in (1e200, 1e300):  # x +- step overflows the penalty: the difference is nan
            with pytest.raises(ValueError, match="^coordinate 0: central difference nan"):
                finite_diff_grad_check(broken, x, step=step)

    def test_nonfinite_gradient_is_not_agreement(self):
        nan_grad = from_components(  # coordinate 1 of the gradient is nan
            n=2, dim=3, value=lambda i, x: 0.5 * float(x @ x),
            grad=lambda i, x: np.where(np.arange(3) == 1, np.nan, x),
        )
        with pytest.raises(ValueError, match="^coordinate 1: .* not finite"):
            finite_diff_grad_check(nan_grad, np.zeros(3))
