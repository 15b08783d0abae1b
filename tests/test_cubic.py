import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.cubic import (
    BudgetExceededError,
    CubicModel,
    cauchy_point,
    cubic_finalsolver,
    cubic_function,
    cubic_gradient,
    cubic_subsolver,
    solve_exact,
)

# closed-form 1-D solution of b=1, A=0, tau=6: stationarity 1 + 3*h*|h| = 0
# gives h* = -1/sqrt(3) and m(h*) = -(2/3)/sqrt(3)
H_STAR_1D = -1.0 / math.sqrt(3.0)
M_STAR_1D = -(2.0 / 3.0) / math.sqrt(3.0)


def random_model(rng, d, tau_range=(0.5, 4.0)):
    S = rng.standard_normal((d, d))
    A = 0.5 * (S + S.T)
    b = rng.standard_normal(d)
    tau = float(rng.uniform(*tau_range))
    return CubicModel(b=b, A=A, penalty=tau, hess_norm_bound=float(np.linalg.norm(A, 2)))


class TestModelEvaluation:
    def test_value_at_zero(self):
        m = CubicModel(b=np.array([1.0, 2.0]), A=np.eye(2), penalty=1.0, hess_norm_bound=1.0)
        assert cubic_function(m, np.zeros(2)) == 0.0

    def test_scalar_arithmetic(self):
        # b=0, A=I (d=1), tau=6, h=1: 0 + 1/2 + 1 = 1.5
        m = CubicModel(b=np.zeros(1), A=np.eye(1), penalty=6.0, hess_norm_bound=1.0)
        assert_allclose(cubic_function(m, np.ones(1)), 1.5, rtol=1e-15)

    def test_explicit_and_closure_paths_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            me = random_model(rng, 4)
            mc = CubicModel(
                b=me.b, A=lambda v, A=me.A: A @ v, penalty=me.penalty,
                hess_norm_bound=me.hess_norm_bound,
            )
            h = rng.standard_normal(4)
            assert_allclose(cubic_function(mc, h), cubic_function(me, h), rtol=1e-12)
            assert_allclose(cubic_gradient(mc, h), cubic_gradient(me, h), rtol=1e-12)

    def test_gradient_at_zero_is_b(self):
        m = CubicModel(b=np.array([3.0, -1.0]), A=np.eye(2), penalty=2.0, hess_norm_bound=1.0)
        assert_allclose(cubic_gradient(m, np.zeros(2)), m.b)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = random_model(rng, 3)
            h = rng.standard_normal(3)
            g = cubic_gradient(m, h)
            step = 1e-6
            fd = np.zeros(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                fd[j] = (cubic_function(m, h + e) - cubic_function(m, h - e)) / (2 * step)
            assert_allclose(g, fd, rtol=1e-6, atol=1e-6)

    def test_gradient_vanishes_at_1d_solution(self):
        m = CubicModel(b=np.ones(1), A=np.zeros((1, 1)), penalty=6.0, hess_norm_bound=0.0)
        g = cubic_gradient(m, np.array([H_STAR_1D]))
        assert abs(g[0]) <= 1e-14

    def test_penalty_must_be_positive(self):
        with pytest.raises(ValueError):
            CubicModel(b=np.ones(2), A=np.eye(2), penalty=0.0, hess_norm_bound=1.0)


class TestCauchyPoint:
    def test_zero_hessian_closed_form(self):
        # A[b] = 0 makes the curvature term vanish: R_c = sqrt(2||b||/tau)
        b = np.array([3.0, 4.0])
        m = CubicModel(b=b, A=np.zeros((2, 2)), penalty=2.0, hess_norm_bound=0.0)
        p = cauchy_point(m)
        assert_allclose(np.linalg.norm(p), math.sqrt(2 * 5.0 / 2.0), rtol=1e-12)
        assert_allclose(p / np.linalg.norm(p), -b / 5.0, rtol=1e-12)

    def test_1d_plug_in(self):
        m = CubicModel(b=np.ones(1), A=np.zeros((1, 1)), penalty=2.0, hess_norm_bound=0.0)
        assert_allclose(cauchy_point(m), [-1.0], rtol=1e-12)

    def test_zero_b_degenerates_to_origin(self):
        m = CubicModel(b=np.zeros(3), A=np.eye(3), penalty=1.0, hess_norm_bound=1.0)
        assert_allclose(cauchy_point(m), np.zeros(3))

    def test_minimizes_model_along_ray(self):
        # line-search oracle: no point on the -b ray does better
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_model(rng, 3)
            p = cauchy_point(m)
            val = cubic_function(m, p)
            assert val <= 0.0 + 1e-15
            direction = -m.b / np.linalg.norm(m.b)
            for r in np.linspace(0.0, 3 * np.linalg.norm(p) + 1.0, 400):
                assert val <= cubic_function(m, r * direction) + 1e-10


class TestExactSolver:
    def test_zero_b_psd_returns_origin(self):
        m = CubicModel(b=np.zeros(3), A=np.eye(3), penalty=1.0, hess_norm_bound=1.0)
        sol = solve_exact(m)
        assert_allclose(sol.h, np.zeros(3))
        assert sol.m_value == 0.0
        assert sol.lam == 0.0

    def test_1d_closed_form(self):
        m = CubicModel(b=np.ones(1), A=np.zeros((1, 1)), penalty=6.0, hess_norm_bound=0.0)
        sol = solve_exact(m)
        assert_allclose(sol.h, [H_STAR_1D], rtol=1e-10)
        assert_allclose(sol.m_value, M_STAR_1D, rtol=1e-10)

    def test_1d_grid_confirmation(self):
        m = CubicModel(b=np.ones(1), A=np.zeros((1, 1)), penalty=6.0, hess_norm_bound=0.0)
        sol = solve_exact(m)
        grid = np.arange(-2.0, 2.0, 1e-4)
        vals = grid + np.abs(grid) ** 3
        assert sol.m_value <= vals.min() + 1e-7

    def test_stationarity_and_global_optimality(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_model(rng, 6)
            sol = solve_exact(m)
            gn = np.linalg.norm(cubic_gradient(m, sol.h))
            assert gn <= 1e-8 * (1 + np.linalg.norm(m.b))
            lam_min = np.linalg.eigvalsh(m.A)[0]
            assert lam_min + sol.lam >= -1e-8
            assert_allclose(sol.lam, m.penalty * np.linalg.norm(sol.h) / 2, rtol=1e-10)

    def test_dominates_cauchy_point(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m = random_model(rng, 5)
            sol = solve_exact(m)
            assert sol.m_value <= cubic_function(m, cauchy_point(m)) + 1e-8
            assert sol.m_value <= 1e-12

    def test_secular_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng, 4)
            sol = solve_exact(m)
            lam = sol.lam
            shifted = m.A + lam * np.eye(4)
            if np.linalg.eigvalsh(shifted)[0] <= 1e-10:
                continue
            lhs = np.linalg.norm(np.linalg.solve(shifted, m.b))
            assert_allclose(lhs, 2 * lam / m.penalty, rtol=1e-6)

    def test_hard_case(self):
        # b orthogonal to the bottom eigenvector forces the eigenvector
        # correction branch
        A = np.diag([-1.0, 1.0])
        b = np.array([0.0, 0.5])
        m = CubicModel(b=b, A=A, penalty=1.0, hess_norm_bound=1.0)
        sol = solve_exact(m)
        assert sol.lam >= 1.0 - 1e-10
        gn = np.linalg.norm(cubic_gradient(m, sol.h))
        assert gn <= 1e-8 * (1 + np.linalg.norm(b))
        # global optimum has ||h|| = 2*lam/tau = 2
        assert_allclose(np.linalg.norm(sol.h), 2.0, rtol=1e-8)

    def test_hard_case_status_flagged(self):
        A = np.diag([-2.0, 0.5, 1.0])
        b = np.array([0.0, 0.3, -0.2])
        m = CubicModel(b=b, A=A, penalty=1.5, hess_norm_bound=2.0)
        sol = solve_exact(m)
        gn = np.linalg.norm(cubic_gradient(m, sol.h))
        assert gn <= 1e-8 * (1 + np.linalg.norm(b))
        assert np.linalg.eigvalsh(A)[0] + sol.lam >= -1e-8

    def test_closure_input_rejected(self):
        m = CubicModel(b=np.ones(2), A=lambda v: v, penalty=1.0, hess_norm_bound=1.0)
        with pytest.raises(ValueError):
            solve_exact(m)


class TestSubsolver:
    def saddle_model(self, c=1e-3):
        A = np.diag([-1.0, 1.0])
        b = np.array([0.0, c])
        return CubicModel(b=b, A=A, penalty=1.0, hess_norm_bound=1.0)

    def test_cauchy_early_exit(self):
        # steep linear model: the Cauchy step already beats the target
        m = CubicModel(b=np.array([5.0, 0.0]), A=np.zeros((2, 2)), penalty=1.0,
                       hess_norm_bound=0.0)
        rng = np.random.default_rng(0)
        sol = cubic_subsolver(m, eta=1 / 16, zeta=0.5, eps_quality=0.5,
                              fail_prob=0.1, rng=rng)
        assert sol.status == "subsolver-early-exit"
        assert sol.iterations == 0
        assert_allclose(sol.h, cauchy_point(m), rtol=1e-12)

    def test_single_step_budget(self):
        m = self.saddle_model()
        rng = np.random.default_rng(1)
        sol = cubic_subsolver(m, eta=1 / 16, zeta=0.5, eps_quality=0.5,
                              fail_prob=0.1, rng=rng, max_iters=1)
        assert sol.iterations == 1

    def test_escapes_saddle_with_high_probability(self):
        m = self.saddle_model()
        zeta = 0.5
        target = -(1 - 0.5) * m.penalty * zeta**3 / 12
        passes = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            sol = cubic_subsolver(m, eta=1 / 16, zeta=zeta, eps_quality=0.5,
                                  fail_prob=0.1, rng=rng)
            if sol.m_value <= target:
                passes += 1
        assert passes >= 45

    def test_returns_true_model_value(self):
        m = self.saddle_model()
        rng = np.random.default_rng(3)
        sol = cubic_subsolver(m, eta=1 / 16, zeta=0.5, eps_quality=0.5,
                              fail_prob=0.1, rng=rng)
        assert_allclose(sol.m_value, cubic_function(m, sol.h), rtol=1e-10, atol=1e-12)
        assert sol.m_value <= 0.0

    def test_closure_mode_never_materializes_matrix(self):
        applies = []
        A = np.diag([-1.0, 1.0])

        def hvp(v):
            applies.append(1)
            return A @ v

        m = CubicModel(b=np.array([0.0, 1e-3]), A=hvp, penalty=1.0, hess_norm_bound=1.0)
        rng = np.random.default_rng(4)
        sol = cubic_subsolver(m, eta=1 / 16, zeta=0.5, eps_quality=0.5,
                              fail_prob=0.1, rng=rng)
        assert len(applies) >= 1
        assert np.all(np.isfinite(sol.h))

    def test_parameter_validation(self):
        m = self.saddle_model()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cubic_subsolver(m, eta=-1.0, zeta=0.5, eps_quality=0.5, fail_prob=0.1, rng=rng)
        with pytest.raises(ValueError):
            cubic_subsolver(m, eta=0.1, zeta=0.5, eps_quality=1.5, fail_prob=0.1, rng=rng)


class TestFinalsolver:
    def test_zero_b_psd_returns_origin(self):
        m = CubicModel(b=np.zeros(3), A=np.eye(3), penalty=1.0, hess_norm_bound=1.0)
        sol = cubic_finalsolver(m, eta=0.01, grad_tol=1e-8)
        assert_allclose(sol.h, np.zeros(3))
        assert sol.iterations == 0

    def test_1d_closed_form(self):
        m = CubicModel(b=np.ones(1), A=np.zeros((1, 1)), penalty=6.0, hess_norm_bound=0.0)
        R = np.sqrt(1.0 / 6.0)
        eta = 0.9 / (4 * (0.0 + 6.0 * R))
        sol = cubic_finalsolver(m, eta=eta, grad_tol=1e-8)
        assert abs(1.0 + 3.0 * sol.h[0] * abs(sol.h[0])) <= 1e-8
        assert_allclose(sol.h, [H_STAR_1D], atol=1e-5)

    def test_gradient_norm_postcondition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_model(rng, 5)
            beta, tau = m.hess_norm_bound, m.penalty
            R = beta / (2 * tau) + math.sqrt((beta / (2 * tau)) ** 2
                                             + np.linalg.norm(m.b) / tau)
            sol = cubic_finalsolver(m, eta=0.9 / (4 * (beta + tau * R)), grad_tol=1e-6)
            assert np.linalg.norm(cubic_gradient(m, sol.h)) <= 1e-6

    def test_stepsize_precondition_enforced(self):
        m = CubicModel(b=np.ones(2), A=np.eye(2), penalty=1.0, hess_norm_bound=1.0)
        with pytest.raises(ValueError, match="step"):
            cubic_finalsolver(m, eta=10.0, grad_tol=1e-6)

    def test_budget_cap(self):
        # b is not an eigenvector of A, so the Cauchy start is not stationary
        m = CubicModel(b=np.ones(2), A=np.diag([1.0, 2.0]), penalty=1.0,
                       hess_norm_bound=2.0)
        R = 1.0 + math.sqrt(1.0 + math.sqrt(2.0))
        with pytest.raises(BudgetExceededError):
            cubic_finalsolver(m, eta=0.9 / (4 * (2 + R)), grad_tol=1e-12, max_iters=3)


class TestSolverInvariants:
    def test_all_solvers_keep_model_nonpositive(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            m = random_model(rng, 4)
            assert solve_exact(m).m_value <= 1e-12
            sub = cubic_subsolver(m, eta=1 / (16 * max(m.hess_norm_bound, 1e-3)),
                                  zeta=0.3, eps_quality=0.5, fail_prob=0.1,
                                  rng=np.random.default_rng(0))
            assert sub.m_value <= 1e-12

    def test_exact_dominates_subsolver(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            m = random_model(rng, 4)
            exact = solve_exact(m).m_value
            sub = cubic_subsolver(m, eta=1 / (16 * max(m.hess_norm_bound, 1e-3)),
                                  zeta=0.3, eps_quality=0.5, fail_prob=0.1,
                                  rng=np.random.default_rng(1)).m_value
            assert exact <= sub + 1e-8
