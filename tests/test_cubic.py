import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.cubic import (
    BudgetExceededError,
    CubicModel,
    SolverDivergenceError,
    cauchy_point,
    cubic_finalsolver,
    cubic_function,
    cubic_gradient,
    cubic_krylov,
    cubic_subsolver,
    solve_exact,
)
from vrcubic.cubic import _krylov_run, _lanczos, _tridiagonal

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


def lanczos_tridiagonals(k, count=20):
    """Models of the shape _krylov_run hands solve_exact: a symmetric tridiagonal
    (diagonal N(0, 1), off-diagonal |N(0, 1)|), b = 0.3 e_1 and tau = 1."""
    rng = np.random.default_rng(k)
    b = np.zeros(k)
    b[0] = 0.3
    for _ in range(count):
        off = np.abs(rng.standard_normal(k - 1))
        T = np.diag(rng.standard_normal(k)) + np.diag(off, 1) + np.diag(off, -1)
        yield CubicModel(b=b, A=T, penalty=1.0, hess_norm_bound=float(np.linalg.norm(T, 2)))


def near_hard_models(count=200):
    """Dense models (d 2-8) whose b has a bottom-eigenvector component of 10^u,
    u in [-17, -2], or 0 in every tenth model; tau = 10^[-2, 2]."""
    rng = np.random.default_rng(18)
    for i in range(count):
        d = int(rng.integers(2, 9))
        S = rng.standard_normal((d, d))
        A = 0.5 * (S + S.T)
        e, Q = np.linalg.eigh(A)
        tau = 10.0 ** rng.uniform(-2.0, 2.0)
        c = rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 1.0)
        c[0] = 0.0 if i % 10 == 0 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -2.0)
        yield CubicModel(b=Q @ c, A=A, penalty=tau, hess_norm_bound=float(np.max(np.abs(e))))


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

    def test_step_keeps_its_digits_when_the_curvature_dominates(self):
        # curv >> ||b||/tau: -curv + sqrt(curv^2 + 2||b||/tau) cancelled to a
        # derivative of 8.6e-6 |b| here
        b, A, tau = 5.56e-7, 47.7, 2.04e-3
        m = CubicModel(b=np.array([b]), A=np.array([[A]]), penalty=tau, hess_norm_bound=A)
        assert abs(cubic_gradient(m, cauchy_point(m))[0]) <= 1e-12 * b

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

    @pytest.mark.parametrize("k", [5, 10, 20, 40])
    def test_stationarity_on_lanczos_tridiagonals(self, k):
        for m in lanczos_tridiagonals(k):
            sol = solve_exact(m)
            assert np.linalg.norm(cubic_gradient(m, sol.h)) <= 1e-10 * (1 + np.linalg.norm(m.b))
            assert np.linalg.eigvalsh(m.A)[0] + sol.lam >= -1e-8

    def test_near_hard_case_is_stationary_and_global(self):
        # b's bottom component from 0 up to 1e-2: the root lies within ulps of the
        # pole, or past it (the hard case)
        for m in near_hard_models():
            sol = solve_exact(m)
            assert np.linalg.norm(cubic_gradient(m, sol.h)) <= 1e-8 * (1 + np.linalg.norm(m.b))
            assert np.linalg.eigvalsh(m.A)[0] + sol.lam >= -1e-8
            assert sol.m_value <= cubic_function(m, cauchy_point(m)) + 1e-12

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr("vrcubic.cubic._NEWTON_CAP", 1)
        m = next(lanczos_tridiagonals(10))
        with pytest.raises(BudgetExceededError, match="1 steps"):
            solve_exact(m)

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

    @pytest.mark.parametrize("tau", [0.5, 3.754, 20.0])
    def test_root_on_the_pole_completes_the_hard_case(self, tau):
        # near a*I with a < 0 every eigenvalue is "bottom"; when c's bottom entry
        # is exactly 0.0, phi at the floor is 0/0.  The step must still be the
        # hard-case minimizer, of value r^2 lam_min / 6 with r = -2 lam_min / tau.
        # (off, scale, tau) = (-4e-16, 2**-53, 3.754) gave a NaN step.
        a = -1.7265681484288717
        for off in (-8e-16, -4e-16, -1e-16, 2e-16, 6e-16):
            for scale in (0.0, 2.0**-60, 2.0**-53, 2.0**-50, 1e-15):
                A = np.array([[a, off], [off, a]])
                m = CubicModel(b=np.array([-scale, scale]), A=A, penalty=tau, hess_norm_bound=2.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    sol = solve_exact(m)
                lam_min = np.linalg.eigvalsh(A)[0]
                r = -2.0 * lam_min / tau
                assert np.isfinite(sol.h).all(), (off, scale)
                assert abs(sol.m_value - r * r * lam_min / 6.0) <= 1e-12, (off, scale)

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

    def test_divergence_names_the_step(self):
        # hess_norm_bound = 1 understates the curvature 100, so a step size the
        # precondition accepts still overflows
        applies = []
        D = np.array([100.0, -1.0, 0.5])

        def hvp(v):
            applies.append(1)
            return D * v

        m = CubicModel(b=np.ones(3), A=hvp, penalty=1.0, hess_norm_bound=1.0)
        R = 0.5 + math.sqrt(0.25 + math.sqrt(3.0))
        with pytest.raises(SolverDivergenceError,
                           match=r"^cubic finalsolver diverged at gradient step 12$"):
            cubic_finalsolver(m, eta=0.9 / (4 * (1 + R)), grad_tol=1e-8)
        assert len(applies) == 13

    def test_non_finite_product_is_divergence(self):
        # a NaN a product returns raises no floating-point error in the arithmetic
        # that carries it; the iterate check stops the step that takes it into x
        products = []

        def hvp(v):
            products.append(1)
            return np.array([1.0, 2.0]) * v if len(products) < 3 else np.full(2, np.nan)

        m = CubicModel(b=np.ones(2), A=hvp, penalty=1.0, hess_norm_bound=2.0)
        with pytest.raises(SolverDivergenceError,
                           match=r"^cubic finalsolver diverged at gradient step 2$") as info:
            cubic_finalsolver(m, eta=0.01, grad_tol=1e-8)
        assert str(info.value.__cause__) == "non-finite iterate"
        assert len(products) == 3  # the Cauchy point's, then one per gradient step


class TestKrylov:
    def test_cauchy_exit_draws_nothing(self):
        m, applies = counted_model(0, 4)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        sol = cubic_krylov(m, target=subsolver_target(m, 0.1), rng=rng)
        assert (sol.status, sol.iterations, len(applies)) == ("krylov", 1, 1)
        assert rng.bit_generator.state == state
        assert_allclose(sol.h, cauchy_point(m), rtol=1e-10)

    def test_perturbation_is_one_draw_of_the_subsolver_perturbation(self):
        # the perturbed run starts from the same b + sigma q as cubic_subsolver's
        m, _ = counted_model(1, 4, bscale=1e-3)
        for seed in range(5):
            rng_k, rng_s = np.random.default_rng(seed), np.random.default_rng(seed)
            cubic_krylov(m, target=subsolver_target(m, 1.0), rng=rng_k)
            cubic_subsolver(m, eta=1 / (16 * m.hess_norm_bound), zeta=1.0, eps_quality=0.5,
                            fail_prob=0.1, rng=rng_s, max_iters=1)
            assert rng_k.bit_generator.state == rng_s.bit_generator.state

    def test_hard_case_needs_the_perturbation(self):
        # b has no component on the bottom eigenvector e1, so every Krylov
        # span of b misses it: only the perturbed restart reaches the target
        A = np.diag([-1.0, 1.0, 2.0, 3.0])
        m = CubicModel(b=np.array([0.0, 1e-3, -1e-3, 5e-4]), A=A, penalty=1.0, hess_norm_bound=3.0)
        target = subsolver_target(m, 0.5)
        plain = cubic_krylov(m, target=target)
        assert plain.m_value > target
        assert plain.h[0] == 0.0 and plain.iterations == 3  # the span of b is invariant
        for seed in range(20):
            sol = cubic_krylov(m, target=target, rng=np.random.default_rng(seed))
            assert sol.status == "krylov-perturbed"
            assert sol.m_value <= target
            assert_allclose(sol.m_value, cubic_function(m, sol.h), rtol=1e-12)

    def test_agrees_with_exact_solver(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = random_model(rng, 6)
            sol = cubic_krylov(m, grad_tol=1e-10)
            exact = solve_exact(m)
            assert abs(sol.m_value - exact.m_value) <= 1e-8
            assert np.linalg.norm(sol.h - exact.h) <= 1e-8
            assert np.linalg.norm(cubic_gradient(m, sol.h)) <= 1e-10 * (1 + np.linalg.norm(m.b))

    def test_lanczos_residual_is_the_model_gradient_norm(self):
        # beta_k |y_k| = ||grad m(h)||, and the value read from stored products
        # is the model value at h
        rng = np.random.default_rng(15)
        for _ in range(10):
            m = random_model(rng, 7)
            for steps in range(1, 8):
                h, value, residual, k = _krylov_run(m, m.b, steps, None, None)
                assert k == steps
                assert_allclose(residual, np.linalg.norm(cubic_gradient(m, h)), rtol=1e-8, atol=1e-12)
                assert_allclose(value, cubic_function(m, h), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("k", [5, 10, 20, 40])
    def test_lanczos_residual_on_tridiagonals(self, k):
        # Lanczos from e_1 rebuilds T's leading blocks, so every step count is one
        # secular solve on a tridiagonal whose root may sit next to a pole
        for m in lanczos_tridiagonals(k):
            for steps in range(1, k + 1):
                h, value, residual, _ = _krylov_run(m, m.b, steps, None, None)
                assert_allclose(residual, np.linalg.norm(cubic_gradient(m, h)), rtol=1e-8, atol=1e-12)

    def test_lanczos_keeps_its_rows_when_it_grows(self):
        # 80 steps grow the 16-row basis eight times; every row copied must survive
        rng = np.random.default_rng(16)
        A = rng.standard_normal((90, 90))
        A = A + A.T
        for alpha, beta, Q in _lanczos(lambda v: A @ v, rng.standard_normal(90), 80):
            pass
        assert Q.shape == (80, 90)
        assert_allclose(Q @ Q.T, np.eye(80), atol=1e-12)
        assert_allclose(Q @ A @ Q.T, _tridiagonal(alpha, beta), atol=1e-10)

    def test_tridiagonal_bytes_equal_the_sum_of_its_bands(self):
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.5])
        rng = np.random.default_rng(17)
        for k in (1, 2, 3, 8, 40):
            for alpha, beta in ((rng.standard_normal(k), rng.standard_normal(k)),
                                (rng.choice(special, k), rng.choice(special, k))):
                summed = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
                assert _tridiagonal(alpha, beta).tobytes() == summed.tobytes()

    def test_zero_b_is_stationary_without_products(self):
        m, applies = counted_model(4, 3, bscale=0.0)
        sol = cubic_krylov(m, grad_tol=1e-8)
        assert_allclose(sol.h, np.zeros(3))
        assert (sol.m_value, sol.iterations, len(applies)) == (0.0, 0, 0)

    def test_nonfinite_product_is_divergence(self):
        products = []

        def hvp(v):
            products.append(1)
            return np.full_like(v, np.inf) if len(products) == 2 else np.diag([1.0, 2.0, 3.0]) @ v

        m = CubicModel(b=np.ones(3), A=hvp, penalty=1.0, hess_norm_bound=3.0)
        with pytest.raises(SolverDivergenceError,
                           match=r"^cubic krylov diverged in the Lanczos run from b: product 2 is not finite$"):
            cubic_krylov(m, grad_tol=1e-8)

    def test_parameter_validation(self):
        m = random_model(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="grad_tol or a target"):
            cubic_krylov(m)
        with pytest.raises(ValueError, match="grad_tol must be positive"):
            cubic_krylov(m, grad_tol=0.0)


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
            krylov = cubic_krylov(m, target=subsolver_target(m, 0.3), rng=np.random.default_rng(0))
            assert krylov.m_value <= 1e-12

    def test_exact_dominates_subsolver(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            m = random_model(rng, 4)
            exact = solve_exact(m).m_value
            sub = cubic_subsolver(m, eta=1 / (16 * max(m.hess_norm_bound, 1e-3)),
                                  zeta=0.3, eps_quality=0.5, fail_prob=0.1,
                                  rng=np.random.default_rng(1)).m_value
            assert exact <= sub + 1e-8
            krylov = cubic_krylov(m, target=subsolver_target(m, 0.3), rng=np.random.default_rng(1))
            assert exact <= krylov.m_value + 1e-8


def counted_model(seed, d, shift=0.0, bscale=1.0):
    """A seeded model whose curvature is a closure that records each product."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((d, d))
    A = 0.5 * (S + S.T) + shift * np.eye(d)
    b = bscale * rng.standard_normal(d)
    applies = []

    def hvp(v):
        applies.append(1)
        return A @ v

    return CubicModel(b=b, A=hvp, penalty=1.0, hess_norm_bound=float(np.linalg.norm(A, 2))), applies


def run_subsolver(model, seed, zeta, max_iters=None):
    return cubic_subsolver(model, eta=1 / (16 * model.hess_norm_bound), zeta=zeta,
                           eps_quality=0.5, fail_prob=0.1, rng=np.random.default_rng(seed),
                           max_iters=max_iters)


def run_finalsolver(model, max_iters=10**6):
    beta, tau = model.hess_norm_bound, model.penalty
    R = beta / (2 * tau) + math.sqrt((beta / (2 * tau)) ** 2 + np.linalg.norm(model.b) / tau)
    return cubic_finalsolver(model, eta=0.9 / (4 * (beta + tau * R)), grad_tol=1e-6,
                             max_iters=max_iters)


def subsolver_target(model, zeta):
    return -0.5 * model.penalty * zeta**3 / 12.0


def run_krylov(model, seed, zeta, max_iters=None):
    """cubic_krylov to the subsolver's target, perturbing from a seeded generator."""
    return cubic_krylov(model, target=subsolver_target(model, zeta), max_iters=max_iters,
                        rng=np.random.default_rng(seed))


# One seeded model per way a matvec solver can end: (model seed, d, shift,
# bscale), the solver call, and its status (or error), iterations and number of
# products A·v.  The subsolver's count includes the Cauchy point's two products
# and the final value's one; the finalsolver's its Cauchy product and its final
# value's one.  cubic_krylov takes one product per Lanczos step and none for
# its value; a perturbed solve counts the Cauchy step before it.
SOLVER_EXITS = {
    "cauchy-early-exit": ((0, 4, 0.0, 1.0), lambda m: run_subsolver(m, 0, zeta=0.1),
                          ("subsolver-early-exit", 0, 2)),
    "value-target": ((1, 4, 0.0, 1e-3), lambda m: run_subsolver(m, 1, zeta=1.0),
                     ("subsolver-iterated", 120, 124)),
    # convex model whose minimum lies above the target: descent stalls first
    "stationary": ((2, 4, 4.0, 1.0), lambda m: run_subsolver(m, 2, zeta=3.0, max_iters=20000),
                   ("subsolver-iterated", 921, 925)),
    "subsolver-cap": ((2, 4, 4.0, 1.0), lambda m: run_subsolver(m, 2, zeta=3.0, max_iters=5),
                      ("subsolver-iterated", 5, 8)),
    "finalsolver-converged": ((3, 4, 0.0, 1.0), run_finalsolver, ("finalsolver", 908, 911)),
    "finalsolver-budget": ((3, 4, 0.0, 1.0), lambda m: run_finalsolver(m, max_iters=4),
                           (BudgetExceededError, None, 6)),
    # the same models through the Lanczos solver
    "krylov-cauchy-exit": ((0, 4, 0.0, 1.0), lambda m: run_krylov(m, 0, zeta=0.1), ("krylov", 1, 1)),
    "krylov-perturbed-target": ((1, 4, 0.0, 1e-3), lambda m: run_krylov(m, 1, zeta=1.0),
                                ("krylov-perturbed", 4, 4)),
    # convex model whose minimum lies above the target: the perturbed run spans R^4
    "krylov-perturbed-missed": ((2, 4, 4.0, 1.0), lambda m: run_krylov(m, 2, zeta=3.0),
                                ("krylov-perturbed", 5, 5)),
    "krylov-perturbed-cap": ((1, 4, 0.0, 1e-3), lambda m: run_krylov(m, 1, zeta=1.0, max_iters=1),
                             ("krylov-perturbed", 2, 2)),
    "krylov-grad-tol": ((3, 4, 0.0, 1.0), lambda m: cubic_krylov(m, grad_tol=1e-6), ("krylov", 4, 4)),
    "krylov-cap": ((3, 4, 0.0, 1.0), lambda m: cubic_krylov(m, grad_tol=1e-6, max_iters=2),
                   (BudgetExceededError, None, 2)),
}


@pytest.mark.parametrize("name", sorted(SOLVER_EXITS))
def test_solver_exit_pinned(name):
    spec, solve, (status, iterations, products) = SOLVER_EXITS[name]
    model, applies = counted_model(*spec)
    if isinstance(status, type):
        with pytest.raises(status):
            solve(model)
    else:
        sol = solve(model)
        assert (sol.status, sol.iterations) == (status, iterations)
    assert len(applies) == products


def unit_model(**fields):
    return CubicModel(**{"b": np.ones(2), "A": np.eye(2), "penalty": 1.0, "hess_norm_bound": 1.0,
                         **fields})


def subsolve(**settings):
    settings = {"eta": 0.01, "zeta": 0.5, "eps_quality": 0.5, "fail_prob": 0.1, **settings}
    return cubic_subsolver(unit_model(), rng=np.random.default_rng(0), **settings)


# name -> (a call that must be refused, its message); an infinite penalty once
# failed in solve_exact as a ZeroDivisionError, and every infinite constant,
# tolerance and step size here was accepted
ARGUMENT_FAULTS = {
    "penalty-infinite": (lambda: unit_model(penalty=math.inf),
                         "penalty must be positive and finite, got inf"),
    "penalty-zero": (lambda: unit_model(penalty=0.0), "penalty must be positive and finite, got 0.0"),
    "bound-infinite": (lambda: unit_model(hess_norm_bound=math.inf),
                       "hess_norm_bound must be nonnegative and finite, got inf"),
    "bound-nan": (lambda: unit_model(hess_norm_bound=math.nan),
                  "hess_norm_bound must be nonnegative and finite, got nan"),
    "bound-negative": (lambda: unit_model(hess_norm_bound=-1.0),
                       "hess_norm_bound must be nonnegative and finite, got -1.0"),
    "b-matrix": (lambda: unit_model(b=np.ones((2, 1))), "linear term b must be a vector"),
    "A-shape": (lambda: unit_model(A=np.eye(3)), "A has shape (3, 3), expected square of dim 2"),
    "krylov-grad-tol-infinite": (lambda: cubic_krylov(unit_model(), grad_tol=math.inf),
                                 "grad_tol must be positive and finite, got inf"),
    "finalsolver-grad-tol-infinite": (
        lambda: cubic_finalsolver(unit_model(), eta=0.01, grad_tol=math.inf),
        "grad_tol must be positive and finite, got inf"),
    "subsolver-eta-infinite": (lambda: subsolve(eta=math.inf), "eta must be positive and finite, got inf"),
    "subsolver-zeta-infinite": (lambda: subsolve(zeta=math.inf),
                                "zeta must be positive and finite, got inf"),
    "subsolver-fail-prob-one": (lambda: subsolve(fail_prob=1.0), "fail_prob must lie in (0, 1), got 1.0"),
    "subsolver-quality-zero": (lambda: subsolve(eps_quality=0.0),
                               "eps_quality must lie in (0, 1), got 0.0"),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_FAULTS))
def test_bad_arguments_name_the_value(name):
    build, message = ARGUMENT_FAULTS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
