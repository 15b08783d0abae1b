import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.estimators import (
    EstimatorState,
    PracticalBatchRule,
    batch_schedule,
    default_epochs,
    update_gradient_estimator,
    update_hessian_estimator,
)
from vrcubic.finite_sum import (
    OracleCounter,
    batch_gradient,
    batch_hessian,
    from_components,
    full_index,
)
from vrcubic.objectives import make_synthetic


def schedule(n=10**6, dim=10, eps=0.1, xi=0.1, T=100, L=1.0, rho=1.0, M=1.0, variant="srvrc",
             rule=None):
    """batch_schedule on a problem with only the constants it reads set (its oracles unused)."""
    problem = from_components(n=n, dim=dim, value=lambda i, x: 0.0, grad=lambda i, x: x,
                              lipschitz_grad=L, lipschitz_hess=rho, grad_bound=M)
    return batch_schedule(problem, rule, eps, rho, xi, T, variant)


def sizes(**constants):
    return schedule(**constants)[2]


class TestGradientBatchFormula:
    def test_zero_displacement_clamps_to_one(self):
        assert sizes()(1, 0.0)[0] == 1

    def test_unbounded_gradient_forces_full_batch_at_reset(self):
        assert sizes(M=math.inf, n=500)(0, None)[0] == 500

    @pytest.mark.parametrize("constants, t", [
        ({"M": 1e200}, 0),  # M**2 overflowed: OverflowError
        ({"eps": 1e-170}, 0),  # eps**2 underflowed to 0: ZeroDivisionError
        ({"eps": 1e-170, "L": 1e-90}, 1),  # the same in a correction (S_g > 1)
    ], ids=["M-square-overflows", "eps-square-underflows", "correction"])
    def test_sizes_past_float_range_clamp_to_n(self, constants, t):
        S_g, _, at = schedule(n=500, **constants)
        assert t < S_g
        assert at(t, 1.0) == (500, 500)

    def test_reset_formula_value(self):
        # direct evaluation: 1440 * M^2 * log(2T/xi)^2 / eps^2
        # = 1440 * log(2000)^2 / 0.01 = 8_319_415.47... -> ceil then cap at n
        raw = 1440.0 * math.log(2000.0) ** 2 / 0.01
        assert sizes(n=10**9)(0, None)[0] == math.ceil(raw)
        assert sizes(n=10**6)(0, None)[0] == 10**6

    def test_nonreset_formula_value(self):
        # 1440 * L^2 * S_g * h^2 * log(2T/xi)^2 / eps^2 at h=0.05, S_g=3; rho enters
        # only through S_g = ceil(sqrt(rho*eps)/L * sqrt(M^2/eps^2)) = ceil(sqrt(5)) = 3
        S_g, _, at = schedule(rho=0.5)
        assert S_g == 3
        raw = 1440.0 * 1.0 * 3 * 0.05**2 * math.log(2000.0) ** 2 / 0.01
        assert at(2, 0.05)[0] == math.ceil(raw)

    def test_monotone_in_displacement_and_T(self):
        at = sizes(n=10**9)
        b1 = at(1, 0.1)[0]
        b2 = at(1, 0.2)[0]
        assert b1 <= b2
        b3 = sizes(n=10**9, T=1000)(1, 0.1)[0]
        assert b1 <= b3

    def test_free_variant_uses_3T_split(self):
        # srvrc_free replaces log(2T/xi) with log(3T/xi)
        raw = 2640.0 * math.log(3 * 100 / 0.1) ** 2 / 0.01
        assert sizes(n=10**9, variant="srvrc_free")(0, None)[0] == math.ceil(raw)


class TestHessianBatchFormula:
    def test_zero_displacement_clamps_to_one(self):
        assert sizes()(1, 0.0)[1] == 1

    def test_reset_formula_value(self):
        # 800 * L^2 * log(2Td/xi)^2 / (rho*eps), eps=0.01:
        # 800 * log(20000)^2 / 0.01 = 7_846_325.1...
        raw = 800.0 * math.log(2 * 100 * 10 / 0.1) ** 2 / 0.01
        assert sizes(n=10**9, eps=0.01)(0, None)[1] == math.ceil(raw)
        assert sizes(n=10**6, eps=0.01)(0, None)[1] == 10**6

    def test_nonreset_formula_value(self):
        # 800 * rho * S_h * h^2 * log(2Td/xi)^2 / eps at S_h=3; L enters only
        # through S_h = ceil(sqrt(L/(rho*eps))) = ceil(sqrt(5)) = 3
        _, S_h, at = schedule(L=0.5)
        assert S_h == 3
        raw = 800.0 * 1.0 * 3 * 0.05**2 * math.log(20000.0) ** 2 / 0.1
        assert at(1, 0.05)[1] == math.ceil(raw)

    def test_free_variant_ignores_reset_clock(self):
        # Hessian-free schedule: 1200 * L^2 * log(3Td/xi)^2 / (rho*eps) at
        # every step, displacement ignored
        at = sizes(n=10**9, variant="srvrc_free")
        raw = 1200.0 * math.log(3 * 100 * 10 / 0.1) ** 2 / (1.0 * 0.1)
        expect = math.ceil(raw)
        assert at(0, None)[1] == expect
        assert at(5, 0.0)[1] == expect
        assert at(5, 123.0)[1] == expect


class TestEpochDefaults:
    def test_perfect_square(self):
        # n and L/(rho*eps) both >= 16 makes S_h = sqrt(16) = 4
        _, S_h = default_epochs(16, 0.25, 4.0, 1.0, 1.0)
        assert S_h == 4

    def test_unbounded_M_uses_n(self):
        n, eps, L, rho = 400, 0.01, 2.0, 1.0
        S_g, _ = default_epochs(n, eps, L, rho, math.inf)
        assert S_g == math.ceil(math.sqrt(rho * eps) / L * math.sqrt(n))

    def test_Sh_clamps_to_one(self):
        _, S_h = default_epochs(10**6, 4.0, 1.0, 1.0, 1.0)
        assert S_h == 1

    def test_bounded_M_term(self):
        n, eps, L, rho, M = 10**9, 0.1, 1.0, 1.0, 2.0
        S_g, _ = default_epochs(n, eps, L, rho, M)
        assert S_g == math.ceil(math.sqrt(rho * eps) / L * math.sqrt(min(n, M**2 / eps**2)))

    def test_theoretical_schedule_uses_them(self):
        S_g, S_h, _ = schedule(n=10**9, M=2.0)
        assert (S_g, S_h) == default_epochs(10**9, 0.1, 1.0, 1.0, 2.0)


class TestPracticalBatch:
    def test_reset_returns_base_sizes(self):
        S_g, S_h, at = schedule(rule=PracticalBatchRule(B_g=1000, B_h=300, S=10))
        assert (S_g, S_h) == (10, 10)
        assert at(0, None) == (1000, 300)
        assert at(10, 0.5) == (1000, 300)

    def test_nonreset_divides_by_S(self):
        assert sizes(rule=PracticalBatchRule(B_g=1000, B_h=300, S=10))(3, 0.5) == (100, 30)

    def test_small_base_clamps_to_one(self):
        assert sizes(rule=PracticalBatchRule(B_g=5, B_h=5, S=10))(3, 0.5) == (1, 1)

    def test_free_variant_keeps_hessian_size(self):
        # the Hessian-vector sample of the free driver is B_h at every step
        at = sizes(rule=PracticalBatchRule(B_g=1000, B_h=300, S=10), variant="srvrc_free")
        assert at(0, None) == (1000, 300)
        assert at(3, 0.5) == (100, 300)

    def test_sizes_ignore_problem_and_displacement(self):
        rule = PracticalBatchRule(B_g=60, B_h=30, S=3)
        for constants in ({}, {"n": 10, "L": 50.0, "M": math.inf}):
            at = sizes(rule=rule, **constants)
            assert [at(t, h) for t, h in ((0, None), (1, 0.0), (2, 9.0), (3, 1e-9))] == [
                (60, 30), (20, 10), (20, 10), (60, 30)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PracticalBatchRule(B_g=0, B_h=1, S=1)

    def test_sizes_must_be_integers(self):
        # a float or bool size used to construct, then fail inside numpy's sampler
        for fields in ((60.0, 30, 3), (True, 30, 3), (60, 30.0, 3), (60, 30, np.float64(3))):
            with pytest.raises(TypeError, match="must be an integer"):
                PracticalBatchRule(*fields)
        assert PracticalBatchRule(np.int64(60), np.int32(30), 3).B_g == 60


class TestGradientEstimator:
    def setup_method(self):
        self.p = make_synthetic(seed=7, n=40, d=5)
        self.full_grad = lambda x: batch_gradient(
            self.p, x, full_index(self.p), OracleCounter()
        )

    def test_reset_ignores_history(self):
        state = EstimatorState(S_g=5, S_h=5, t=0)
        rng = np.random.default_rng(0)
        c = OracleCounter()
        x = np.ones(5)
        poisoned = np.full(5, np.nan)
        v = update_gradient_estimator(state, self.p, x, poisoned, 40, rng, c)
        assert np.all(np.isfinite(v))
        assert_allclose(v, self.full_grad(x), rtol=1e-12)
        assert c.grad_calls == 40

    def test_reset_accepts_missing_prev(self):
        state = EstimatorState(S_g=5, S_h=5, t=5)
        v = update_gradient_estimator(
            state, self.p, np.ones(5), None, 40, np.random.default_rng(0), OracleCounter()
        )
        assert np.all(np.isfinite(v))

    def test_nonreset_without_history_rejected(self):
        state = EstimatorState(S_g=5, S_h=5, t=2)
        with pytest.raises(ValueError, match="no previous estimate"):
            update_gradient_estimator(
                state, self.p, np.ones(5), np.zeros(5), 10,
                np.random.default_rng(0), OracleCounter(),
            )

    def test_nonreset_charges_twice_the_batch(self):
        state = EstimatorState(S_g=5, S_h=5, t=0)
        rng = np.random.default_rng(1)
        c = OracleCounter()
        x0, x1 = np.zeros(5), 0.1 * np.ones(5)
        update_gradient_estimator(state, self.p, x0, None, 40, rng, c)
        state.t = 1
        update_gradient_estimator(state, self.p, x1, x0, 8, rng, c)
        assert c.grad_calls == 40 + 2 * 8

    def test_same_point_keeps_estimate(self):
        state = EstimatorState(S_g=5, S_h=5, t=0)
        rng = np.random.default_rng(2)
        c = OracleCounter()
        x = 0.3 * np.ones(5)
        v0 = update_gradient_estimator(state, self.p, x, None, 40, rng, c)
        state.t = 1
        v1 = update_gradient_estimator(state, self.p, x, x, 6, rng, c)
        assert_allclose(v1, v0, rtol=1e-14)
        assert v1.tobytes() == v0.tobytes()
        assert c.grad_calls == 40  # the correction asked nothing

    @pytest.mark.parametrize("first_batch, charged", [(40, 0), (8, 40)],
                             ids=["after-full-batch", "after-subsample"])
    def test_full_reset_at_unmoved_point(self, first_batch, charged):
        # a full-batch reset at x_{t-1} reuses v_{t-1} if that was formed from the full batch
        state = EstimatorState(S_g=1, S_h=1, t=0)
        rng = np.random.default_rng(3)
        c = OracleCounter()
        x = 0.3 * np.ones(5)
        v0 = update_gradient_estimator(state, self.p, x, None, first_batch, rng, c)
        state.t = 1
        v1 = update_gradient_estimator(state, self.p, x.copy(), x, 40, rng, c)
        assert c.grad_calls == first_batch + charged
        assert v1.tobytes() == self.full_grad(x).tobytes()
        if not charged:
            assert v1 is v0

    def test_full_batches_track_exact_gradient(self):
        state = EstimatorState(S_g=4, S_h=4, t=0)
        rng = np.random.default_rng(3)
        c = OracleCounter()
        x_prev = None
        x = np.zeros(5)
        for t in range(10):
            state.t = t
            v = update_gradient_estimator(state, self.p, x, x_prev, 40, rng, c)
            g = self.full_grad(x)
            assert np.linalg.norm(v - g) <= 1e-10 * (1 + np.linalg.norm(g))
            x_prev = x
            x = x + 0.05 * np.sin(np.arange(5) + t)
        assert c.grad_calls == 10 * 40  # a full-batch correction is billed as a reset

    def test_constant_gradients_freeze_estimate(self):
        # linear components: gradient differences vanish, so any batch works
        n, d = 12, 3
        G = np.random.default_rng(4).standard_normal((n, d))
        p = from_components(
            n=n,
            dim=d,
            value=lambda i, x: float(G[i] @ x),
            grad=lambda i, x: G[i],
            lipschitz_grad=1.0,
            lipschitz_hess=1.0,
        )
        state = EstimatorState(S_g=100, S_h=100, t=0)
        rng = np.random.default_rng(5)
        c = OracleCounter()
        v0 = update_gradient_estimator(state, p, np.zeros(d), None, n, rng, c)
        x_prev = np.zeros(d)
        for t in range(1, 6):
            state.t = t
            x = rng.standard_normal(d)
            v = update_gradient_estimator(state, p, x, x_prev, 3, rng, c)
            assert_allclose(v, v0, rtol=1e-12)
            x_prev = x

    def test_unbiased_single_step(self):
        """z-test over 20000 replications of one non-reset update."""
        p = make_synthetic(seed=9, n=30, d=3)
        x_prev = np.array([0.4, -0.2, 0.1])
        x_t = np.array([0.1, 0.3, -0.5])
        counter = OracleCounter()
        full = full_index(p)
        g_prev = batch_gradient(p, x_prev, full, counter)
        g_t = batch_gradient(p, x_t, full, counter)
        reps, B = 20000, 5
        rng = np.random.default_rng(123)
        diffs = np.empty((reps, 3))
        state = EstimatorState(S_g=10, S_h=10)
        for r in range(reps):
            state.t = 1
            state.v = g_prev.copy()
            v = update_gradient_estimator(state, p, x_t, x_prev, B, rng, counter)
            diffs[r] = v - g_t
        mean = diffs.mean(axis=0)
        sem = diffs.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean) <= 3 * sem + 1e-12)


class TestHessianEstimator:
    def setup_method(self):
        self.p = make_synthetic(seed=11, n=25, d=4)

    def test_full_batches_track_exact_hessian(self):
        state = EstimatorState(S_g=3, S_h=3, t=0)
        rng = np.random.default_rng(0)
        c = OracleCounter()
        x_prev = None
        x = np.zeros(4)
        for t in range(7):
            state.t = t
            U = update_hessian_estimator(state, self.p, x, x_prev, 25, rng, c)
            H = batch_hessian(self.p, x, full_index(self.p), OracleCounter())
            assert np.linalg.norm(U - H, 2) <= 1e-10 * (1 + np.linalg.norm(H, 2))
            x_prev = x
            x = x + 0.1 * np.cos(np.arange(4) * (t + 1))
        assert c.hess_calls == 7 * 25  # a full-batch correction is billed as a reset

    def test_output_symmetric(self):
        state = EstimatorState(S_g=3, S_h=3, t=0)
        rng = np.random.default_rng(1)
        c = OracleCounter()
        U = update_hessian_estimator(state, self.p, np.ones(4), None, 10, rng, c)
        assert_allclose(U, U.T, rtol=1e-12)

    def test_quadratic_components_freeze_estimate(self):
        # constant Hessians: differences vanish at every non-reset step
        p = make_synthetic(seed=12, n=15, d=3, difficulty="convex")
        state = EstimatorState(S_g=50, S_h=50, t=0)
        rng = np.random.default_rng(2)
        c = OracleCounter()
        U0 = update_hessian_estimator(state, p, np.zeros(3), None, 15, rng, c)
        x_prev = np.zeros(3)
        for t in range(1, 5):
            state.t = t
            x = rng.standard_normal(3)
            U = update_hessian_estimator(state, p, x, x_prev, 4, rng, c)
            assert_allclose(U, U0, rtol=1e-12)
            x_prev = x

    def test_single_nonreset_step_hand_sum(self):
        # d=2, two components with known constant Hessians A_0, A_1: a
        # non-reset update from U_prev with J={0} gives exactly
        # A_0 - A_0 + U_prev = U_prev; with distinct points and the synthetic
        # regularizer the difference term is the penalty curvature change
        A = [np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.0, 0.0], [0.0, 4.0]])]
        p = from_components(
            n=2,
            dim=2,
            value=lambda i, x: 0.5 * float(x @ A[i] @ x),
            grad=lambda i, x: A[i] @ x,
            hess=lambda i, x: A[i],
            lipschitz_grad=4.0,
            lipschitz_hess=1.0,
        )
        state = EstimatorState(S_g=10, S_h=10, t=1)
        state.U = np.eye(2) * 7.0
        c = OracleCounter()
        U = update_hessian_estimator(
            state, p, np.ones(2), np.zeros(2), 1, np.random.default_rng(0), c
        )
        assert_allclose(U, np.eye(2) * 7.0, rtol=1e-14)
        assert c.hess_calls == 2

    def test_nonreset_without_history_rejected(self):
        state = EstimatorState(S_g=3, S_h=3, t=1)
        with pytest.raises(ValueError, match="no previous estimate"):
            update_hessian_estimator(
                state, self.p, np.ones(4), np.zeros(4), 5,
                np.random.default_rng(0), OracleCounter(),
            )


class TestRuleValidation:
    def test_epochs_must_be_positive(self):
        with pytest.raises(ValueError):
            PracticalBatchRule(B_g=1, B_h=1, S=0)

    def test_xi_in_unit_interval(self):
        with pytest.raises(ValueError, match="xi"):
            schedule(xi=1.5)

    @pytest.mark.parametrize("build, message", [
        # an infinite eps used to pass, then overflow in default_epochs
        (lambda: schedule(eps=math.inf), "eps must be positive and finite, got inf"),
        (lambda: schedule(eps=0.0), "eps must be positive and finite, got 0.0"),
        (lambda: schedule(xi=1.0), "xi must lie in (0, 1), got 1.0"),
        (lambda: schedule(xi=math.nan), "xi must lie in (0, 1), got nan"),
        (lambda: PracticalBatchRule(B_g=0, B_h=1, S=1), "B_g must be at least 1, got 0"),
        (lambda: PracticalBatchRule(B_g=1, B_h=1, S=-2), "S must be at least 1, got -2"),
    ], ids=["eps-infinite", "eps-zero", "xi-one", "xi-nan", "B_g-zero", "S-negative"])
    def test_bad_arguments_name_the_value(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_variant_names_checked(self):
        with pytest.raises(ValueError, match="variant"):
            schedule(variant="something")

    def test_state_reset_flags(self):
        s = EstimatorState(S_g=3, S_h=2, t=6)
        assert s.grad_reset_due and s.hess_reset_due
        s.t = 4
        assert not s.grad_reset_due and s.hess_reset_due
