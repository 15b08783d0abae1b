import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.drivers import (
    AdaptivePenalty,
    FixedPenalty,
    SolverConfig,
    TheoreticalPenalty,
    adaptive_penalty_update,
    budget_from_gap,
    run_cr,
    run_scr,
    run_srvrc,
    run_srvrc_free,
)
from vrcubic.estimators import PracticalBatchRule
from vrcubic.finite_sum import FiniteSumProblem
from vrcubic.objectives import make_synthetic


def bowl_problem(center, n=3):
    """All components equal to 0.5 ||x - center||^2; minimizer is the center."""
    c = np.asarray(center, dtype=float)
    d = c.size
    return FiniteSumProblem(
        n=n,
        dim=d,
        component_value=lambda i, x: 0.5 * float(np.sum((x - c) ** 2)),
        component_grad=lambda i, x: x - c,
        component_hess=lambda i, x: np.eye(d),
        lipschitz_grad=1.0,
        lipschitz_hess=1.0,
        grad_bound=np.inf,
    )


def nan_after_first_step_problem(kind):
    """Bowl around (1, -2) whose gradient or Hessian is NaN away from the origin start."""
    c = np.array([1.0, -2.0])

    def moved(x):
        return bool(np.any(x != 0.0))

    def grad(i, x):
        return np.full(2, np.nan) if kind == "gradient" and moved(x) else x - c

    def hess(i, x):
        return np.full((2, 2), np.nan) if kind == "Hessian" and moved(x) else np.eye(2)

    return FiniteSumProblem(
        n=3,
        dim=2,
        component_value=lambda i, x: 0.5 * float(np.sum((x - c) ** 2)),
        component_grad=grad,
        component_hess=hess,
        lipschitz_grad=1.0,
        lipschitz_hess=1.0,
        grad_bound=np.inf,
    )


def trace_rows(result):
    """Every trace column but the wall clock."""
    return [
        {k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ms"}
        for row in result.trace
    ]


def assert_same_run(a, b):
    assert a.exit == b.exit
    assert np.array_equal(a.x_out, b.x_out)
    assert trace_rows(a) == trace_rows(b)
    assert a.counters == b.counters
    assert a.diag_counters == b.diag_counters


def cosine_problem():
    """Single 1-D component cos(x): maximum at 0, minima at odd multiples of pi."""
    return FiniteSumProblem(
        n=1,
        dim=1,
        component_value=lambda i, x: float(np.cos(x[0])),
        component_grad=lambda i, x: np.array([-np.sin(x[0])]),
        component_hess=lambda i, x: np.array([[-np.cos(x[0])]]),
        lipschitz_grad=1.0,
        lipschitz_hess=1.0,
        grad_bound=np.inf,
    )


class TestAdaptivePenaltyUpdate:
    def test_strong_agreement_halves(self):
        assert adaptive_penalty_update(8.0, 1.0) == (4.0, True)

    def test_middling_agreement_keeps(self):
        assert adaptive_penalty_update(8.0, 0.5) == (8.0, True)

    def test_disagreement_doubles_and_rejects(self):
        assert adaptive_penalty_update(8.0, -1.0) == (16.0, False)

    def test_nan_ratio_rejects(self):
        nxt, ok = adaptive_penalty_update(8.0, float("nan"))
        assert (nxt, ok) == (16.0, False)

    def test_negative_infinity_rejects(self):
        nxt, ok = adaptive_penalty_update(8.0, -math.inf)
        assert (nxt, ok) == (16.0, False)

    def test_floor_clamps_decrease(self):
        policy = AdaptivePenalty(floor=3.0)
        assert adaptive_penalty_update(4.0, 1.0, policy) == (3.0, True)

    def test_cap_clamps_increase(self):
        policy = AdaptivePenalty(cap=10.0)
        assert adaptive_penalty_update(8.0, 0.0, policy) == (10.0, False)

    def test_custom_factors(self):
        policy = AdaptivePenalty(gamma_inc=3.0, gamma_dec=0.25, eta1=0.2, eta2=0.8)
        assert adaptive_penalty_update(4.0, 0.9, policy) == (1.0, True)
        assert adaptive_penalty_update(4.0, 0.5, policy) == (4.0, True)
        assert adaptive_penalty_update(4.0, 0.1, policy) == (12.0, False)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptivePenalty(gamma_inc=1.0)
        with pytest.raises(ValueError):
            AdaptivePenalty(gamma_dec=1.0)
        with pytest.raises(ValueError):
            AdaptivePenalty(eta1=0.5, eta2=0.4)
        with pytest.raises(ValueError):
            AdaptivePenalty(m0=0.0)
        with pytest.raises(ValueError):
            AdaptivePenalty(floor=2.0, cap=1.0)


class TestBudgetFromGap:
    def test_reference_values(self):
        assert budget_from_gap(1.0, 1.0, 1.0) == 40
        assert budget_from_gap(1.0, 1.0, 1.0, algorithm="srvrc_free") == 25

    def test_scaling(self):
        # 40 * 2 * sqrt(4) / 0.25^1.5 = 1280
        assert budget_from_gap(2.0, 0.25, 4.0) == 1280

    def test_zero_gap_still_one_iteration(self):
        assert budget_from_gap(0.0, 1e-3, 1.0) == 1

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            budget_from_gap(-1.0, 1e-3, 1.0)


class TestSolverConfigValidation:
    def test_eps_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)

    def test_budget_nonnegative(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, T=-1)

    def test_xi_open_interval(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, xi=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, xi=0.0)


class TestTermination:
    def test_zero_budget_exhausts_immediately(self):
        problem = bowl_problem([1.0, -2.0])
        config = SolverConfig(eps=1e-3, T=0, x0=np.zeros(2))
        for runner in (run_cr, run_srvrc, run_srvrc_free):
            result = runner(problem, config)
            assert result.exit == "budget-exhausted"
            assert result.iterations == 0
            assert result.trace == []
            assert_allclose(result.x_out, np.zeros(2))
            assert_allclose(result.f_out, 0.5 * 5.0)

    def test_start_at_minimizer_converges_in_one_step(self):
        c = np.array([0.3, -0.7, 1.1])
        problem = bowl_problem(c)
        result = run_cr(problem, SolverConfig(eps=1e-3, T=50, x0=c))
        assert result.exit == "converged"
        assert result.iterations == 1
        assert_allclose(result.x_out, c, atol=1e-10)

    def test_small_penalty_step_reaches_gradient_tolerance(self):
        # on an exact quadratic the cubic step with a tiny penalty is nearly
        # the Newton step, so one accepted terminal step drives the true
        # gradient below eps
        c = np.array([2.0, -1.0, 0.5, 3.0])
        problem = bowl_problem(c)
        eps = 1e-4
        config = SolverConfig(eps=eps, rho=1e-6, T=20, x0=np.zeros(4))
        result = run_cr(problem, config)
        assert result.exit == "converged"
        grad = result.x_out - c
        assert np.linalg.norm(grad) <= eps

    def test_budget_is_respected(self):
        problem = make_synthetic(seed=4, n=30, d=5)
        config = SolverConfig(eps=1e-9, T=6, x0=np.full(5, 0.8))
        result = run_cr(problem, config)
        assert result.iterations <= 6
        assert result.exit in ("converged", "budget-exhausted")

    def test_converged_run_ends_with_short_step(self):
        problem = make_synthetic(seed=0, n=50, d=5)
        eps, rho = 1e-2, problem.lipschitz_hess
        config = SolverConfig(eps=eps, T=100, x0=np.full(5, 1.0))
        result = run_cr(problem, config)
        assert result.exit == "converged"
        assert result.trace[-1].h_norm <= math.sqrt(eps / rho)
        for row in result.trace[:-1]:
            assert row.h_norm > math.sqrt(eps / rho)


class TestEquivalences:
    def test_single_component_recursion_matches_full_batches(self):
        problem = make_synthetic(seed=5, n=1, d=4)
        config = SolverConfig(eps=1e-10, T=5, x0=np.full(4, 0.9))
        ref = run_cr(problem, config)
        vr = run_srvrc(problem, config)
        assert vr.iterations == ref.iterations
        for a, b in zip(vr.trace, ref.trace):
            assert_allclose(a.f, b.f, rtol=1e-10, atol=1e-12)
        assert_allclose(vr.x_out, ref.x_out, rtol=1e-10, atol=1e-10)

    def test_subsampled_driver_with_full_batches_matches_deterministic(self):
        problem = make_synthetic(seed=6, n=25, d=4)
        rule = PracticalBatchRule(B_g=25, B_h=25, S=3)
        config = SolverConfig(eps=1e-8, T=5, x0=np.full(4, 0.7), batch=rule)
        ref = run_cr(problem, SolverConfig(eps=1e-8, T=5, x0=np.full(4, 0.7)))
        sub = run_scr(problem, config)
        assert sub.iterations == ref.iterations
        for a, b in zip(sub.trace, ref.trace):
            assert_allclose(a.f, b.f, rtol=1e-10, atol=1e-12)
        assert_allclose(sub.x_out, ref.x_out, atol=1e-10)

    @pytest.mark.parametrize("penalty", [TheoreticalPenalty(), AdaptivePenalty()])
    def test_scr_is_srvrc_with_unit_epochs(self, penalty):
        problem = make_synthetic(3, 400, 8)
        base = dict(eps=1e-3, T=30, x0=np.full(8, 0.8), penalty=penalty, seed=4)
        scr = run_scr(problem, SolverConfig(batch=PracticalBatchRule(120, 60, 3), **base))
        vr = run_srvrc(problem, SolverConfig(batch=PracticalBatchRule(120, 60, 1), **base))
        assert_same_run(scr, vr)

    @pytest.mark.parametrize("penalty", [TheoreticalPenalty(), AdaptivePenalty()])
    def test_cr_is_srvrc_with_full_batches(self, penalty):
        problem = make_synthetic(3, 400, 8)
        base = dict(eps=1e-3, T=30, x0=np.full(8, 0.8), penalty=penalty)
        cr = run_cr(problem, SolverConfig(**base))
        rule = PracticalBatchRule(problem.n, problem.n, 1)
        assert_same_run(cr, run_srvrc(problem, SolverConfig(batch=rule, **base)))


# (exit, iterations, oracle bill, diagnostic bill) of seeded runs on
# make_synthetic(3, 400, 8); a bill is (grad, hess, hvp, value) calls.
GOLDEN_RUNS = {
    "srvrc-theoretical": (
        run_srvrc, {},
        ("converged", 9, (3600, 6800, 0, 0), (0, 0, 0, 4000)),
    ),
    "srvrc-practical-adaptive": (
        run_srvrc, {"batch": PracticalBatchRule(80, 40, 4), "penalty": AdaptivePenalty()},
        ("converged", 11, (560, 280, 0, 0), (0, 0, 0, 8800)),
    ),
    "cr-adaptive": (
        run_cr, {"penalty": AdaptivePenalty()},
        ("converged", 4, (1600, 1600, 0, 0), (0, 0, 0, 3200)),
    ),
    "scr": (
        run_scr, {"batch": PracticalBatchRule(120, 60, 2)},
        ("budget-exhausted", 40, (4800, 2400, 0, 0), (0, 0, 0, 16400)),
    ),
    "srvrc_free-theoretical": (
        run_srvrc_free, {"subsolver_max_iters": 300},
        ("converged", 9, (3600, 0, 8400, 0), (0, 0, 0, 4000)),
    ),
    "srvrc_free-practical": (
        run_srvrc_free, {"batch": PracticalBatchRule(100, 40, 4), "subsolver_max_iters": 300},
        ("converged", 11, (700, 0, 1000, 0), (0, 0, 0, 4800)),
    ),
    "srvrc_free-fresh-gradient": (
        run_srvrc_free,
        {"batch": PracticalBatchRule(100, 40, 4), "subsolver_max_iters": 300,
         "gradient_recursion": False},
        ("budget-exhausted", 40, (1750, 0, 3200, 0), (0, 0, 0, 16400)),
    ),
}


class TestGoldenRuns:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_exit_iterations_and_bills(self, name):
        runner, options, expected = GOLDEN_RUNS[name]
        problem = make_synthetic(3, 400, 8)
        config = SolverConfig(eps=1e-3, T=40, x0=np.full(8, 0.8), seed=5, **options)
        result = runner(problem, config)
        got = (
            result.exit,
            result.iterations,
            dataclasses.astuple(result.counters),
            dataclasses.astuple(result.diag_counters),
        )
        assert got == expected


class TestAccounting:
    def test_full_batch_charges(self):
        problem = make_synthetic(seed=7, n=20, d=4)
        config = SolverConfig(eps=1e-9, T=4, x0=np.full(4, 0.6))
        result = run_cr(problem, config)
        tstar = result.iterations
        assert result.counters.grad_calls == tstar * problem.n
        assert result.counters.hess_calls == tstar * problem.n
        assert result.counters.hvp_calls == 0
        assert result.counters.value_calls == 0
        # one full objective pass per iteration plus the final report
        assert result.diag_counters.value_calls == (tstar + 1) * problem.n
        assert result.diag_counters.grad_calls == 0

    def test_trace_counters_are_running_totals(self):
        problem = make_synthetic(seed=8, n=30, d=4)
        rule = PracticalBatchRule(B_g=12, B_h=9, S=3)
        config = SolverConfig(eps=1e-9, T=7, x0=np.full(4, 0.6), batch=rule)
        result = run_srvrc(problem, config)
        prev = (0, 0, 0)
        for row in result.trace:
            now = (row.grad_calls, row.hess_calls, row.hvp_calls)
            assert all(a >= b for a, b in zip(now, prev))
            prev = now
        last = result.trace[-1]
        assert last.grad_calls == result.counters.grad_calls
        assert last.hess_calls == result.counters.hess_calls

    def test_recursion_charges_both_endpoints(self):
        problem = make_synthetic(seed=9, n=40, d=3)
        rule = PracticalBatchRule(B_g=12, B_h=6, S=4)
        config = SolverConfig(eps=1e-12, T=3, x0=np.full(3, 0.8), batch=rule)
        result = run_srvrc(problem, config)
        assert result.iterations == 3
        rows = result.trace
        # t=0 resets: one pass over the reset batch
        assert rows[0].grad_calls == rows[0].Bg
        assert rows[0].hess_calls == rows[0].Bh
        # t=1, t=2 recurse: each component is evaluated at both endpoints
        for i in (1, 2):
            assert rows[i].grad_calls - rows[i - 1].grad_calls == 2 * rows[i].Bg
            assert rows[i].hess_calls - rows[i - 1].hess_calls == 2 * rows[i].Bh

    def test_batch_columns_clamped_to_n(self):
        problem = make_synthetic(seed=10, n=15, d=3)
        rule = PracticalBatchRule(B_g=1000, B_h=1000, S=2)
        config = SolverConfig(eps=1e-12, T=2, x0=np.full(3, 0.5), batch=rule)
        result = run_srvrc(problem, config)
        for row in result.trace:
            assert row.Bg == 15
            assert row.Bh == 15

    def test_matvec_driver_never_builds_matrices(self):
        problem = make_synthetic(seed=11, n=30, d=4)
        rule = PracticalBatchRule(B_g=15, B_h=10, S=3)
        config = SolverConfig(eps=1e-2, T=30, x0=np.full(4, 0.9), batch=rule)
        result = run_srvrc_free(problem, config)
        assert result.counters.hess_calls == 0
        assert result.counters.hvp_calls > 0


class TestDescent:
    def test_full_batch_run_decreases_objective_every_step(self):
        problem = make_synthetic(seed=1, n=40, d=6)
        config = SolverConfig(eps=1e-3, T=25, x0=np.full(6, 1.0))
        result = run_cr(problem, config)
        fs = [row.f for row in result.trace] + [result.f_out]
        for a, b in zip(fs, fs[1:]):
            assert b < a + 1e-12

    def test_model_value_column_is_nonpositive(self):
        problem = make_synthetic(seed=2, n=30, d=5)
        config = SolverConfig(eps=1e-3, T=15, x0=np.full(5, 1.0))
        for runner in (run_cr, run_srvrc):
            result = runner(problem, config)
            for row in result.trace:
                assert row.m_value <= 1e-12


class TestAdaptiveDriver:
    def test_rejections_keep_iterate_and_inflate_penalty(self):
        problem = cosine_problem()
        snaps = []
        config = SolverConfig(
            eps=1e-4,
            T=100,
            x0=np.array([0.1]),
            penalty=AdaptivePenalty(m0=1e-8),
        )
        result = run_cr(problem, config, callback=snaps.append)
        assert result.exit == "converged"
        rejected = [s.t for s in snaps if not s.accepted]
        assert rejected, "the tiny starting penalty must force at least one rejection"
        for s, nxt in zip(snaps, snaps[1:]):
            if not s.accepted:
                assert_allclose(nxt.x, s.x)
                assert nxt.penalty == pytest.approx(2.0 * s.penalty)
        # ends at a true local minimum of cos
        assert_allclose(np.cos(result.x_out[0]), -1.0, atol=1e-4)

    def test_trace_penalty_column_reflects_inflation(self):
        problem = cosine_problem()
        config = SolverConfig(
            eps=1e-4, T=100, x0=np.array([0.1]), penalty=AdaptivePenalty(m0=1e-8)
        )
        result = run_cr(problem, config)
        ms = [row.Mt for row in result.trace]
        assert ms[0] == 1e-8
        assert max(ms) > ms[0]

    def test_fixed_penalty_column_is_constant(self):
        problem = make_synthetic(seed=3, n=20, d=3)
        config = SolverConfig(eps=1e-3, T=5, x0=np.full(3, 0.5), penalty=FixedPenalty(7.0))
        result = run_cr(problem, config)
        assert all(row.Mt == 7.0 for row in result.trace)

    def test_theoretical_penalty_uses_rho_multiple(self):
        problem = make_synthetic(seed=3, n=20, d=3)
        config = SolverConfig(
            eps=1e-3, rho=2.0, T=3, x0=np.full(3, 0.5), penalty=TheoreticalPenalty(4.0)
        )
        result = run_cr(problem, config)
        assert all(row.Mt == 8.0 for row in result.trace)


class TestMatvecDriver:
    def test_failed_decrease_test_at_start_polishes_and_stops(self):
        c = np.array([0.5, -0.5])
        problem = bowl_problem(c)
        config = SolverConfig(eps=1e-4, T=50, x0=c)
        result = run_srvrc_free(problem, config)
        assert result.exit == "converged"
        assert result.iterations == 1
        # the polishing step leaves the model gradient below eps; on this
        # quadratic that pins the iterate to the center
        assert np.linalg.norm(result.x_out - c) <= 1e-2

    def test_converges_on_synthetic(self):
        problem = make_synthetic(seed=0, n=60, d=5)
        config = SolverConfig(eps=1e-2, T=60, x0=np.full(5, 1.0))
        result = run_srvrc_free(problem, config)
        assert result.exit == "converged"
        grad = np.mean(
            [problem.component_grad(i, result.x_out) for i in range(problem.n)], axis=0
        )
        assert np.linalg.norm(grad) <= 10 * config.eps

    def test_fresh_gradient_mode_runs(self):
        problem = make_synthetic(seed=0, n=60, d=5)
        rule = PracticalBatchRule(B_g=30, B_h=20, S=4)
        config = SolverConfig(
            eps=1e-2, T=60, x0=np.full(5, 1.0), batch=rule, gradient_recursion=False
        )
        result = run_srvrc_free(problem, config)
        assert result.exit in ("converged", "budget-exhausted")
        assert result.counters.hvp_calls > 0

    def test_hessian_sample_size_is_step_independent(self):
        problem = make_synthetic(seed=1, n=80, d=4)
        rule = PracticalBatchRule(B_g=40, B_h=16, S=4)
        config = SolverConfig(eps=1e-3, T=10, x0=np.full(4, 1.0), batch=rule)
        result = run_srvrc_free(problem, config)
        assert all(row.Bh == 16 for row in result.trace)


class TestDeterminism:
    @pytest.mark.parametrize("runner", [run_srvrc, run_srvrc_free])
    def test_same_seed_same_run(self, runner):
        problem = make_synthetic(seed=12, n=50, d=4)
        rule = PracticalBatchRule(B_g=20, B_h=10, S=3)

        def go():
            config = SolverConfig(eps=1e-3, T=20, x0=np.full(4, 0.9), batch=rule, seed=42)
            return runner(problem, config)

        a, b = go(), go()
        assert a.iterations == b.iterations
        assert np.array_equal(a.x_out, b.x_out)
        for ra, rb in zip(a.trace, b.trace):
            assert (ra.f, ra.h_norm, ra.Bg, ra.Bh) == (rb.f, rb.h_norm, rb.Bg, rb.Bh)

    def test_different_seeds_usually_differ(self):
        problem = make_synthetic(seed=12, n=50, d=4)
        rule = PracticalBatchRule(B_g=10, B_h=5, S=3)
        runs = []
        for seed in (0, 1):
            config = SolverConfig(eps=1e-6, T=4, x0=np.full(4, 0.9), batch=rule, seed=seed)
            runs.append(run_srvrc(problem, config))
        assert not np.array_equal(runs[0].x_out, runs[1].x_out)


class TestValidation:
    def test_subsampled_driver_needs_fixed_sizes(self):
        problem = make_synthetic(seed=0, n=20, d=3)
        config = SolverConfig(eps=1e-3, T=5)
        with pytest.raises(ValueError, match="practical batch rule"):
            run_scr(problem, config)

    def test_x0_shape_checked(self):
        problem = make_synthetic(seed=0, n=20, d=3)
        config = SolverConfig(eps=1e-3, T=5, x0=np.zeros(4))
        with pytest.raises(ValueError, match="x0"):
            run_cr(problem, config)

    def test_nonfinite_objective_raises(self):
        problem = FiniteSumProblem(
            n=2,
            dim=2,
            component_value=lambda i, x: float("inf"),
            component_grad=lambda i, x: np.zeros(2),
            component_hess=lambda i, x: np.eye(2),
            lipschitz_grad=1.0,
            lipschitz_hess=1.0,
        )
        config = SolverConfig(eps=1e-3, T=5)
        with pytest.raises(FloatingPointError, match="not finite"):
            run_cr(problem, config)

    @pytest.mark.parametrize(
        "runner,kind",
        [
            (run_srvrc, "gradient"),
            (run_srvrc, "Hessian"),
            (run_srvrc_free, "gradient"),
            (run_cr, "gradient"),
            (run_cr, "Hessian"),
            (run_scr, "gradient"),
            (run_scr, "Hessian"),
        ],
    )
    def test_nonfinite_estimate_names_its_iteration(self, runner, kind):
        problem = nan_after_first_step_problem(kind)
        config = SolverConfig(eps=1e-3, T=5, batch=PracticalBatchRule(3, 3, 2))
        with pytest.raises(FloatingPointError, match=f"{kind} estimate is not finite at iteration 1"):
            runner(problem, config)


class TestCallbacks:
    def test_snapshots_expose_consistent_state(self):
        problem = make_synthetic(seed=13, n=30, d=4)
        rule = PracticalBatchRule(B_g=15, B_h=10, S=3)
        config = SolverConfig(eps=1e-6, T=6, x0=np.full(4, 0.8), batch=rule)
        snaps = []
        result = run_srvrc(problem, config, callback=snaps.append)
        assert len(snaps) == result.iterations
        for s, row in zip(snaps, result.trace):
            assert s.t == row.t
            assert s.v.shape == (4,)
            assert s.U.shape == (4, 4)
            assert s.penalty == row.Mt
            assert s.m_value == row.m_value
            assert_allclose(np.linalg.norm(s.h), row.h_norm)

    def test_matvec_driver_snapshot_has_no_matrix(self):
        problem = make_synthetic(seed=13, n=30, d=4)
        config = SolverConfig(eps=1e-2, T=20, x0=np.full(4, 0.8))
        snaps = []
        run_srvrc_free(problem, config, callback=snaps.append)
        assert snaps
        assert all(s.U is None for s in snaps)
