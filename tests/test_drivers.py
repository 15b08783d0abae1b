import csv
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic.cli import write_trace_csv
from vrcubic.cubic import SolverDivergenceError, solve_exact
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
from vrcubic.estimators import PracticalBatchRule, batch_schedule
from vrcubic.finite_sum import from_components
from vrcubic.objectives import binary_logreg_from_arrays, make_synthetic


def bowl_problem(center, n=3):
    """All components equal to 0.5 ||x - center||^2; minimizer is the center."""
    c = np.asarray(center, dtype=float)
    d = c.size
    return from_components(
        n=n,
        dim=d,
        value=lambda i, x: 0.5 * float(np.sum((x - c) ** 2)),
        grad=lambda i, x: x - c,
        hess=lambda i, x: np.eye(d),
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

    return from_components(
        n=3,
        dim=2,
        value=lambda i, x: 0.5 * float(np.sum((x - c) ** 2)),
        grad=grad,
        hess=hess,
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
    return from_components(
        n=1,
        dim=1,
        value=lambda i, x: float(np.cos(x[0])),
        grad=lambda i, x: np.array([-np.sin(x[0])]),
        hess=lambda i, x: np.array([[-np.cos(x[0])]]),
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
        assert adaptive_penalty_update(3e-8, 1.0) == (1.5e-8, True)
        assert adaptive_penalty_update(1.5e-8, 1.0) == (1e-8, True)
        assert adaptive_penalty_update(1e-8, 0.95) == (1e-8, True)

    def test_cap_clamps_increase(self):
        assert adaptive_penalty_update(4e11, 0.0) == (8e11, False)
        assert adaptive_penalty_update(8e11, 0.0) == (1e12, False)
        assert adaptive_penalty_update(1e12, math.nan) == (1e12, False)
        # an initial penalty above the cap is clamped on its first change
        assert adaptive_penalty_update(1e15, 1.0) == (1e12, True)

    @pytest.mark.parametrize("ratio, expected", [
        (0.9, (2.0, True)), (1.0, (2.0, True)), (50.0, (2.0, True)),
        (0.1, (4.0, True)), (0.5, (4.0, True)), (0.8999, (4.0, True)),
        (0.0999, (8.0, False)), (0.0, (8.0, False)), (-3.0, (8.0, False)),
        (math.nan, (8.0, False)), (math.inf, (8.0, False)),
    ])
    def test_default_thresholds_and_factors(self, ratio, expected):
        # ARC's constants: eta1 = 0.1, eta2 = 0.9, x0.5 on a good model, x2 on a rejection
        assert adaptive_penalty_update(4.0, ratio) == expected

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptivePenalty(m0=0.0)
        for removed in ("gamma_inc", "gamma_dec", "eta1", "eta2", "floor", "cap"):
            with pytest.raises(TypeError):
                AdaptivePenalty(**{removed: 1.0})
        with pytest.raises(TypeError):
            TheoreticalPenalty(4.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="fixed penalty must be positive and finite"):
                FixedPenalty(bad)
            with pytest.raises(ValueError, match="initial penalty must be positive and finite"):
                AdaptivePenalty(m0=bad)
        # a bare number is no penalty policy: it used to fail in the driver
        # as "'float' object has no attribute 'm0'"
        for bad in (5.0, None, "adaptive"):
            with pytest.raises(TypeError, match="^penalty must be a FixedPenalty"):
                SolverConfig(eps=1e-3, penalty=bad)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("name, policy", [("fixed penalty", FixedPenalty),
                                              ("initial penalty", AdaptivePenalty)])
    def test_penalty_messages_name_the_value(self, name, policy, bad):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad!r}$"):
            policy(bad)


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

    @pytest.mark.parametrize("name, args", [
        ("eps", (1.0, 0.0, 1.0)), ("eps", (1.0, -1e-3, 1.0)), ("eps", (1.0, math.inf, 1.0)),
        ("eps", (1.0, math.nan, 1.0)), ("rho", (1.0, 1e-3, 0.0)), ("rho", (1.0, 1e-3, -1.0)),
        ("rho", (1.0, 1e-3, math.inf)), ("rho", (1.0, 1e-3, math.nan)),
        ("objective gap", (math.inf, 1e-3, 1.0)), ("objective gap", (math.nan, 1e-3, 1.0)),
    ])
    def test_bad_inputs_name_the_argument(self, name, args):
        # each once failed as ZeroDivisionError, "math domain error", OverflowError or a NaN cast
        with pytest.raises(ValueError, match=f"^{name} must be"):
            budget_from_gap(*args)

    def test_unknown_algorithm_rejected(self):
        # a misspelt name would silently take the coefficient of the other drivers
        with pytest.raises(ValueError, match="unknown algorithm 'srvrc-free'"):
            budget_from_gap(1.0, 1e-2, 1.0, algorithm="srvrc-free")
        assert budget_from_gap(1.0, 1e-2, 1.0, algorithm="srvrc_free") == 25000


class TestSolverConfigValidation:
    def test_eps_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        for eps_g in (0.0, -1e-8):
            with pytest.raises(ValueError, match="finalsolver_eps_g must be positive"):
                SolverConfig(eps=1e-3, finalsolver_eps_g=eps_g)
        # refused when built, not as an overflow in the batch rule or a skipped polish
        for name in ("eps", "rho", "finalsolver_eps_g"):
            for bad in (math.inf, math.nan):
                settings = {"eps": 1e-3, name: bad}
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                    SolverConfig(**settings)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("name", ["eps", "rho", "finalsolver_eps_g"])
    def test_messages_name_the_value(self, name, bad):
        settings = {"eps": 1e-3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad!r}$"):
            SolverConfig(**settings)

    def test_budget_nonnegative(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, T=-1)
        # integers, not floats or bools, as load_config requires: a float cap
        # failed only once the subsolver iterated, and True was taken as 1
        for name in ("T", "seed", "subsolver_max_iters"):
            for bad in (2.5, 2.0, True, False):
                with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad!r}$"):
                    SolverConfig(eps=1e-3, **{name: bad})
            assert getattr(SolverConfig(eps=1e-3, **{name: np.int64(3)}), name) == 3
        with pytest.raises(ValueError, match="subsolver_max_iters must be nonnegative"):
            SolverConfig(eps=1e-3, subsolver_max_iters=-1)
        # only the Lanczos cap may be None; None for T or seed used to fail
        # as a bare comparison with 0
        for name in ("T", "seed"):
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got None$"):
                SolverConfig(eps=1e-3, **{name: None})
        assert SolverConfig(eps=1e-3, subsolver_max_iters=0).subsolver_max_iters == 0

    def test_x0_finite(self):
        # refused when built, not as a non-finite gradient estimate at iteration 0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^x0 must be finite$"):
                SolverConfig(eps=1e-3, x0=[0.0, bad])

    def test_xi_open_interval(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, xi=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, xi=0.0)

    def test_theoretical_rule_is_derived_not_passed(self):
        # the driver derives the theoretical schedule from the problem, so a
        # schedule built for another problem or driver cannot be handed in
        rule = batch_schedule(make_synthetic(0, 100, 8), None, 1e-3, 2.5, 0.1, 20, "srvrc")
        with pytest.raises(TypeError, match="PracticalBatchRule"):
            SolverConfig(eps=1e-3, batch=rule)
        config = SolverConfig(eps=1e-3, batch=PracticalBatchRule(10, 10, 2))
        with pytest.raises(TypeError):
            dataclasses.replace(config, batch=rule)


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
# make_synthetic(3, 400, 8); a bill is (grad, hess, hvp, value) calls.  A
# full-batch correction is billed as a reset, and no value is billed twice.
# The srvrc_free HVP bills are those of the Lanczos step solve.
GOLDEN_RUNS = {
    "srvrc-theoretical": (
        run_srvrc, {},
        ("converged", 9, (3600, 3600, 0, 0), (0, 0, 0, 4000)),
    ),
    "srvrc-practical-adaptive": (
        run_srvrc, {"batch": PracticalBatchRule(80, 40, 4), "penalty": AdaptivePenalty()},
        ("converged", 11, (440, 220, 0, 0), (0, 0, 0, 4800)),
    ),
    "cr-adaptive": (
        run_cr, {"penalty": AdaptivePenalty()},
        ("converged", 4, (1600, 1600, 0, 0), (0, 0, 0, 2000)),
    ),
    "scr": (
        run_scr, {"batch": PracticalBatchRule(120, 60, 2)},
        ("budget-exhausted", 40, (4800, 2400, 0, 0), (0, 0, 0, 16400)),
    ),
    "srvrc_free-theoretical": (
        run_srvrc_free, {"subsolver_max_iters": 300},
        ("converged", 9, (3600, 0, 4000, 0), (0, 0, 0, 4000)),
    ),
    "srvrc_free-practical": (
        run_srvrc_free, {"batch": PracticalBatchRule(100, 40, 4), "subsolver_max_iters": 300},
        ("converged", 11, (700, 0, 480, 0), (0, 0, 0, 4800)),
    ),
    "srvrc_free-fresh-gradient": (
        run_srvrc_free,
        {"batch": PracticalBatchRule(100, 40, 4), "subsolver_max_iters": 300,
         "gradient_recursion": False},
        ("budget-exhausted", 40, (1750, 0, 1600, 0), (0, 0, 0, 16400)),
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

    def test_fresh_gradients_charge_one_pass_per_step(self):
        # gradient_recursion=False resets the gradient every step in every
        # driver, so each step pays one pass over its batch and no correction
        problem = make_synthetic(3, 400, 8)
        rule = PracticalBatchRule(60, 30, 3)
        config = SolverConfig(eps=1e-3, T=20, x0=np.full(8, 0.8), batch=rule,
                              gradient_recursion=False)
        fresh = run_srvrc(problem, config)
        assert fresh.counters.grad_calls == sum(row.Bg for row in fresh.trace) == 680
        recursive = run_srvrc(problem, dataclasses.replace(config, gradient_recursion=True))
        assert recursive.counters.grad_calls > sum(row.Bg for row in recursive.trace)

    @pytest.mark.parametrize("runner, variant", [(run_srvrc, "srvrc"), (run_srvrc_free, "srvrc_free")])
    @pytest.mark.parametrize("rule", [None, PracticalBatchRule(100, 50, 4)],
                             ids=["theoretical", "practical"])
    def test_trace_batches_follow_the_schedule(self, runner, variant, rule):
        # each row's sizes are the schedule's at its step, given the previous
        # step's length, or 0 after a rejection: then the theoretical
        # corrections shrink to 1 component
        problem = make_synthetic(seed=3, n=200, d=4)
        config = SolverConfig(eps=0.1, T=30, penalty=AdaptivePenalty(0.05), batch=rule, seed=1,
                              x0=np.full(4, 0.8))
        result = runner(problem, config)
        assert not all(row.accepted for row in result.trace)
        _, _, sizes = batch_schedule(problem, rule, config.eps, problem.lipschitz_hess,
                                     config.xi, config.T, variant)
        h_prev = None
        for row in result.trace:
            assert (row.Bg, row.Bh) == tuple(min(problem.n, b) for b in sizes(row.t, h_prev))
            h_prev = row.h_norm if row.accepted else 0.0
        if rule is None:
            assert min(row.Bg for row in result.trace) == 1

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
        rejected = [s.row.t for s in snaps if not s.row.accepted]
        assert rejected, "the tiny starting penalty must force at least one rejection"
        for s, nxt in zip(snaps, snaps[1:]):
            if not s.row.accepted:
                assert_allclose(nxt.x, s.x)
                assert nxt.row.Mt == pytest.approx(2.0 * s.row.Mt)
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

    def test_trace_records_each_rejection(self, tmp_path):
        # a rejected step keeps the iterate, so the next row repeats its f at
        # twice its penalty; the CLI's trace CSV carries the flag as written
        problem = cosine_problem()
        config = SolverConfig(
            eps=1e-4, T=100, x0=np.array([0.1]), penalty=AdaptivePenalty(m0=1e-8)
        )
        result = run_cr(problem, config)
        rows = result.trace
        assert not rows[0].accepted and rows[-1].accepted
        for row, nxt in zip(rows, rows[1:]):
            if not row.accepted:
                assert (nxt.f, nxt.Mt) == (row.f, 2.0 * row.Mt)
        write_trace_csv(tmp_path / "run.trace.csv", rows)
        with open(tmp_path / "run.trace.csv", newline="") as fh:
            written = [line["accepted"] for line in csv.DictReader(fh)]
        assert written == [str(row.accepted) for row in rows]
        assert "False" in written

    def test_fixed_penalty_column_is_constant(self):
        problem = make_synthetic(seed=3, n=20, d=3)
        config = SolverConfig(eps=1e-3, T=5, x0=np.full(3, 0.5), penalty=FixedPenalty(7.0))
        result = run_cr(problem, config)
        assert all(row.Mt == 7.0 for row in result.trace)

    def test_theoretical_penalty_uses_rho_multiple(self):
        problem = make_synthetic(seed=3, n=20, d=3)
        config = SolverConfig(
            eps=1e-3, rho=2.0, T=3, x0=np.full(3, 0.5), penalty=TheoreticalPenalty()
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
        grad = np.mean(  # component i is the kernel on [i]
            [problem.batch_grad_fn(np.array([i]), result.x_out) for i in range(problem.n)], axis=0
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

    @pytest.mark.parametrize(
        "problem_name,eps,seed,gradient_recursion,exit",
        [
            ("synthetic", 1e-3, 0, False, "converged"),
            ("synthetic", 1e-3, 1, True, "budget-exhausted"),
            ("logistic", 1e-3, 0, True, "converged"),
            ("logistic", 1e-2, 0, True, "converged"),
        ],
    )
    def test_adaptive_penalty_runs_reach_an_exit(self, problem_name, eps, seed, gradient_recursion, exit):
        # with the paper's gradient subsolver and its fixed step 1/(16 L) these
        # runs ended in SolverDivergenceError (synthetic at iterations 26 and
        # 37, logistic at eps 1e-3) or in the finalsolver's step-size
        # ValueError (logistic at eps 1e-2) once the adaptive penalty had moved
        # far from L; the Lanczos step solve has no step size.  Tier-1 turns
        # warnings into errors, so no overflow may happen on the way either.
        if problem_name == "synthetic":
            problem = make_synthetic(3, 400, 8)
        else:
            rng = np.random.default_rng(5)
            X = rng.standard_normal((200, 5))
            y = (rng.uniform(size=200) < 1 / (1 + np.exp(-X @ np.linspace(-1, 1, 5)))).astype(float)
            problem = binary_logreg_from_arrays(X, y, lam=1e-2)
        config = SolverConfig(eps=eps, T=40, x0=np.full(problem.dim, 0.8), seed=seed,
                              batch=PracticalBatchRule(60, 30, 3), penalty=AdaptivePenalty(),
                              gradient_recursion=gradient_recursion)
        result = run_srvrc_free(problem, config)
        assert result.exit == exit
        assert result.iterations == len(result.trace)
        assert np.isfinite(result.x_out).all()

    def test_nonfinite_product_names_iteration_and_penalty(self):
        # the operator built at iteration 3 returns inf: the step solve stops
        # there, before any arithmetic (and so any warning) touches it
        problem = make_synthetic(3, 400, 8)
        kernel, built = problem.batch_hvp_fn, []

        def poisoned(idx, x):
            built.append(1)
            if len(built) == 4:
                return lambda v: np.full_like(v, np.inf)
            return kernel(idx, x)

        problem.batch_hvp_fn = poisoned
        config = SolverConfig(eps=1e-3, T=40, x0=np.full(8, 0.8), seed=0,
                              batch=PracticalBatchRule(60, 30, 3), penalty=FixedPenalty(5.0))
        with pytest.raises(SolverDivergenceError, match=r"^iteration 3 \(penalty 5\): cubic krylov "
                           r"diverged in the Lanczos run from b: product 1 is not finite$") as info:
            run_srvrc_free(problem, config)
        assert isinstance(info.value.__cause__, SolverDivergenceError)
        assert isinstance(info.value.__cause__.__cause__, FloatingPointError)
        assert len(built) == 4


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
        problem = from_components(
            n=2,
            dim=2,
            value=lambda i, x: float("inf"),
            grad=lambda i, x: np.zeros(2),
            hess=lambda i, x: np.eye(2),
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


    def test_nonfinite_exact_step_names_its_iteration(self, monkeypatch):
        steps = []

        def nan_second_step(model):
            sol = solve_exact(model)
            steps.append(sol)
            return dataclasses.replace(sol, h=np.full_like(sol.h, np.nan)) if len(steps) == 2 else sol

        monkeypatch.setattr("vrcubic.drivers.solve_exact", nan_second_step)
        config = SolverConfig(eps=1e-3, T=5, penalty=FixedPenalty(1.0))
        with pytest.raises(FloatingPointError, match="step is not finite at iteration 1"):
            run_cr(bowl_problem([3.0, -4.0]), config)
        assert len(steps) == 2


class TestCallbacks:
    def test_snapshots_expose_consistent_state(self):
        problem = make_synthetic(seed=13, n=30, d=4)
        rule = PracticalBatchRule(B_g=15, B_h=10, S=3)
        config = SolverConfig(eps=1e-6, T=6, x0=np.full(4, 0.8), batch=rule)
        snaps = []
        result = run_srvrc(problem, config, callback=snaps.append)
        assert len(snaps) == result.iterations
        for s, row in zip(snaps, result.trace):
            assert s.row is row
            assert s.v.shape == (4,)
            assert s.U.shape == (4, 4)
            assert_allclose(np.linalg.norm(s.h), row.h_norm)

    def test_matvec_driver_snapshot_has_no_matrix(self):
        problem = make_synthetic(seed=13, n=30, d=4)
        config = SolverConfig(eps=1e-2, T=20, x0=np.full(4, 0.8))
        snaps = []
        run_srvrc_free(problem, config, callback=snaps.append)
        assert snaps
        assert all(s.U is None for s in snaps)
