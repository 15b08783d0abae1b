"""Outer optimization loops built on the cubic-subproblem solvers.

All four drivers run one outer loop, ``_run``.  Its variant picks how the
curvature of the cubic model is formed and how the step is solved:

* run_srvrc      -- recursive gradient and Hessian estimators, exact solve.
* run_srvrc_free -- recursive gradient, per-step subsampled Hessian-vector
                    operator, Lanczos (Krylov) solve to a decrease target;
                    terminates through a model-decrease branch plus a Lanczos
                    solve to a model-gradient tolerance.
* run_cr         -- run_srvrc with full batches, reset every step.
* run_scr        -- run_srvrc with fixed-size batches, reset every step.

The cubic penalty is governed by a policy: a fixed value, 4*rho (rho the
Hessian-Lipschitz constant), or the adaptive rule of ARC (Cartis, Gould &
Toint, Math. Program. 2011) at fixed constants, which grows the penalty and
rejects the step when the model over-promises.  Every run draws its samples
from np.random.default_rng(config.seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cubic import BudgetExceededError, CubicModel, SolverDivergenceError, cubic_krylov, solve_exact
from .estimators import (
    EstimatorState,
    PracticalBatchRule,
    batch_schedule,
    update_gradient_estimator,
    update_hessian_estimator,
)
from .finite_sum import (
    FiniteSumProblem,
    OracleCounter,
    _check_integer,
    _check_nonnegative,
    _check_positive,
    _check_probability,
    batch_hvp,
    batch_value,
    full_index,
    sample_multiset,
)

__all__ = [
    "FixedPenalty",
    "TheoreticalPenalty",
    "AdaptivePenalty",
    "SolverConfig",
    "TraceRow",
    "RunResult",
    "IterationSnapshot",
    "adaptive_penalty_update",
    "budget_from_gap",
    "run_srvrc",
    "run_srvrc_free",
    "run_cr",
    "run_scr",
]

_ALGORITHMS = ("srvrc", "srvrc_free", "cr", "scr")  # the drivers' names, as configs give them

# ARC's constants: a step is taken when the actual decrease is at least ETA1 of
# the predicted one; the penalty halves at ETA2 or more, doubles on a rejection
# and stays in [FLOOR, CAP].
_ARC_ETA1, _ARC_ETA2 = 0.1, 0.9
_ARC_SHRINK, _ARC_GROW = 0.5, 2.0
_ARC_FLOOR, _ARC_CAP = 1e-8, 1e12


@dataclass(frozen=True)
class FixedPenalty:
    value: float

    def __post_init__(self):
        _check_positive(**{"fixed penalty": self.value})


@dataclass(frozen=True)
class TheoreticalPenalty:
    """The penalty 4*rho, rho the Hessian-Lipschitz constant (FixedPenalty for any other)."""


@dataclass(frozen=True)
class AdaptivePenalty:
    """ARC's rule from the initial penalty m0: shrink on good models, grow and reject on bad."""

    m0: float = 1.0

    def __post_init__(self):
        _check_positive(**{"initial penalty": self.m0})


PenaltyPolicy = FixedPenalty | TheoreticalPenalty | AdaptivePenalty


def adaptive_penalty_update(penalty: float, rho_ratio: float) -> tuple[float, bool]:
    """One ARC acceptance decision: returns (next penalty, step accepted).

    rho_ratio is actual-over-predicted decrease; anything below 0.1
    (including NaN or -inf from a nonpositive prediction) rejects the step
    and doubles the penalty.
    """
    if math.isfinite(rho_ratio) and rho_ratio >= _ARC_ETA1:
        if rho_ratio >= _ARC_ETA2:
            return max(_ARC_FLOOR, min(_ARC_CAP, penalty * _ARC_SHRINK)), True
        return penalty, True
    return max(_ARC_FLOOR, min(_ARC_CAP, penalty * _ARC_GROW)), False


@dataclass
class SolverConfig:
    """Driver settings; L, M and the step solver's constants are derived, not set.

    eps                 target accuracy (gradient norm, sqrt(rho*eps) curvature)
    rho                 Hessian-Lipschitz constant; None takes the problem's
    xi                  failure probability of the theoretical batch rule (the
                        free driver's Lanczos step solve does not use it)
    T                   iteration budget
    penalty             cubic penalty policy
    batch               fixed batch sizes; None is the paper's theoretical schedule
    seed                seed of the run's sampling generator
    x0                  starting point; None is the origin; must be finite
    subsolver_max_iters cap on the Lanczos steps of the free driver's per-iteration
                        solve (each run, at least one); None is the dimension
    finalsolver_eps_g   model-gradient tolerance of the free driver's terminal
                        step; None is eps
    gradient_recursion  False draws a fresh gradient every step, in every driver, as
                        large as the rule's batch that step: its reset size at its
                        epoch starts, its correction size between (floor(B_g/S))
    """

    eps: float
    rho: float | None = None
    xi: float = 0.1
    T: int = 100
    penalty: PenaltyPolicy = field(default_factory=TheoreticalPenalty)
    batch: PracticalBatchRule | None = None
    seed: int = 0
    x0: np.ndarray | None = None
    subsolver_max_iters: int | None = None
    finalsolver_eps_g: float | None = None
    gradient_recursion: bool = True

    def __post_init__(self):
        _check_positive(eps=self.eps)
        if self.rho is not None:
            _check_positive(rho=self.rho)
        _check_integer("T", self.T, 0)
        _check_integer("seed", self.seed, 0)
        if self.subsolver_max_iters is not None:
            _check_integer("subsolver_max_iters", self.subsolver_max_iters, 0)
        _check_probability(xi=self.xi)
        if not isinstance(self.penalty, PenaltyPolicy):
            raise TypeError("penalty must be a FixedPenalty, TheoreticalPenalty or AdaptivePenalty")
        if self.batch is not None and not isinstance(self.batch, PracticalBatchRule):
            raise TypeError("batch must be a PracticalBatchRule or None (the theoretical schedule)")
        if self.finalsolver_eps_g is not None:
            _check_positive(finalsolver_eps_g=self.finalsolver_eps_g)
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)
            if not np.isfinite(self.x0).all():
                raise ValueError("x0 must be finite")


@dataclass
class TraceRow:
    """One iteration's scalars; RunResult.trace is the run's only per-iteration record."""

    t: int
    f: float
    h_norm: float
    m_value: float
    Bg: int
    Bh: int
    Mt: float
    grad_calls: int
    hess_calls: int
    hvp_calls: int
    accepted: bool  # the step was taken; a rejected ARC step keeps x and doubles Mt
    wall_ms: float


@dataclass
class IterationSnapshot:
    """What a driver callback gets each iteration: the row just traced, plus the arrays."""

    row: TraceRow  # the object appended to RunResult.trace
    x: np.ndarray  # a copy of the iterate
    v: np.ndarray  # the gradient estimate
    U: np.ndarray | None  # the Hessian estimate; None in the free driver
    h: np.ndarray  # the step


@dataclass
class RunResult:
    x_out: np.ndarray
    exit: str  # "converged" | "budget-exhausted"
    trace: list[TraceRow]
    counters: OracleCounter
    diag_counters: OracleCounter
    f_out: float
    wall_ms_total: float

    @property
    def iterations(self) -> int:
        return len(self.trace)


def budget_from_gap(delta_f: float, eps: float, rho: float, algorithm: str = "srvrc") -> int:
    """Outer-iteration budget from an objective-gap estimate.

    T = ceil(c * delta_f * sqrt(rho) / eps^{3/2}) with c = 25 for the
    Hessian-free driver and 40 for the other three.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}: expected one of {_ALGORITHMS}")
    _check_nonnegative(**{"objective gap": delta_f})
    _check_positive(eps=eps, rho=rho)
    coef = 25.0 if algorithm == "srvrc_free" else 40.0
    return max(1, math.ceil(coef * delta_f * math.sqrt(rho) / eps**1.5))


def _rho(problem: FiniteSumProblem, config: SolverConfig) -> float:
    """The run's Hessian-Lipschitz constant: config.rho, or the problem's when None."""
    return config.rho if config.rho is not None else problem.lipschitz_hess


def _initial_penalty(policy: PenaltyPolicy, rho: float) -> float:
    if isinstance(policy, FixedPenalty):
        return policy.value
    if isinstance(policy, TheoreticalPenalty):
        return 4.0 * rho
    return policy.m0


def _initial_point(problem: FiniteSumProblem, config: SolverConfig) -> np.ndarray:
    if config.x0 is None:
        return np.zeros(problem.dim)
    x0 = np.asarray(config.x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dim},)")
    return x0.copy()


def _run(problem: FiniteSumProblem, config: SolverConfig, callback, variant: str) -> RunResult:
    """The outer loop of every driver; ``variant`` is "srvrc" or "srvrc_free".

    "srvrc" forms the curvature by the recursive dense Hessian estimator and
    solves exactly (radius test); "srvrc_free" forms it as a Hessian-vector
    operator over a fresh sample and solves by Lanczos to the subsolver's
    decrease target, then, on its last step (decrease test), by Lanczos on
    the unperturbed model to the model-gradient tolerance.
    """
    free = variant == "srvrc_free"
    rng = np.random.default_rng(config.seed)
    eps, rho, L, T = config.eps, _rho(problem, config), problem.lipschitz_grad, config.T
    S_g, S_h, batch_sizes = batch_schedule(problem, config.batch, eps, rho, config.xi, T, variant)
    if not config.gradient_recursion:
        S_g = 1  # a fresh gradient every step is a recursion that resets every step
    state = EstimatorState(S_g=S_g, S_h=S_h)
    policy = config.penalty
    penalty = _initial_penalty(policy, rho)
    adaptive = isinstance(policy, AdaptivePenalty)
    radius = math.sqrt(eps / rho)
    eps_g = config.finalsolver_eps_g if config.finalsolver_eps_g is not None else eps
    decrease_floor = -4.0 * eps**1.5 / math.sqrt(rho)

    full = full_index(problem)
    oracle = OracleCounter()
    diag = OracleCounter()
    x = _initial_point(problem, config)
    x_prev: np.ndarray | None = None
    f_t: float | None = None  # F(x), once evaluated; each value is billed once
    h_prev: float | None = None
    trace: list[TraceRow] = []
    exit_status = "budget-exhausted"
    start = time.perf_counter()

    for t in range(T):
        state.t = t
        Bg, Bh = batch_sizes(t, h_prev)
        Bg, Bh = min(Bg, problem.n), min(Bh, problem.n)
        v = update_gradient_estimator(state, problem, x, x_prev, Bg, rng, oracle)
        if free:
            U = None
            A = batch_hvp(problem, x, sample_multiset(rng, problem.n, Bh), oracle)
        else:
            U = A = update_hessian_estimator(state, problem, x, x_prev, Bh, rng, oracle)
        for name, estimate in (("gradient", v), ("Hessian", U)):
            if estimate is not None and not np.isfinite(estimate).all():
                raise FloatingPointError(f"{name} estimate is not finite at iteration {t}")
        if f_t is None:
            f_t = batch_value(problem, x, full, diag)
        if not math.isfinite(f_t):
            raise FloatingPointError(f"objective is not finite at iteration {t}")
        model = CubicModel(b=v, A=A, penalty=penalty, hess_norm_bound=L)
        if free:
            # the subsolver's target of Tripuraneni et al. (2018), quality 1/2
            target = -0.5 * penalty * radius**3 / 12.0
            try:
                sol = cubic_krylov(model, target=target, max_iters=config.subsolver_max_iters, rng=rng)
                terminal = not (sol.m_value < decrease_floor)
                if terminal:
                    sol = cubic_krylov(model, grad_tol=eps_g)
            except (SolverDivergenceError, BudgetExceededError) as exc:
                raise type(exc)(f"iteration {t} (penalty {penalty:g}): {exc}") from exc
        else:
            sol = solve_exact(model)
            if not np.isfinite(sol.h).all():
                raise FloatingPointError(f"step is not finite at iteration {t}")
        h_norm = float(np.linalg.norm(sol.h))
        if not free:
            terminal = h_norm <= radius
        x_trial = x + sol.h  # evaluated here, and the next iterate if taken
        f_trial = None
        accepted = True  # a terminal step is always taken
        penalty_next = penalty
        if not terminal and adaptive:
            f_trial = batch_value(problem, x_trial, full, diag)
            pred = -sol.m_value
            ratio = (f_t - f_trial) / pred if pred > 0 else -math.inf
            penalty_next, accepted = adaptive_penalty_update(penalty, ratio)
        row = TraceRow(
            t=t,
            f=f_t,
            h_norm=h_norm,
            m_value=sol.m_value,
            Bg=Bg,
            Bh=Bh,
            Mt=penalty,
            grad_calls=oracle.grad_calls,
            hess_calls=oracle.hess_calls,
            hvp_calls=oracle.hvp_calls,
            accepted=accepted,
            wall_ms=(time.perf_counter() - start) * 1000.0,
        )
        trace.append(row)
        if callback is not None:
            callback(IterationSnapshot(row=row, x=x.copy(), v=v, U=U, h=sol.h))
        x_prev = x
        if accepted:
            x, f_t = x_trial, f_trial
        if terminal:
            exit_status = "converged"
            break
        h_prev = h_norm if accepted else 0.0
        penalty = penalty_next

    f_out = f_t if f_t is not None else batch_value(problem, x, full, diag)
    return RunResult(
        x_out=x,
        exit=exit_status,
        trace=trace,
        counters=oracle,
        diag_counters=diag,
        f_out=f_out,
        wall_ms_total=(time.perf_counter() - start) * 1000.0,
    )


def run_srvrc(problem: FiniteSumProblem, config: SolverConfig, callback=None) -> RunResult:
    """Recursive gradient/Hessian estimators + exact cubic steps.

    Stops with "converged" at the first step shorter than sqrt(eps/rho)
    (taking that step), "budget-exhausted" after T iterations otherwise.
    """
    return _run(problem, config, callback, "srvrc")


def run_srvrc_free(problem: FiniteSumProblem, config: SolverConfig, callback=None) -> RunResult:
    """Recursive gradient + per-step Hessian-vector operators, matvec-only solve.

    Each iteration draws a fresh Hessian subsample and builds one averaged
    product operator.  cubic_krylov solves the model with it to the decrease
    target -tau zeta^3 / 24 (zeta = sqrt(eps/rho)), at most
    ``subsolver_max_iters`` Lanczos steps; its first step is the Cauchy point,
    and only a Cauchy step that misses the target draws a perturbation from
    the run's generator.  While the model decrease beats -4 eps^{3/2} / sqrt(rho)
    the step is taken and the loop continues; the first time it does not,
    cubic_krylov solves the unperturbed model to ||grad m|| <= finalsolver_eps_g
    (BudgetExceededError if the dimension comes first), that last step is
    taken, and the run reports converged.  The paper proves this driver's bound
    with the gradient Cubic-Subsolver and Cubic-Finalsolver instead
    (cubic_subsolver and cubic_finalsolver, kept as reference solvers).
    With ``gradient_recursion=False`` the gradient is drawn fresh every step (SolverConfig).
    """
    return _run(problem, config, callback, "srvrc_free")


def run_cr(problem: FiniteSumProblem, config: SolverConfig, callback=None) -> RunResult:
    """Deterministic cubic regularization: full gradient and Hessian each step.

    This is run_srvrc with the batch rule PracticalBatchRule(n, n, 1); full
    batches consume no randomness.
    """
    rule = PracticalBatchRule(B_g=problem.n, B_h=problem.n, S=1)
    return run_srvrc(problem, replace(config, batch=rule), callback=callback)


def run_scr(problem: FiniteSumProblem, config: SolverConfig, callback=None) -> RunResult:
    """Fresh fixed-size gradient/Hessian subsamples each step, no recursion.

    This is run_srvrc with the configured practical rule's epoch length set
    to 1, so every step resets both estimates from (B_g, B_h) samples.
    """
    rule = config.batch
    if not isinstance(rule, PracticalBatchRule):
        raise ValueError("this driver needs a practical batch rule with fixed sizes")
    return run_srvrc(problem, replace(config, batch=replace(rule, S=1)), callback)
