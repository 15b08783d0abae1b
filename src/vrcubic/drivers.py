"""Outer optimization loops built on the cubic-subproblem solvers.

All four drivers run one outer loop, ``_run``.  Its variant picks how the
curvature of the cubic model is formed and how the step is solved:

* run_srvrc      -- recursive gradient and Hessian estimators, exact solve.
* run_srvrc_free -- recursive gradient, per-step subsampled Hessian-vector
                    closure, budgeted approximate solve; terminates through a
                    model-decrease branch plus a polishing gradient run.
* run_cr         -- run_srvrc with full batches, reset every step.
* run_scr        -- run_srvrc with fixed-size batches, reset every step.

The cubic penalty is governed by a policy: fixed, a constant multiple of the
Hessian-Lipschitz constant (default 4*rho), or an ARC-style adaptive rule
that grows the penalty and rejects the step when the model over-promises.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cubic import CubicModel, SolverDivergenceError, cubic_finalsolver, cubic_subsolver, solve_exact
from .estimators import (
    EstimatorState,
    PracticalBatchRule,
    TheoreticalBatchRule,
    default_epochs,
    practical_batch,
    theoretical_batch_g,
    theoretical_batch_h,
    update_gradient_estimator,
    update_hessian_estimator,
)
from .finite_sum import (
    FiniteSumProblem,
    OracleCounter,
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


@dataclass(frozen=True)
class FixedPenalty:
    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("fixed penalty must be positive")


@dataclass(frozen=True)
class TheoreticalPenalty:
    """Penalty pinned to a multiple of the Hessian-Lipschitz constant."""

    factor: float = 4.0

    def __post_init__(self):
        if not self.factor > 0:
            raise ValueError("penalty factor must be positive")


@dataclass(frozen=True)
class AdaptivePenalty:
    """ARC-style trust parameters: shrink on good models, grow and reject on bad."""

    m0: float = 1.0
    gamma_inc: float = 2.0
    gamma_dec: float = 0.5
    eta1: float = 0.1
    eta2: float = 0.9
    floor: float = 1e-8
    cap: float = 1e12

    def __post_init__(self):
        if not self.gamma_inc > 1:
            raise ValueError("gamma_inc must exceed 1")
        if not 0 < self.gamma_dec < 1:
            raise ValueError("gamma_dec must lie in (0, 1)")
        if not 0 < self.eta1 <= self.eta2 < 1:
            raise ValueError("need 0 < eta1 <= eta2 < 1")
        if not 0 < self.floor <= self.cap:
            raise ValueError("need 0 < floor <= cap")
        if not self.m0 > 0:
            raise ValueError("initial penalty must be positive")


PenaltyPolicy = FixedPenalty | TheoreticalPenalty | AdaptivePenalty


def adaptive_penalty_update(
    penalty: float, rho_ratio: float, policy: AdaptivePenalty | None = None
) -> tuple[float, bool]:
    """One ARC acceptance decision: returns (next penalty, step accepted).

    rho_ratio is actual-over-predicted decrease; anything below eta1
    (including NaN or -inf from a nonpositive prediction) rejects the step
    and inflates the penalty.
    """
    p = policy or AdaptivePenalty()
    if math.isfinite(rho_ratio) and rho_ratio >= p.eta1:
        if rho_ratio >= p.eta2:
            return max(p.floor, min(p.cap, penalty * p.gamma_dec)), True
        return penalty, True
    return max(p.floor, min(p.cap, penalty * p.gamma_inc)), False


@dataclass
class SolverConfig:
    """Driver settings; None for a constant means "use the problem metadata"."""

    eps: float
    rho: float | None = None
    L: float | None = None
    M: float | None = None
    xi: float = 0.1
    T: int = 100
    penalty: PenaltyPolicy = field(default_factory=TheoreticalPenalty)
    batch: TheoreticalBatchRule | PracticalBatchRule | None = None
    seed: int = 0
    x0: np.ndarray | None = None
    subsolver_eta: float | None = None  # None -> 1/(16 L)
    subsolver_quality: float = 0.5
    subsolver_fail_prob: float | None = None  # None -> xi / (3 T)
    subsolver_max_iters: int | None = None
    finalsolver_eps_g: float | None = None  # None -> eps
    finalsolver_max_iters: int = 10**6
    gradient_recursion: bool = True

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.T < 0:
            raise ValueError("iteration budget must be nonnegative")
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)


@dataclass
class TraceRow:
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
    wall_ms: float


@dataclass
class IterationSnapshot:
    """Per-iteration view handed to driver callbacks (white-box testing hooks)."""

    t: int
    x: np.ndarray
    v: np.ndarray
    U: np.ndarray | None
    h: np.ndarray
    m_value: float
    penalty: float
    accepted: bool


@dataclass
class RunResult:
    x_out: np.ndarray
    exit: str  # "converged" | "budget-exhausted"
    iterations: int
    trace: list[TraceRow]
    counters: OracleCounter
    diag_counters: OracleCounter
    f_out: float
    wall_ms_total: float


def budget_from_gap(delta_f: float, eps: float, rho: float, algorithm: str = "srvrc") -> int:
    """Outer-iteration budget from an objective-gap estimate.

    T = ceil(c * delta_f * sqrt(rho) / eps^{3/2}) with c = 25 for the
    Hessian-free driver and 40 otherwise.
    """
    if delta_f < 0:
        raise ValueError("objective gap must be nonnegative")
    coef = 25.0 if algorithm == "srvrc_free" else 40.0
    return max(1, math.ceil(coef * delta_f * math.sqrt(rho) / eps**1.5))


def _resolve(problem: FiniteSumProblem, config: SolverConfig):
    rho = config.rho if config.rho is not None else problem.lipschitz_hess
    L = config.L if config.L is not None else problem.lipschitz_grad
    M = config.M if config.M is not None else problem.grad_bound
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not L > 0:
        raise ValueError("L must be positive")
    return config.eps, rho, L, M, config.xi, config.T


def _initial_penalty(policy: PenaltyPolicy, rho: float) -> float:
    if isinstance(policy, FixedPenalty):
        return policy.value
    if isinstance(policy, TheoreticalPenalty):
        return policy.factor * rho
    return policy.m0


def _initial_point(problem: FiniteSumProblem, config: SolverConfig) -> np.ndarray:
    if config.x0 is None:
        return np.zeros(problem.dim)
    x0 = np.asarray(config.x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.dim},)")
    return x0.copy()


def _theoretical_rule(
    problem: FiniteSumProblem, config: SolverConfig, variant: str
) -> TheoreticalBatchRule:
    eps, rho, L, M, xi, T = _resolve(problem, config)
    S_g, S_h = default_epochs(problem.n, eps, L, rho, M)
    if variant == "srvrc_free":
        S_h = 1
    return TheoreticalBatchRule(
        n=problem.n,
        dim=problem.dim,
        eps=eps,
        xi=xi,
        T=max(T, 1),
        lipschitz_grad=L,
        lipschitz_hess=rho,
        grad_bound=M,
        S_g=S_g,
        S_h=S_h,
        variant=variant,
    )


def _batch_sizes(rule, t: int, disp_norm: float | None, free: bool) -> tuple[int, int]:
    """(gradient, Hessian) sample sizes at step t, before clamping to n.

    The Hessian-vector sample of the free variant has the same size at every
    step, so it never depends on the previous step length.
    """
    if isinstance(rule, TheoreticalBatchRule):
        Bg = theoretical_batch_g(rule, t, disp_norm)
        return Bg, theoretical_batch_h(rule, t, None if free else disp_norm)
    Bg, Bh = practical_batch(rule, t)
    return Bg, rule.B_h if free else Bh


def _run(
    problem: FiniteSumProblem,
    config: SolverConfig,
    rng: np.random.Generator | None,
    callback,
    variant: str,
) -> RunResult:
    """The outer loop of every driver; ``variant`` is "srvrc" or "srvrc_free".

    "srvrc" forms the curvature by the recursive dense Hessian estimator and
    solves exactly (radius test); "srvrc_free" forms it as a Hessian-vector
    closure over a fresh sample and solves with the subsolver, falling back
    to the finalsolver on its last step (decrease test).
    """
    free = variant == "srvrc_free"
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    eps, rho, L, _, xi, T = _resolve(problem, config)
    rule = config.batch or _theoretical_rule(problem, config, variant)
    if isinstance(rule, TheoreticalBatchRule):
        S_g, S_h = rule.S_g, rule.S_h
    else:
        S_g = S_h = rule.S
    if free and not config.gradient_recursion:
        S_g = 1  # a fresh gradient every step is a recursion that resets every step
    state = EstimatorState(S_g=S_g, S_h=S_h)
    policy = config.penalty
    penalty = _initial_penalty(policy, rho)
    adaptive = isinstance(policy, AdaptivePenalty)
    radius = math.sqrt(eps / rho)
    eta = config.subsolver_eta if config.subsolver_eta is not None else 1.0 / (16.0 * L)
    fail_prob = (
        config.subsolver_fail_prob
        if config.subsolver_fail_prob is not None
        else xi / (3.0 * max(T, 1))
    )
    eps_g = config.finalsolver_eps_g if config.finalsolver_eps_g is not None else eps
    decrease_floor = -4.0 * eps**1.5 / math.sqrt(rho)

    full = full_index(problem)
    oracle = OracleCounter()
    diag = OracleCounter()
    x = _initial_point(problem, config)
    x_prev: np.ndarray | None = None
    disp_norm: float | None = None
    trace: list[TraceRow] = []
    exit_status = "budget-exhausted"
    start = time.perf_counter()

    for t in range(T):
        state.t = t
        Bg, Bh = _batch_sizes(rule, t, disp_norm, free)
        Bg, Bh = min(Bg, problem.n), min(Bh, problem.n)
        v = update_gradient_estimator(state, problem, x, x_prev, Bg, rng, oracle)
        if free:
            U = None
            I = sample_multiset(rng, problem.n, Bh)

            def A(vec, idx=I, point=x):
                return batch_hvp(problem, point, idx, vec, oracle)

        else:
            U = A = update_hessian_estimator(state, problem, x, x_prev, Bh, rng, oracle)
        for name, estimate in (("gradient", v), ("Hessian", U)):
            if estimate is not None and not np.isfinite(estimate).all():
                raise FloatingPointError(f"{name} estimate is not finite at iteration {t}")
        f_t = batch_value(problem, x, full, diag)
        if not math.isfinite(f_t):
            raise FloatingPointError(f"objective is not finite at iteration {t}")
        model = CubicModel(b=v, A=A, penalty=penalty, hess_norm_bound=L)
        if free:
            try:
                sol = cubic_subsolver(
                    model,
                    eta,
                    radius,
                    config.subsolver_quality,
                    fail_prob,
                    rng,
                    max_iters=config.subsolver_max_iters,
                )
                terminal = not (sol.m_value < decrease_floor)
                if terminal:
                    sol = cubic_finalsolver(model, eta, eps_g, config.finalsolver_max_iters)
            except SolverDivergenceError as exc:
                raise SolverDivergenceError(f"iteration {t} (penalty {penalty:g}): {exc}") from exc
        else:
            sol = solve_exact(model)
            if not np.isfinite(sol.h).all():
                raise FloatingPointError(f"step is not finite at iteration {t}")
        h_norm = float(np.linalg.norm(sol.h))
        if not free:
            terminal = h_norm <= radius
        x_trial = x + sol.h  # evaluated here, and the next iterate if taken
        accepted = True
        penalty_next = penalty
        if not terminal and adaptive:
            f_trial = batch_value(problem, x_trial, full, diag)
            pred = -sol.m_value
            ratio = (f_t - f_trial) / pred if pred > 0 else -math.inf
            penalty_next, accepted = adaptive_penalty_update(penalty, ratio, policy)
        trace.append(
            TraceRow(
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
                wall_ms=(time.perf_counter() - start) * 1000.0,
            )
        )
        if callback is not None:
            callback(
                IterationSnapshot(
                    t=t,
                    x=x.copy(),
                    v=v,
                    U=U,
                    h=sol.h,
                    m_value=sol.m_value,
                    penalty=penalty,
                    accepted=accepted or terminal,
                )
            )
        x_prev = x
        if terminal:
            x = x_trial
            exit_status = "converged"
            break
        if accepted:
            x = x_trial
            disp_norm = h_norm
        else:
            disp_norm = 0.0
        penalty = penalty_next

    f_out = batch_value(problem, x, full, diag)
    return RunResult(
        x_out=x,
        exit=exit_status,
        iterations=len(trace),
        trace=trace,
        counters=oracle,
        diag_counters=diag,
        f_out=f_out,
        wall_ms_total=(time.perf_counter() - start) * 1000.0,
    )


def run_srvrc(
    problem: FiniteSumProblem,
    config: SolverConfig,
    rng: np.random.Generator | None = None,
    callback=None,
) -> RunResult:
    """Recursive gradient/Hessian estimators + exact cubic steps.

    Stops with "converged" at the first step shorter than sqrt(eps/rho)
    (taking that step), "budget-exhausted" after T iterations otherwise.
    """
    return _run(problem, config, rng, callback, "srvrc")


def run_srvrc_free(
    problem: FiniteSumProblem,
    config: SolverConfig,
    rng: np.random.Generator | None = None,
    callback=None,
) -> RunResult:
    """Recursive gradient + per-step Hessian-vector closures, matvec-only solve.

    Each iteration draws a fresh Hessian subsample whose averaged product
    closure backs the budgeted subsolver.  While the model decrease beats
    -4 eps^{3/2} / sqrt(rho) the step is taken and the loop continues; the
    first time it does not, the polishing solver drives the model gradient
    below eps, that last step is taken, and the run reports converged.
    With ``gradient_recursion=False`` the gradient is re-sampled every step.
    """
    return _run(problem, config, rng, callback, "srvrc_free")


def run_cr(problem: FiniteSumProblem, config: SolverConfig, callback=None) -> RunResult:
    """Deterministic cubic regularization: full gradient and Hessian each step.

    This is run_srvrc with the batch rule PracticalBatchRule(n, n, 1); full
    batches consume no randomness.
    """
    rule = PracticalBatchRule(B_g=problem.n, B_h=problem.n, S=1)
    return run_srvrc(problem, replace(config, batch=rule), callback=callback)


def run_scr(
    problem: FiniteSumProblem,
    config: SolverConfig,
    rng: np.random.Generator | None = None,
    callback=None,
) -> RunResult:
    """Fresh fixed-size gradient/Hessian subsamples each step, no recursion.

    This is run_srvrc with the configured practical rule's epoch length set
    to 1, so every step resets both estimates from (B_g, B_h) samples.
    """
    rule = config.batch
    if not isinstance(rule, PracticalBatchRule):
        raise ValueError("this driver needs a practical batch rule with fixed sizes")
    return run_srvrc(problem, replace(config, batch=replace(rule, S=1)), rng, callback)
