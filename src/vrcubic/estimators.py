"""Recursive variance-reduced gradient/Hessian estimators and their batch schedule.

The estimators follow the standard recursive correction scheme: at epoch
boundaries (t divisible by the epoch length) the estimate is rebuilt from a
fresh subsample; in between, a shared multiset J evaluated at both the
current and the previous iterate corrects the running estimate,

    v_t = g_J(x_t) - g_J(x_{t-1}) + v_{t-1}.

A full-batch correction is a reset instead, deviating from the paper: it
charges n, not 2n, and gives the full derivative without carried roundoff.
At an unmoved point (x_t == x_{t-1}, as after a rejected adaptive step) a
correction keeps v_{t-1} and queries nothing, and so does a full-batch reset
when v_{t-1} was formed from the full batch.  J is drawn either way.

One function, batch_schedule, builds a run's schedule: its epoch lengths and
its batch size at each step.  With no rule it is the paper's: sizes from the
problem constants (L, rho, M), the target accuracy and the failure
probability, with corrections that shrink with the squared length of the
previous step.  With a PracticalBatchRule it is fixed sizes B at epoch
boundaries and B/S in between, the schedule of SPIDER (Fang, Li, Lin & Zhang,
NeurIPS 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_sum import (FiniteSumProblem, OracleCounter, _check_integer, _check_positive,
                         _check_probability, batch_gradient, batch_hessian, sample_multiset)

__all__ = [
    "EstimatorState",
    "PracticalBatchRule",
    "batch_schedule",
    "default_epochs",
    "update_gradient_estimator",
    "update_hessian_estimator",
]

# (gradient constant, Hessian constant, multiplier on T inside the log)
_RULE_CONSTANTS = {
    "srvrc": (1440.0, 800.0, 2.0),
    "srvrc_free": (2640.0, 1200.0, 3.0),
}


@dataclass
class EstimatorState:
    """Mutable bookkeeping for the two recursions: estimates, clock, epochs."""

    S_g: int
    S_h: int
    t: int = 0
    v: np.ndarray | None = None
    U: np.ndarray | None = None
    v_exact: bool = False  # v was formed from the full batch
    U_exact: bool = False  # U was formed from the full batch

    @property
    def grad_reset_due(self) -> bool:
        return self.t % self.S_g == 0

    @property
    def hess_reset_due(self) -> bool:
        return self.t % self.S_h == 0


@dataclass(frozen=True)
class PracticalBatchRule:
    """Fixed base sizes: (B_g, B_h) at epoch boundaries, floor(B/S) between."""

    B_g: int
    B_h: int
    S: int

    def __post_init__(self):
        for name in ("B_g", "B_h", "S"):
            _check_integer(name, getattr(self, name), 1)


def _capped(raw, cap: int) -> float:
    """min(cap, raw()), or cap where raw() is NaN, overflows or divides by an underflowed 0."""
    try:
        value = raw()
    except (OverflowError, ZeroDivisionError):
        return cap
    return value if value < cap else cap


def default_epochs(
    n: int, eps: float, lipschitz_grad: float, lipschitz_hess: float, grad_bound: float
) -> tuple[int, int]:
    """Epoch lengths balancing reset cost against correction cost.

    S_g = sqrt(rho*eps)/L * sqrt(min(n, M^2/eps^2)) and
    S_h = sqrt(min(n, L/(rho*eps))), both rounded up to at least 1.
    """
    L, rho, M = lipschitz_grad, lipschitz_hess, grad_bound
    s_g = math.sqrt(rho * eps) / L * math.sqrt(_capped(lambda: M * M / (eps * eps), n))
    s_h = math.sqrt(_capped(lambda: L / (rho * eps), n))
    return max(1, math.ceil(s_g)), max(1, math.ceil(s_h))


def batch_schedule(
    problem: FiniteSumProblem, rule: PracticalBatchRule | None, eps: float, rho: float,
    xi: float, T: int, variant: str
):
    """A run's epoch lengths and batch sizes: (S_g, S_h, sizes).

    ``sizes(t, h_prev)`` is the (gradient, Hessian) sample sizes at step t
    before they are clamped to n; h_prev is the length of the step before t,
    None at t = 0, which every schedule makes an epoch start.  ``rule=None``
    is the paper's schedule at accuracy eps, Hessian-Lipschitz constant rho
    and failure probability xi over T steps: resets sized from L, M and rho
    (M = inf resets the gradient from the full batch), corrections that shrink
    with h_prev^2, epochs from default_epochs.  A PracticalBatchRule gives
    (B_g, B_h) at its epoch starts and floor(B/S) between.  ``variant`` is
    "srvrc" or "srvrc_free"; the latter draws its Hessian-vector sample at
    the reset size at every step.
    """
    if variant not in _RULE_CONSTANTS:
        raise ValueError(f"unknown batch-rule variant {variant!r}")
    _check_positive(eps=eps)
    _check_probability(xi=xi)
    free = variant == "srvrc_free"
    if rule is not None:
        S = rule.S

        def sizes(t: int, h_prev: float | None) -> tuple[int, int]:
            if t % S == 0:
                return rule.B_g, rule.B_h
            return max(1, rule.B_g // S), rule.B_h if free else max(1, rule.B_h // S)

        return S, S, sizes

    n, L, M = problem.n, problem.lipschitz_grad, problem.grad_bound
    cg, ch, tmul = _RULE_CONSTANTS[variant]
    S_g, S_h = default_epochs(n, eps, L, rho, M)
    T = max(T, 1)

    def sizes(t: int, h_prev: float | None) -> tuple[int, int]:
        log_g = math.log(tmul * T / xi) ** 2
        if t % S_g == 0:
            Bg = _capped(lambda: cg * M**2 * log_g / eps**2, n)
        else:
            Bg = _capped(lambda: cg * L**2 * S_g * h_prev**2 * log_g / eps**2, n)
        log_h = math.log(tmul * T * problem.dim / xi) ** 2
        if free or t % S_h == 0:
            Bh = _capped(lambda: ch * L * L * log_h / (rho * eps), n)
        else:
            Bh = _capped(lambda: ch * rho * S_h * h_prev**2 * log_h / eps, n)
        return max(1, math.ceil(Bg)), max(1, math.ceil(Bh))

    return S_g, S_h, sizes


def _recursive_update(state, name, problem, x_t, x_prev, B, rng, counter, reset_due, oracle):
    """One step of the recursion shared by both estimators; returns the new estimate.

    ``name`` is the estimate's field in ``state``, "v" or "U", which is
    updated with its exact flag.  A correction queries J at both points (2B
    charges); a reset queries x_t alone, and an unmoved point may query none.
    """
    previous, exact = getattr(state, name), getattr(state, f"{name}_exact")
    J = sample_multiset(rng, problem.n, B)
    full = J.size == problem.n
    if not reset_due and (previous is None or x_prev is None):
        raise ValueError(f"step {state.t} continues an epoch but no previous estimate is set")
    if x_prev is not None and np.array_equal(x_t, x_prev) and (not reset_due or full and exact):
        return previous  # the state holds it already
    if reset_due or full:
        estimate = oracle(problem, x_t, J, counter)
    else:
        estimate = oracle(problem, x_t, J, counter) - oracle(problem, x_prev, J, counter) + previous
    setattr(state, name, estimate)
    setattr(state, f"{name}_exact", full)
    return estimate


def update_gradient_estimator(
    state: EstimatorState,
    problem: FiniteSumProblem,
    x_t: np.ndarray,
    x_prev: np.ndarray | None,
    B: int,
    rng: np.random.Generator,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Advance the gradient recursion at the current state clock; returns v_t."""
    return _recursive_update(
        state, "v", problem, x_t, x_prev, B, rng, counter, state.grad_reset_due, batch_gradient
    )


def update_hessian_estimator(
    state: EstimatorState,
    problem: FiniteSumProblem,
    x_t: np.ndarray,
    x_prev: np.ndarray | None,
    B: int,
    rng: np.random.Generator,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Advance the Hessian recursion at the current state clock; returns U_t."""
    return _recursive_update(
        state, "U", problem, x_t, x_prev, B, rng, counter, state.hess_reset_due, batch_hessian
    )
