"""Recursive variance-reduced gradient/Hessian estimators and batch-size rules.

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

Two schedules are provided.  "theoretical" sizes batches from the problem
constants (L, rho, M), the target accuracy and the failure probability, and
shrinks the correction batches with the squared length of the previous step.
"practical" uses user-fixed sizes B at epoch boundaries and B/S in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_sum import (FiniteSumProblem, OracleCounter, _check_integer, batch_gradient,
                         batch_hessian, sample_multiset)

__all__ = [
    "EstimatorState",
    "TheoreticalBatchRule",
    "PracticalBatchRule",
    "default_epochs",
    "theoretical_batch_g",
    "theoretical_batch_h",
    "practical_batch",
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
class TheoreticalBatchRule:
    """Batch sizes driven by problem constants at accuracy eps.

    ``variant`` selects the constant family: "srvrc" for the recursive
    gradient + recursive Hessian scheme, "srvrc_free" for the recursive
    gradient + per-step Hessian-vector closure scheme (whose Hessian batch
    is step-independent).  ``grad_bound`` may be np.inf, in which case epoch
    resets fall back to the full batch.  A run derives its rule from its
    problem and SolverConfig; the rule is not a setting.
    """

    n: int
    dim: int
    eps: float
    xi: float
    T: int
    lipschitz_grad: float
    lipschitz_hess: float
    grad_bound: float
    S_g: int
    S_h: int
    variant: str = "srvrc"

    def __post_init__(self):
        if self.variant not in _RULE_CONSTANTS:
            raise ValueError(f"unknown batch-rule variant {self.variant!r}")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if self.S_g < 1 or self.S_h < 1:
            raise ValueError("epoch lengths must be >= 1")


@dataclass(frozen=True)
class PracticalBatchRule:
    """Fixed base sizes: (B_g, B_h) at epoch boundaries, floor(B/S) between."""

    B_g: int
    B_h: int
    S: int

    def __post_init__(self):
        for name in ("B_g", "B_h", "S"):
            _check_integer(name, getattr(self, name))
        if self.B_g < 1 or self.B_h < 1 or self.S < 1:
            raise ValueError("batch sizes and epoch length must be >= 1")


def _clamp_ceil(raw: float, n: int) -> int:
    if not math.isfinite(raw):
        return n
    return max(1, min(n, math.ceil(raw)))


def default_epochs(
    n: int, eps: float, lipschitz_grad: float, lipschitz_hess: float, grad_bound: float
) -> tuple[int, int]:
    """Epoch lengths balancing reset cost against correction cost.

    S_g = sqrt(rho*eps)/L * sqrt(min(n, M^2/eps^2)) and
    S_h = sqrt(min(n, L/(rho*eps))), both rounded up to at least 1.
    """
    L, rho, M = lipschitz_grad, lipschitz_hess, grad_bound
    eff_g = n if not math.isfinite(M) else min(n, M * M / (eps * eps))
    s_g = math.sqrt(rho * eps) / L * math.sqrt(eff_g)
    s_h = math.sqrt(min(n, L / (rho * eps)))
    return max(1, math.ceil(s_g)), max(1, math.ceil(s_h))


def theoretical_batch_g(
    rule: TheoreticalBatchRule, t: int, h_prev_norm: float | None = None
) -> int:
    """Gradient batch size at step t; needs the previous step length off-epoch."""
    cg, _, tmul = _RULE_CONSTANTS[rule.variant]
    log2 = math.log(tmul * rule.T / rule.xi) ** 2
    if t % rule.S_g == 0:
        if not math.isfinite(rule.grad_bound):
            return rule.n
        raw = cg * rule.grad_bound**2 * log2 / rule.eps**2
        return _clamp_ceil(raw, rule.n)
    if h_prev_norm is None:
        raise ValueError(f"step {t} is not an epoch reset: previous step length required")
    raw = cg * rule.lipschitz_grad**2 * rule.S_g * h_prev_norm**2 * log2 / rule.eps**2
    return _clamp_ceil(raw, rule.n)


def theoretical_batch_h(
    rule: TheoreticalBatchRule, t: int, h_prev_norm: float | None = None
) -> int:
    """Hessian (or Hessian-vector) batch size at step t.

    For the "srvrc_free" family the size is the same at every step; for
    "srvrc" it follows the reset/correction split like the gradient rule.
    """
    _, ch, tmul = _RULE_CONSTANTS[rule.variant]
    L, rho = rule.lipschitz_grad, rule.lipschitz_hess
    log2 = math.log(tmul * rule.T * rule.dim / rule.xi) ** 2
    if rule.variant == "srvrc_free" or t % rule.S_h == 0:
        raw = ch * L * L * log2 / (rho * rule.eps)
        return _clamp_ceil(raw, rule.n)
    if h_prev_norm is None:
        raise ValueError(f"step {t} is not an epoch reset: previous step length required")
    raw = ch * rho * rule.S_h * h_prev_norm**2 * log2 / rule.eps
    return _clamp_ceil(raw, rule.n)


def practical_batch(rule: PracticalBatchRule, t: int) -> tuple[int, int]:
    """(gradient, Hessian) sizes at step t under the fixed practical schedule."""
    if t % rule.S == 0:
        return rule.B_g, rule.B_h
    return max(1, rule.B_g // rule.S), max(1, rule.B_h // rule.S)


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
