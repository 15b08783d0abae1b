"""Cubic-regularized model m(h) = b.h + h.A[h]/2 + tau/6 ||h||^3 and its solvers.

Three solvers with different oracle requirements:

* solve_exact      -- explicit symmetric A, eigendecomposition + secular
                      root finding, global minimizer including the hard case.
* cubic_subsolver  -- A available only through matrix-vector products.
                      Cauchy-point test, then perturbed gradient descent with
                      a fixed iteration budget; aims for a target decrease,
                      not for the exact minimizer.
* cubic_finalsolver-- gradient descent on the unperturbed model down to a
                      gradient-norm tolerance, used to polish a last step.

The matvec solvers share one descent loop (_descend) and one value and one
gradient formula; they differ only in linear term, iteration limit and stop rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CubicModel",
    "CubicSolution",
    "SolverDivergenceError",
    "BudgetExceededError",
    "cubic_function",
    "cubic_gradient",
    "cauchy_point",
    "solve_exact",
    "cubic_subsolver",
    "cubic_finalsolver",
]


class SolverDivergenceError(RuntimeError):
    """A descent iterate overflowed or became non-finite."""


class BudgetExceededError(RuntimeError):
    """An iteration cap was reached before the convergence test passed."""


@dataclass
class CubicModel:
    """Model data: linear term b, curvature A (matrix or matvec), penalty tau.

    ``hess_norm_bound`` is an upper bound on ||A||_2, needed by the matvec
    solvers for step-size preconditions and perturbation scaling.
    """

    b: np.ndarray
    A: np.ndarray | Callable[[np.ndarray], np.ndarray]
    penalty: float
    hess_norm_bound: float

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim != 1:
            raise ValueError("linear term b must be a vector")
        if not self.penalty > 0:
            raise ValueError(f"penalty must be positive, got {self.penalty}")
        if self.hess_norm_bound < 0:
            raise ValueError("hess_norm_bound must be nonnegative")
        if self.is_explicit:
            A = np.asarray(self.A, dtype=float)
            if A.shape != (self.b.size, self.b.size):
                raise ValueError(f"A has shape {A.shape}, expected square of dim {self.b.size}")
            self.A = A

    @property
    def is_explicit(self) -> bool:
        return not callable(self.A)

    @property
    def dim(self) -> int:
        return self.b.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.is_explicit:
            return self.A @ v
        return np.asarray(self.A(v), dtype=float)


@dataclass
class CubicSolution:
    """Solver output: step h, its model value, multiplier (exact path only)."""

    h: np.ndarray
    m_value: float
    lam: float | None
    status: str  # "exact" | "subsolver-early-exit" | "subsolver-iterated" | "finalsolver"
    iterations: int = 0


# value and gradient at h of the model with linear term b, from the product Ah = A @ h
def _value(tau: float, b: np.ndarray, h: np.ndarray, Ah: np.ndarray) -> float:
    return float(b @ h + 0.5 * h @ Ah + tau / 6.0 * np.linalg.norm(h) ** 3)


def _gradient(tau: float, b: np.ndarray, h: np.ndarray, Ah: np.ndarray) -> np.ndarray:
    return b + Ah + (tau / 2.0) * np.linalg.norm(h) * h


def cubic_function(model: CubicModel, h: np.ndarray) -> float:
    return _value(model.penalty, model.b, h, model.apply(h))


def cubic_gradient(model: CubicModel, h: np.ndarray) -> np.ndarray:
    return _gradient(model.penalty, model.b, h, model.apply(h))


def cauchy_point(model: CubicModel) -> np.ndarray:
    """Minimizer of the model along -b; zero vector when b = 0."""
    bnorm = np.linalg.norm(model.b)
    if bnorm == 0.0:
        return np.zeros(model.dim)
    tau = model.penalty
    curv = float(model.b @ model.apply(model.b)) / (tau * bnorm**2)
    radius = -curv + math.sqrt(curv * curv + 2.0 * bnorm / tau)
    return -radius / bnorm * model.b


def solve_exact(model: CubicModel) -> CubicSolution:
    """Global minimizer via eigendecomposition and secular root finding.

    Writing A = Q diag(e) Q^T and c = Q^T b, the minimizer solves
    (A + lam I) h = -b with lam = tau ||h|| / 2 and A + lam I psd, i.e. the
    scalar root of phi(lam) = ||(e + lam)^{-1} c|| - 2 lam / tau on
    (max(0, -e_min), inf).  When b has (numerically) no component on the
    bottom eigenspace and phi stays negative there, the degenerate case is
    resolved by adding a bottom-eigenvector multiple that restores
    ||h|| = 2 lam / tau.
    """
    if not model.is_explicit:
        raise ValueError("exact solver needs an explicit curvature matrix")
    d = model.dim
    tau = model.penalty
    eigvals, Q = np.linalg.eigh(model.A)
    c = Q.T @ model.b
    bnorm = float(np.linalg.norm(model.b))
    lam_min = float(eigvals[0])
    lam_floor = max(0.0, -lam_min)

    spread = max(1.0, float(np.max(np.abs(eigvals))))
    bottom = eigvals <= lam_min + 1e-12 * spread
    safe = ~bottom
    c_bottom = float(np.linalg.norm(c[bottom]))
    degenerate_b = c_bottom < 1e-12 * bnorm or bnorm == 0.0

    def finish(h: np.ndarray) -> CubicSolution:
        hn = float(np.linalg.norm(h))
        return CubicSolution(
            h=h,
            m_value=cubic_function(model, h),
            lam=tau * hn / 2.0,
            status="exact",
        )

    def hard_case(lam: float) -> CubicSolution | None:
        # zero the bottom component of c; a bottom-eigenvector multiple restores ||h|| = 2 lam / tau
        coeff = np.zeros(d)
        coeff[safe] = -c[safe] / (eigvals[safe] + lam)
        reg_norm = float(np.sqrt(np.sum(coeff[safe] ** 2)))
        target = 2.0 * lam / tau
        if reg_norm < target:
            u = Q[:, 0]
            if u[np.argmax(np.abs(u))] < 0:
                u = -u  # sign fixed by the largest entry, so the step is reproducible
            return finish(Q @ coeff + math.sqrt(target**2 - reg_norm**2) * u)
        return None

    if bnorm == 0.0 and lam_min >= 0.0:
        return finish(np.zeros(d))

    c_eff = c
    if degenerate_b:
        c_eff = c.copy()
        c_eff[bottom] = 0.0

    def phi(lam: float) -> float:
        denom = eigvals + lam
        return float(np.sqrt(np.sum((c_eff / denom) ** 2)) - 2.0 * lam / tau)

    # possible degenerate case: secular value at the floor decides
    if lam_min < 0.0 and degenerate_b and (solution := hard_case(lam_floor)):
        return solution

    # lam may land on a pole, where c_eff's zero bottom entry makes phi 0/0 = nan:
    # that is an unresolved root, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        # root bracket: phi -> +inf (or is positive) at the floor, -inf at infinity
        lo = lam_floor
        hi = max(2.0 * lam_floor, lam_floor + tau * bnorm / 2.0, 1.0)
        for _ in range(200):
            if phi(hi) < 0.0:
                break
            hi = 2.0 * hi + 1.0
        else:
            raise RuntimeError("secular root bracket did not close")

        ftol = 1e-12 * (1.0 + bnorm)
        lam = 0.5 * (lo + hi)
        for _ in range(300):
            val = phi(lam)
            if abs(val) <= ftol:
                break
            if val > 0.0:
                lo = lam
            else:
                hi = lam
            denom = eigvals + lam
            norm_val = float(np.sqrt(np.sum((c_eff / denom) ** 2)))
            if norm_val > 0.0:
                dval = -float(np.sum(c_eff**2 / denom**3)) / norm_val - 2.0 / tau
                step = lam - val / dval
            else:
                step = math.inf
            lam = step if lo < step < hi else 0.5 * (lo + hi)
            if hi - lo <= 1e-17 * max(1.0, lam):
                break

        # pole-adjacent root that float resolution cannot pin down: treat the tiny
        # bottom component as zero, as in the degenerate case
        if not abs(phi(lam)) <= ftol and lam_min < 0.0 and (solution := hard_case(lam)):
            return solution

    h = Q @ (-c_eff / (eigvals + lam))
    return finish(h)


def _descend(model, b, eta, x, limit, done, name):
    """Up to ``limit`` gradient steps from x on the model with linear term b; returns
    (x, steps taken), where ``done(k, x, A @ x, grad)`` may stop before step k + 1.
    Overflow or a non-finite iterate is divergence at that step, never a warning.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(limit):
                Ax = model.apply(x)
                grad = _gradient(model.penalty, b, x, Ax)
                if done(k, x, Ax, grad):
                    return x, k
                x = x - eta * grad
                if not np.all(np.isfinite(x)):
                    raise FloatingPointError("non-finite iterate")
    except FloatingPointError as exc:
        raise SolverDivergenceError(f"cubic {name} diverged at gradient step {k + 1}") from exc
    return x, limit


def cubic_subsolver(
    model: CubicModel,
    eta: float,
    zeta: float,
    eps_quality: float,
    fail_prob: float,
    rng: np.random.Generator,
    max_iters: int | None = None,
) -> CubicSolution:
    """Budgeted approximate solver needing only products A @ v.

    First tries the Cauchy point against the decrease target
    -(1 - eps_quality) * tau * zeta^3 / 12.  Failing that, runs gradient
    descent on a slightly perturbed model (perturbation scaled so the true
    model value is barely affected), stopping early once the perturbed value
    passes the target.  Returns the better of the final iterate and the
    Cauchy point measured on the true model, so the reported value is the
    true model value and never positive.
    """
    if not 0.0 < eps_quality < 1.0:
        raise ValueError("eps_quality must lie in (0, 1)")
    if not 0.0 < fail_prob < 1.0:
        raise ValueError("fail_prob must lie in (0, 1)")
    if not eta > 0 or not zeta > 0:
        raise ValueError("eta and zeta must be positive")

    tau = model.penalty
    beta = model.hess_norm_bound
    d = model.dim
    target = -(1.0 - eps_quality) * tau * zeta**3 / 12.0

    xc = cauchy_point(model)
    mc = cubic_function(model, xc)
    if mc <= target:
        return CubicSolution(h=xc, m_value=mc, lam=None, status="subsolver-early-exit")

    scale = eta * tau * zeta * eps_quality
    budget = math.ceil(
        480.0 / scale * (6.0 * math.log1p(math.sqrt(d) / fail_prob) + 32.0 * math.log(12.0 / scale))
    )
    if max_iters is not None:
        budget = min(budget, max_iters)

    sigma = eps_quality * tau**2 * zeta**3 / (576.0 * (beta + tau * zeta))
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    b_pert = model.b + sigma * q

    def done(k, x, Ax, grad) -> bool:
        # the perturbed value passes the target, or x is numerically stationary
        if k > 0 and _value(tau, b_pert, x, Ax) <= target:
            return True
        return float(np.linalg.norm(grad)) <= 1e-13 * (1.0 + float(np.linalg.norm(b_pert)))

    x, steps = _descend(model, b_pert, eta, xc, budget, done, "subsolver")
    m_final = cubic_function(model, x)
    h, m_value = (x, m_final) if m_final <= mc else (xc, mc)
    return CubicSolution(h=h, m_value=m_value, lam=None, status="subsolver-iterated", iterations=steps)


def cubic_finalsolver(
    model: CubicModel,
    eta: float,
    grad_tol: float,
    max_iters: int = 10**6,
) -> CubicSolution:
    """Plain gradient descent from the Cauchy point down to ||grad m|| <= grad_tol.

    The step size must satisfy eta < 1 / (4 (beta + tau R)) with
    R = beta/(2 tau) + sqrt(beta^2/(4 tau^2) + ||b||/tau), which dominates
    the norm of any minimizer; larger steps are rejected up front.
    """
    tau = model.penalty
    beta = model.hess_norm_bound
    bnorm = float(np.linalg.norm(model.b))
    radius = beta / (2.0 * tau) + math.sqrt((beta / (2.0 * tau)) ** 2 + bnorm / tau)
    limit = 1.0 / (4.0 * (beta + tau * radius))
    if not 0.0 < eta < limit:
        raise ValueError(
            f"step size {eta} violates the descent precondition (needs eta < {limit:.3e})"
        )
    if not grad_tol > 0:
        raise ValueError("grad_tol must be positive")

    x, k = _descend(model, model.b, eta, cauchy_point(model), max_iters + 1,
                    lambda k, x, Ax, grad: float(np.linalg.norm(grad)) <= grad_tol, "finalsolver")
    if k > max_iters:
        raise BudgetExceededError(
            f"cubic finalsolver exceeded {max_iters} iterations without reaching "
            f"gradient tolerance {grad_tol}"
        )
    return CubicSolution(h=x, m_value=cubic_function(model, x), lam=None, status="finalsolver",
                         iterations=k)
