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
    """An iterate became non-finite."""


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


def cubic_function(model: CubicModel, h: np.ndarray) -> float:
    hn = np.linalg.norm(h)
    return float(model.b @ h + 0.5 * h @ model.apply(h) + model.penalty / 6.0 * hn**3)


def cubic_gradient(model: CubicModel, h: np.ndarray) -> np.ndarray:
    return model.b + model.apply(h) + (model.penalty / 2.0) * np.linalg.norm(h) * h


def cauchy_point(model: CubicModel) -> np.ndarray:
    """Minimizer of the model along -b; zero vector when b = 0."""
    bnorm = np.linalg.norm(model.b)
    if bnorm == 0.0:
        return np.zeros(model.dim)
    tau = model.penalty
    curv = float(model.b @ model.apply(model.b)) / (tau * bnorm**2)
    radius = -curv + math.sqrt(curv * curv + 2.0 * bnorm / tau)
    return -radius / bnorm * model.b


def _value_from_product(model, b, x, Ax) -> float:
    # model value at x reusing an already computed product A @ x
    hn = np.linalg.norm(x)
    return float(b @ x + 0.5 * x @ Ax + model.penalty / 6.0 * hn**3)


def solve_exact(model: CubicModel, tol: float = 1e-12) -> CubicSolution:
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

    if bnorm == 0.0 and lam_min >= 0.0:
        return finish(np.zeros(d))

    c_eff = c
    if degenerate_b:
        c_eff = c.copy()
        c_eff[bottom] = 0.0

    def phi(lam: float) -> float:
        denom = eigvals + lam
        return float(np.sqrt(np.sum((c_eff / denom) ** 2)) - 2.0 * lam / tau)

    if lam_min < 0.0 and degenerate_b:
        # possible degenerate case: secular value at the floor decides
        denom = eigvals + lam_floor
        safe = ~bottom
        norm_floor = float(np.sqrt(np.sum((c_eff[safe] / denom[safe]) ** 2)))
        target = 2.0 * lam_floor / tau
        if norm_floor < target:
            coeff = np.zeros(d)
            coeff[safe] = -c_eff[safe] / denom[safe]
            sigma = math.sqrt(max(target**2 - norm_floor**2, 0.0))
            u = Q[:, 0]
            k = int(np.argmax(np.abs(u)))
            if u[k] < 0:
                u = -u
            return finish(Q @ coeff + sigma * u)

    # root bracket: phi -> +inf (or is positive) at the floor, -inf at infinity
    lo = lam_floor
    hi = max(2.0 * lam_floor, lam_floor + tau * bnorm / 2.0, 1.0)
    for _ in range(200):
        if phi(hi) < 0.0:
            break
        hi = 2.0 * hi + 1.0
    else:
        raise RuntimeError("secular root bracket did not close")

    ftol = tol * (1.0 + bnorm)
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

    if abs(phi(lam)) > ftol and lam_min < 0.0:
        # pole-adjacent root that float resolution cannot pin down: treat the
        # tiny bottom component as zero and restore the norm equation with a
        # bottom-eigenvector multiple
        safe = ~bottom
        coeff = np.zeros(d)
        coeff[safe] = -c[safe] / (eigvals[safe] + lam)
        reg_norm = float(np.linalg.norm(coeff))
        target = 2.0 * lam / tau
        if reg_norm < target:
            sigma = math.sqrt(target**2 - reg_norm**2)
            u = Q[:, 0]
            k = int(np.argmax(np.abs(u)))
            if u[k] < 0:
                u = -u
            return finish(Q @ coeff + sigma * u)

    h = Q @ (-c_eff / (eigvals + lam))
    return finish(h)


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

    x = xc.copy()
    steps = 0
    for k in range(budget):
        Ax = model.apply(x)
        if k > 0:
            if _value_from_product(model, b_pert, x, Ax) <= target:
                break
        grad = b_pert + Ax + (tau / 2.0) * np.linalg.norm(x) * x
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-13 * (1.0 + float(np.linalg.norm(b_pert))):
            break  # numerically stationary: further steps cannot move x
        x = x - eta * grad
        steps = k + 1
        if not np.all(np.isfinite(x)):
            raise SolverDivergenceError(f"cubic subsolver diverged at gradient step {steps}")

    m_final = cubic_function(model, x)
    if m_final <= mc:
        return CubicSolution(h=x, m_value=m_final, lam=None, status="subsolver-iterated", iterations=steps)
    return CubicSolution(h=xc, m_value=mc, lam=None, status="subsolver-iterated", iterations=steps)


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

    x = cauchy_point(model)
    for k in range(max_iters + 1):
        grad = cubic_gradient(model, x)
        if float(np.linalg.norm(grad)) <= grad_tol:
            return CubicSolution(
                h=x,
                m_value=cubic_function(model, x),
                lam=None,
                status="finalsolver",
                iterations=k,
            )
        x = x - eta * grad
        if not np.all(np.isfinite(x)):
            raise SolverDivergenceError(f"cubic finalsolver diverged at gradient step {k + 1}")
    raise BudgetExceededError(
        f"cubic finalsolver exceeded {max_iters} iterations without reaching "
        f"gradient tolerance {grad_tol}"
    )
