"""Cubic-regularized model m(h) = b.h + h.A[h]/2 + tau/6 ||h||^3 and its solvers.

Four solvers with different oracle requirements:

* solve_exact      -- explicit symmetric A, eigendecomposition + secular
                      root finding, global minimizer including the hard case.
* cubic_krylov     -- A available only through matrix-vector products.
                      Lanczos from b with full reorthogonalization; step k
                      minimizes the model over the k-dimensional Krylov span
                      with solve_exact on the tridiagonal.  It stops at a
                      value target or a gradient-norm tolerance, and restarts
                      once from a perturbed b when its first step (the Cauchy
                      point) misses the target.  The Hessian-free driver's
                      solver (Carmon & Duchi, NeurIPS 2018).
* cubic_subsolver  -- matvec-only reference solver of the paper: Cauchy-point
                      test, then perturbed gradient descent with a fixed
                      iteration budget; aims for a target decrease, not for
                      the exact minimizer.
* cubic_finalsolver-- matvec-only reference polisher of the paper: gradient
                      descent on the unperturbed model down to a
                      gradient-norm tolerance.

The gradient solvers share one descent loop (_descend); all matvec solvers
share one value and one gradient formula and one perturbation of b.
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
    "cubic_krylov",
    "cubic_subsolver",
    "cubic_finalsolver",
]


class SolverDivergenceError(RuntimeError):
    """A descent iterate or a Lanczos product overflowed or became non-finite."""


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
    # "exact" | "krylov" | "krylov-perturbed" | "subsolver-early-exit" | "subsolver-iterated"
    # | "finalsolver"
    status: str
    iterations: int = 0  # gradient steps, or Lanczos steps (one product each)


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


def _perturbed(model: CubicModel, zeta: float, eps_quality: float, rng: np.random.Generator) -> np.ndarray:
    """b plus the subsolver's one random perturbation: a uniform direction of norm
    eps_quality tau^2 zeta^3 / (576 (beta + tau zeta)), small enough to barely move
    the model value, large enough to put weight on the bottom eigenvector."""
    tau = model.penalty
    sigma = eps_quality * tau**2 * zeta**3 / (576.0 * (model.hess_norm_bound + tau * zeta))
    q = rng.standard_normal(model.dim)
    q /= np.linalg.norm(q)
    return model.b + sigma * q


def _lanczos(apply: Callable[[np.ndarray], np.ndarray], start: np.ndarray, steps: int):
    """Lanczos with full reorthogonalization from ``start``, one product per step.

    After step k it yields (alpha, beta, Q, AQ): the tridiagonal T_k = Q^T A Q as
    its diagonal alpha and off-diagonal beta[:-1], the residual norm
    beta[-1] = ||A q_k - Q T_k e_k||, the orthonormal basis Q (k rows) and the
    products AQ = (A q_j) (k rows).  The arrays are views, valid until the next
    step.  It stops after ``steps`` steps, or once the residual vanishes against
    T_k (the span is invariant under A).  A non-finite product raises
    FloatingPointError before any arithmetic uses it.

    Q and AQ hold 2 k d floats after step k.  Their capacity grows by a quarter
    when full, one array at a time, by copying only the filled rows; the rows
    not yet written are not touched, so a growth briefly holds about 3 k d.
    """
    d = start.size
    cap = min(steps, 16)  # rows held, so a short run stays small
    Q, AQ = np.empty((cap + 1, d)), np.empty((cap, d))
    alpha, beta = np.empty(steps), np.empty(steps)
    Q[0] = start / np.linalg.norm(start)
    for k in range(steps):
        if k == cap:
            cap = min(cap + cap // 4, steps)
            Q = _grown(Q, k + 1, cap + 1)
            AQ = _grown(AQ, k, cap)
        w = apply(Q[k].copy())  # a copy: an operator may write to its argument
        if not np.isfinite(w).all():
            raise FloatingPointError(f"product {k + 1} is not finite")
        AQ[k] = w
        alpha[k] = Q[k] @ w
        for _ in range(2):  # classical Gram-Schmidt twice keeps the basis orthonormal
            w = w - (Q[: k + 1] @ w) @ Q[: k + 1]
        beta[k] = np.linalg.norm(w)
        yield alpha[: k + 1], beta[: k + 1], Q[: k + 1], AQ[: k + 1]
        scale = max(float(np.max(np.abs(alpha[: k + 1]))), float(np.max(beta[:k], initial=0.0)))
        if beta[k] <= 1e-12 * scale:
            return
        Q[k + 1] = w / beta[k]


def _grown(rows: np.ndarray, filled: int, cap: int) -> np.ndarray:
    """A new array of cap rows whose first ``filled`` are those of ``rows``."""
    grown = np.empty((cap, rows.shape[1]))
    grown[:filled] = rows[:filled]
    return grown


def _tridiagonal(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """T_k from the alpha and beta that _lanczos yields after step k."""
    return np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)


def _krylov_run(model: CubicModel, b: np.ndarray, steps: int, grad_tol, target):
    """Up to ``steps`` Lanczos steps on the model with linear term b; returns
    (h, m, residual, k).

    Step k minimizes the model over the Krylov span of b by solve_exact on the
    k x k tridiagonal (in closed form at k = 1); ||grad|| at the lifted step
    h = Q^T y is beta_k |y_k|.  m is the value of ``model`` itself (its own b)
    at h, read from the stored products.  Stops once m <= target or the
    residual <= grad_tol.  b = 0 takes no step.
    """
    tau = model.penalty
    bnorm = float(np.linalg.norm(b))
    h, m, residual, k = np.zeros(model.dim), 0.0, bnorm, 0
    if bnorm == 0.0:
        return h, m, residual, k
    for alpha, beta, Q, AQ in _lanczos(model.apply, b, steps):
        k = alpha.size
        T = _tridiagonal(alpha, beta)
        e1 = np.zeros(k)
        e1[0] = bnorm
        small = CubicModel(b=e1, A=T, penalty=tau, hess_norm_bound=model.hess_norm_bound)
        # a 1-D model's minimizer is its Cauchy point, in closed form
        y = cauchy_point(small) if k == 1 else solve_exact(small).h
        residual = float(beta[-1] * abs(y[-1]))
        h = y @ Q
        m = _value(tau, model.b, h, y @ AQ)
        if (target is not None and m <= target) or (grad_tol is not None and residual <= grad_tol):
            break
    return h, m, residual, k


def cubic_krylov(
    model: CubicModel,
    grad_tol: float | None = None,
    target: float | None = None,
    max_iters: int | None = None,
    rng: np.random.Generator | None = None,
) -> CubicSolution:
    """Krylov-subspace (Lanczos) solve needing only products A @ v, one per step.

    Step k minimizes the model over the span of b, Ab, ..., A^{k-1} b, so step 1
    is the Cauchy point.  Stops at the first of: the model value reaches
    ``target``, ||grad m|| reaches ``grad_tol``, the span is invariant, or
    min(dim, max_iters) steps (at least one) are done.  With ``rng`` and a
    target, the run from b stops after step 1; if that misses the target, one
    perturbation of b is drawn as cubic_subsolver draws it (quality 1/2, its
    radius zeta from target = -tau zeta^3 / 24) and the Lanczos run restarts from
    the perturbed b, which reaches the bottom eigenvector in the hard case.  The
    better of the two steps on the true model is returned.  The reported value
    is the true model value, taken from the stored products.

    A grad_tol that is not reached (unless the target was) raises
    BudgetExceededError with the residual; a non-finite product or an overflow
    raises SolverDivergenceError.
    """
    if grad_tol is None and target is None:
        raise ValueError("cubic_krylov needs a grad_tol or a target")
    if grad_tol is not None and not grad_tol > 0:
        raise ValueError("grad_tol must be positive")
    steps = model.dim if max_iters is None else max(1, min(model.dim, max_iters))
    perturb = rng is not None and target is not None
    status, start = "krylov", "b"
    try:
        with np.errstate(over="raise", invalid="raise"):
            h, m, residual, products = _krylov_run(model, model.b, 1 if perturb else steps,
                                                   grad_tol, target)
            if perturb and not m <= target:
                zeta = (-24.0 * target / model.penalty) ** (1.0 / 3.0)
                status, start = "krylov-perturbed", "the perturbed b"
                hp, mp, rp, kp = _krylov_run(model, _perturbed(model, zeta, 0.5, rng), steps,
                                             grad_tol, target)
                products += kp
                if mp <= m:
                    h, m, residual = hp, mp, rp
    except FloatingPointError as exc:
        raise SolverDivergenceError(f"cubic krylov diverged in the Lanczos run from {start}: {exc}") from exc
    reached = (target is not None and m <= target) or (grad_tol is not None and residual <= grad_tol)
    if grad_tol is not None and not reached:
        raise BudgetExceededError(
            f"cubic krylov stopped after {products} Lanczos steps with model gradient norm "
            f"{residual:.3e} above tolerance {grad_tol}"
        )
    return CubicSolution(h=h, m_value=m, lam=None, status=status, iterations=products)


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

    b_pert = _perturbed(model, zeta, eps_quality, rng)

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
