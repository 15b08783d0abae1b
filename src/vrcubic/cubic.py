"""Cubic-regularized model m(h) = b.h + h.A[h]/2 + tau/6 ||h||^3 and its solvers.

Four solvers with different oracle requirements:

* solve_exact      -- explicit symmetric A, eigendecomposition, then Newton
                      on the concave secular function in the shift past the
                      bottom eigenvalue, which climbs monotonically to the
                      root; global minimizer including the hard case.
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

from .finite_sum import _check_nonnegative, _check_positive, _check_probability

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
        _check_positive(penalty=self.penalty)
        _check_nonnegative(hess_norm_bound=self.hess_norm_bound)
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
    root = math.sqrt(curv * curv + 2.0 * bnorm / tau)  # r = root - curv solves r^2 + 2 curv r = 2|b|/tau
    radius = 2.0 * bnorm / tau / (curv + root) if curv > 0 else root - curv  # without cancellation
    return -radius / bnorm * model.b


_NEWTON_CAP = 100  # Newton passes per secular solve; 3-4 is typical, 14 the most seen


def solve_exact(model: CubicModel) -> CubicSolution:
    """Global minimizer via eigendecomposition and a monotone secular Newton.

    Writing A = Q diag(e) Q^T and c = Q^T b, the minimizer solves
    (A + lam I) h = -b with lam = tau ||h|| / 2 and A + lam I psd.  With
    floor = max(0, -e_min) and g = e + floor >= 0, it solves for the shift
    delta = lam - floor >= 0, held apart from the floor so that a root within
    an ulp of the pole keeps its digits.  Over the entries where c != 0,
    h = -Q w with w = c / (g + delta), and delta is the root of
    psi = 1 / ||w|| - tau / (2 lam), which is increasing and concave (Moré &
    Sorensen 1983; Cartis, Gould & Toint 2011, section 6): Newton started
    left of the root climbs to it monotonically.  The start is the largest
    delta_i with (floor + delta)(g_i + delta) = tau |c_i| / 2, each a lower
    bound since ||w|| >= |c_i| / (g_i + delta).  Newton stops at the first
    step that does not increase delta; after 100 steps it raises
    BudgetExceededError.  When no c_i != 0 sits on a zero g_i and
    ||c / g|| <= 2 floor / tau (the hard case), or b = 0, lam is the floor
    and a bottom-eigenvector multiple restores ||h|| = 2 lam / tau.
    """
    if not model.is_explicit:
        raise ValueError("exact solver needs an explicit curvature matrix")
    tau = model.penalty
    e, Q = np.linalg.eigh(model.A)
    c = Q.T @ model.b
    floor = max(0.0, -float(e[0]))
    g = e + floor
    nonzero = c != 0.0
    cn, gn = c[nonzero], g[nonzero]
    coeff = np.zeros(model.dim)
    target = 2.0 * floor / tau
    # a c_i != 0 on a zero g_i makes ||w|| infinite at delta = 0: never the hard case
    reg = float(np.linalg.norm(cn / gn)) if gn.all() else math.inf
    if reg <= target:
        coeff[nonzero] = -cn / gn
        u = Q[:, 0]
        if u[np.argmax(np.abs(u))] < 0:
            u = -u  # sign fixed by the largest entry, so the step is reproducible
        h = Q @ coeff + math.sqrt(target**2 - reg**2) * u
    else:
        a = tau * np.abs(cn)
        starts = (a - 2.0 * floor * gn) / (np.sqrt((floor - gn) ** 2 + 2.0 * a) + floor + gn)
        delta = max(0.0, float(np.max(starts)))
        for _ in range(_NEWTON_CAP):
            shifted = gn + delta
            w = cn / shifted
            wnorm = float(np.linalg.norm(w))
            lam = floor + delta
            psi = 1.0 / wnorm - tau / (2.0 * lam)
            dpsi = float(w @ (w / shifted)) / wnorm**3 + tau / (2.0 * lam * lam)
            step = delta - psi / dpsi
            if not step > delta:
                break
            delta = step
        else:
            raise BudgetExceededError(f"secular Newton did not settle in {_NEWTON_CAP} steps")
        coeff[nonzero] = -w
        h = Q @ coeff
    return CubicSolution(h=h, m_value=cubic_function(model, h), lam=tau * float(np.linalg.norm(h)) / 2.0,
                         status="exact")


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

    After step k it yields (alpha, beta, Q): T_k = Q^T A Q as its diagonal alpha
    and off-diagonal beta[:-1], the residual norm beta[-1] = ||A q_k - Q T_k e_k||
    and the orthonormal basis Q (k rows), as views valid until the next step.
    It stops after ``steps`` steps, or once the residual vanishes against T_k
    (the span is invariant under A).  A non-finite product raises
    FloatingPointError before any arithmetic uses it.

    Q holds k d floats after step k.  It grows by a quarter when full, copying
    only the filled rows, so a growth briefly holds about 2.25 k d.
    """
    d = start.size
    cap = min(steps, 16)  # rows held, so a short run stays small
    Q = np.empty((cap + 1, d))
    alpha, beta = np.empty(steps), np.empty(steps)
    Q[0] = start / np.linalg.norm(start)
    for k in range(steps):
        if k == cap:
            cap = min(cap + cap // 4, steps)
            grown = np.empty((cap + 1, d))
            grown[: k + 1] = Q[: k + 1]
            Q = grown
        w = apply(Q[k].copy())  # a copy: an operator may write to its argument
        if not np.isfinite(w).all():
            raise FloatingPointError(f"product {k + 1} is not finite")
        alpha[k] = Q[k] @ w
        for _ in range(2):  # classical Gram-Schmidt twice keeps the basis orthonormal
            w = w - (Q[: k + 1] @ w) @ Q[: k + 1]
        beta[k] = np.linalg.norm(w)
        yield alpha[: k + 1], beta[: k + 1], Q[: k + 1]
        scale = max(float(np.max(np.abs(alpha[: k + 1]))), float(np.max(beta[:k], initial=0.0)))
        if beta[k] <= 1e-12 * scale:
            return
        Q[k + 1] = w / beta[k]


def _tridiagonal(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """T_k from the alpha and beta that _lanczos yields after step k.

    One k x k array; each band is written "+ 0.0", which turns -0.0 into 0.0
    as adding the zero bands of the other two would.
    """
    k = alpha.size
    T = np.zeros((k, k))
    T.flat[:: k + 1] = alpha + 0.0
    T.flat[1 :: k + 1] = T.flat[k :: k + 1] = beta[:-1] + 0.0
    return T


def _krylov_run(model: CubicModel, b: np.ndarray, steps: int, grad_tol, target):
    """Up to ``steps`` Lanczos steps on the model with linear term b; returns
    (h, m, residual, k).

    Step k minimizes the model over the Krylov span of b by solve_exact on the
    k x k tridiagonal (in closed form at k = 1); ||grad|| at the lifted step
    h = Q^T y is beta_k |y_k|.  m is the value of ``model`` itself (its own b)
    at h: the tridiagonal model's value at y, plus (model.b - b) . h, which is
    zero for a run from model.b.  Stops once m <= target or the residual
    <= grad_tol.  b = 0 takes no step.
    """
    bnorm = float(np.linalg.norm(b))
    h, m, residual, k = np.zeros(model.dim), 0.0, bnorm, 0
    if bnorm == 0.0:
        return h, m, residual, k
    for alpha, beta, Q in _lanczos(model.apply, b, steps):
        k = alpha.size
        T = _tridiagonal(alpha, beta)
        e1 = np.zeros(k)
        e1[0] = bnorm
        small = CubicModel(b=e1, A=T, penalty=model.penalty, hess_norm_bound=model.hess_norm_bound)
        # a 1-D model's minimizer is its Cauchy point, in closed form
        y = cauchy_point(small) if k == 1 else solve_exact(small).h
        residual = float(beta[-1] * abs(y[-1]))
        h = y @ Q
        m = cubic_function(small, y) + float((model.b - b) @ h)
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
    better of the two steps on the true model is returned, with its true model
    value read from the k x k tridiagonal model; Lanczos holds k d floats.

    A grad_tol that is not reached (unless the target was) raises
    BudgetExceededError with the residual; a non-finite product or an overflow
    raises SolverDivergenceError.
    """
    if grad_tol is None and target is None:
        raise ValueError("cubic_krylov needs a grad_tol or a target")
    if grad_tol is not None:
        _check_positive(grad_tol=grad_tol)
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
    _check_probability(eps_quality=eps_quality, fail_prob=fail_prob)
    _check_positive(eta=eta, zeta=zeta)

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
    _check_positive(grad_tol=grad_tol)

    x, k = _descend(model, model.b, eta, cauchy_point(model), max_iters + 1,
                    lambda k, x, Ax, grad: float(np.linalg.norm(grad)) <= grad_tol, "finalsolver")
    if k > max_iters:
        raise BudgetExceededError(
            f"cubic finalsolver exceeded {max_iters} iterations without reaching "
            f"gradient tolerance {grad_tol}"
        )
    return CubicSolution(h=x, m_value=cubic_function(model, x), lam=None, status="finalsolver",
                         iterations=k)
