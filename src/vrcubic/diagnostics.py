"""Certification of approximate second-order stationarity.

The quality measure for a point x is

    mu(x) = max( ||grad F(x)||^{3/2},  max(0, -lambda_min(hess F(x)))^3 / rho^{3/2} )

so mu(x) <= eps^{3/2} exactly when the gradient is eps-small and the Hessian
has no eigenvalue below -sqrt(rho * eps).  Only negative curvature enters the
second term; a strongly convex Hessian contributes zero regardless of scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import _lanczos, _tridiagonal
from .finite_sum import (
    FiniteSumProblem,
    OracleCounter,
    _check_positive,
    batch_gradient,
    batch_hessian,
    batch_hvp,
    batch_value,
    full_index,
)

__all__ = [
    "LocalMinCertificate",
    "min_eigenvalue",
    "mu_criterion",
    "certify_local_min",
    "finite_diff_grad_check",
]


@dataclass(frozen=True)
class LocalMinCertificate:
    grad_norm: float
    lambda_min: float
    mu: float
    eps_g: float
    eps_H: float


def min_eigenvalue(H: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, by dense eigendecomposition.

    Only problems within ``DENSE_LIMIT`` dimensions have a Hessian to pass
    here; larger ones are measured by Lanczos on Hessian-vector products.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("matrix is not finite")
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if not np.allclose(H, H.T, atol=1e-8 * (1.0 + scale)):
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])


def _lambda_min_via_hvp(problem: FiniteSumProblem, x: np.ndarray, counter: OracleCounter) -> float:
    """Smallest eigenvalue of the full-batch Hessian, by ``cubic._lanczos``.

    Seeded start default_rng(0).standard_normal(d), at most d products, k d floats
    at step k for the basis (about 2.25 k d while it grows).  Every ceil(k/8) steps T_k's
    smallest Ritz value is returned once its residual beta_k |s_k| is at most
    1e-10 times the largest |Ritz value|.  A non-finite product raises FloatingPointError.
    """
    hvp = batch_hvp(problem, x, full_index(problem), counter)
    d, check = problem.dim, 1
    for alpha, beta, _ in _lanczos(hvp, np.random.default_rng(0).standard_normal(d), d):
        if alpha.size == check < d:
            vals, vecs = np.linalg.eigh(_tridiagonal(alpha, beta))
            if beta[-1] * abs(vecs[-1, 0]) <= 1e-10 * np.abs(vals).max():
                return float(vals[0])
            check += math.ceil(check / 8)
    # step d, or an invariant span: T_k's eigenvalues are then exact
    return float(np.linalg.eigvalsh(_tridiagonal(alpha, beta))[0])


def _mu_parts(
    problem: FiniteSumProblem,
    x: np.ndarray,
    rho: float,
    counter: OracleCounter,
) -> tuple[float, float, float]:
    """(mu, grad_norm, lambda_min) at x, using full-batch oracles."""
    _check_positive(rho=rho)
    x = np.asarray(x, dtype=float)
    full = full_index(problem)
    g = batch_gradient(problem, x, full, counter)
    grad_norm = float(np.linalg.norm(g))
    if problem.batch_hess_fn is not None:
        lam = min_eigenvalue(batch_hessian(problem, x, full, counter))
    else:
        lam = _lambda_min_via_hvp(problem, x, counter)
    mu = max(grad_norm**1.5, max(0.0, -lam) ** 3 / rho**1.5)
    return mu, grad_norm, lam


def mu_criterion(
    problem: FiniteSumProblem,
    x: np.ndarray,
    rho: float,
    counter: OracleCounter | None = None,
) -> float:
    """Stationarity measure at x; zero exactly at second-order stationary points.

    Charges one full gradient pass plus one full Hessian (or, without a Hessian
    oracle, up to d full-batch Hessian-vector products) to counter, which should
    be a diagnostics counter, not the one used for algorithm accounting.
    """
    counter = counter if counter is not None else OracleCounter()
    mu, _, _ = _mu_parts(problem, x, rho, counter)
    return mu


def certify_local_min(
    problem: FiniteSumProblem,
    x: np.ndarray,
    eps: float,
    rho: float,
    c: float = 600.0,
    counter: OracleCounter | None = None,
) -> tuple[bool, LocalMinCertificate]:
    """Check mu(x) <= c * eps^{3/2} and report the measured quantities.

    A True verdict certifies an (eps, sqrt(rho*eps))-approximate local
    minimum up to the constant c.
    """
    _check_positive(c=c, eps=eps)
    counter = counter if counter is not None else OracleCounter()
    mu, grad_norm, lam = _mu_parts(problem, x, rho, counter)
    cert = LocalMinCertificate(
        grad_norm=grad_norm,
        lambda_min=lam,
        mu=mu,
        eps_g=eps,
        eps_H=math.sqrt(rho * eps),
    )
    return mu <= c * eps**1.5, cert


def finite_diff_grad_check(problem: FiniteSumProblem, x: np.ndarray, step: float = 1e-6) -> float:
    """Max over coordinates of |central difference - analytic| / (1 + |analytic|).

    Uses full-batch value and gradient oracles; counts are kept local since
    this is a verification utility, not part of any algorithm's budget.  A
    coordinate whose difference or gradient is not finite raises ValueError:
    it cannot be read as agreement.
    """
    _check_positive(step=step)
    x = np.asarray(x, dtype=float)
    counter = OracleCounter()
    full = full_index(problem)
    g = batch_gradient(problem, x, full, counter)
    worst = 0.0
    for i in range(problem.dim):
        e = np.zeros(problem.dim)
        e[i] = step
        fp = batch_value(problem, x + e, full, counter)
        fm = batch_value(problem, x - e, full, counter)
        fd = (fp - fm) / (2.0 * step)
        err = abs(fd - g[i]) / (1.0 + abs(g[i]))
        if not math.isfinite(err):
            raise ValueError(
                f"coordinate {i}: central difference {fd!r} against gradient {float(g[i])!r} "
                f"is not finite at step {step!r}"
            )
        worst = max(worst, err)
    return worst
