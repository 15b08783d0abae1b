"""
Solving one cubic-regularized subproblem four ways
===================================================

The subproblem min_h  b.h + 0.5 h.A.h + (tau/6)||h||^3 is the workhorse
of every driver in this package.  This script builds a small indefinite
model and compares the exact eigendecomposition solver, the one-line
Cauchy point, and two solvers that only ever touch A through
matrix-vector products: the Lanczos (Krylov) solver the Hessian-free
driver uses, and the paper's randomized gradient subsolver.
"""

import numpy as np

from vrcubic import (
    CubicModel,
    cauchy_point,
    cubic_function,
    cubic_krylov,
    cubic_subsolver,
    solve_exact,
)

rng = np.random.default_rng(0)

d = 6
S = rng.standard_normal((d, d))
A = 0.5 * (S + S.T)
b = rng.standard_normal(d)
tau = 2.0
model = CubicModel(b=b, A=A, penalty=tau, hess_norm_bound=float(np.linalg.norm(A, 2)))

print(f"model: d={d}, tau={tau}, lambda_min(A) = {np.linalg.eigvalsh(A)[0]:+.4f}")
print()

# exact solver: secular equation on the eigenbasis of A
exact = solve_exact(model)
print(f"exact       m(h) = {exact.m_value:+.6f}   ||h|| = {np.linalg.norm(exact.h):.4f}"
      f"   shift lambda = {exact.lam:.4f}")

# Cauchy point: best point on the steepest-descent ray, closed form
pc = cauchy_point(model)
print(f"cauchy      m(h) = {cubic_function(model, pc):+.6f}   ||h|| = {np.linalg.norm(pc):.4f}")

# subsolver: perturbed gradient descent, matvec access only
sub = cubic_subsolver(
    model,
    eta=1.0 / (16.0 * model.hess_norm_bound),
    zeta=0.5,
    eps_quality=0.5,
    fail_prob=0.1,
    rng=rng,
)
print(f"subsolver   m(h) = {sub.m_value:+.6f}   ||h|| = {np.linalg.norm(sub.h):.4f}"
      f"   ({sub.iterations} gradient steps, status {sub.status})")

# Lanczos: step k minimizes the model over span(b, Ab, ..., A^{k-1} b), one
# product per step, here down to a model gradient of 1e-10
kry = cubic_krylov(model, grad_tol=1e-10)
print(f"krylov      m(h) = {kry.m_value:+.6f}   ||h|| = {np.linalg.norm(kry.h):.4f}"
      f"   ({kry.iterations} Lanczos steps, one product each)")

print()
print("the exact value lower-bounds the others, and the Lanczos solve meets it")
print("once its span holds the minimizer.  on this model the gradient is steep")
print("enough that the Cauchy step already clears the subsolver's decrease")
print("test, so the subsolver returned that point after zero gradient steps.")

# The hard case: b orthogonal to the bottom eigenvector of A.  A plain
# shifted solve cannot reach the optimum; the solver adds a correction
# along the bottom eigenvector instead.
A2 = np.diag([-1.0, 1.0])
b2 = np.array([0.0, 1e-3])
hard = CubicModel(b=b2, A=A2, penalty=1.0, hess_norm_bound=1.0)
sol2 = solve_exact(hard)
print()
print(f"hard case: h = {sol2.h}, ||h|| = {np.linalg.norm(sol2.h):.4f} (radius 2*lam/tau)")

# Every Krylov span of b misses the bottom eigenvector here, so Lanczos from b
# stalls near zero.  Given a generator, cubic_krylov restarts once from b plus
# the subsolver's small random perturbation and reaches the target.
target = -0.5 * hard.penalty * 0.5**3 / 12.0
plain = cubic_krylov(hard, target=target)
perturbed = cubic_krylov(hard, target=target, rng=rng)
print(f"krylov from b:           m(h) = {plain.m_value:+.2e}   (target {target:+.2e})")
print(f"krylov from perturbed b: m(h) = {perturbed.m_value:+.6f}   ({perturbed.status}, "
      f"{perturbed.iterations} products; exact {sol2.m_value:+.6f})")
