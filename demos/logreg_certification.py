"""
From a libsvm file to a certified local minimum
================================================

Writes a small two-class dataset in libsvm format, loads it into the
nonconvex-regularized logistic regression objective, minimizes with the
recursive driver, and asks the diagnostics module whether the result is
an approximate local minimum.
"""

import tempfile
from pathlib import Path

import numpy as np

from vrcubic import (
    SolverConfig,
    certify_local_min,
    finite_diff_grad_check,
    make_binary_logreg,
    parse_libsvm,
    run_srvrc,
)

# fabricate a separable-ish dataset and serialize it the libsvm way
rng = np.random.default_rng(7)
n, d = 120, 5
w_true = rng.standard_normal(d)
X = rng.standard_normal((n, d))
labels = np.sign(X @ w_true + 0.3 * rng.standard_normal(n))

lines = []
for i in range(n):
    feats = " ".join(f"{j + 1}:{X[i, j]:.6f}" for j in range(d))
    lines.append(f"{'+1' if labels[i] > 0 else '-1'} {feats}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "two_class.libsvm"
    path.write_text("\n".join(lines) + "\n")
    dataset = parse_libsvm(path.read_bytes())

problem = make_binary_logreg(dataset, lam=0.1)
print(f"dataset: n={problem.n}, d={problem.dim}")

# sanity first: analytic gradient against central differences
err = finite_diff_grad_check(problem, 0.1 * rng.standard_normal(problem.dim))
print(f"finite-difference gradient error: {err:.2e}")

eps = 1e-3
config = SolverConfig(eps=eps, T=100, x0=np.zeros(problem.dim))
result = run_srvrc(problem, config)
print(f"run: {result.exit} after {result.iterations} iterations, "
      f"f = {result.f_out:.6f}, "
      f"{result.counters.grad_calls} component gradients")

ok, cert = certify_local_min(problem, result.x_out, eps=eps, rho=problem.lipschitz_hess)
print()
print(f"certified: {ok}")
print(f"  gradient norm  {cert.grad_norm:.3e}  (eps_g = {cert.eps_g})")
print(f"  lambda_min     {cert.lambda_min:+.3e}  (needs >= -{cert.eps_H:.3e})")
print(f"  mu             {cert.mu:.3e}")
