"""
What the adaptive penalty actually does
========================================

Start cubic regularization with an absurdly small penalty on a bumpy
one-dimensional objective.  Early steps overshoot, the trust ratio
collapses, and the controller rejects them while doubling the penalty;
once the penalty matches the local curvature the steps start landing.
Every line below is one row of the run's trace.
"""

import numpy as np

from vrcubic import AdaptivePenalty, SolverConfig, from_components, run_cr

problem = from_components(
    n=1,
    dim=1,
    value=lambda i, x: float(np.cos(x[0])),
    grad=lambda i, x: np.array([-np.sin(x[0])]),
    hess=lambda i, x: np.array([[-np.cos(x[0])]]),
    lipschitz_grad=1.0,
    lipschitz_hess=1.0,
)

config = SolverConfig(
    eps=1e-4,
    T=100,
    x0=np.array([0.1]),
    penalty=AdaptivePenalty(m0=1e-8),
)
result = run_cr(problem, config)

print(" t   penalty     cos(x)   step taken?")
for row in result.trace:
    print(f"{row.t:2d}   {row.Mt:8.2e}  {row.f:+8.4f}   {'yes' if row.accepted else 'REJECTED'}")

rejected = sum(1 for row in result.trace if not row.accepted)
print()
print(f"{result.exit} at x = {result.x_out[0]:+.4f} (cos = {np.cos(result.x_out[0]):+.5f})")
print(f"{rejected} rejections before the penalty reached a workable scale")
