"""Digest of a seeded sweep of every driver on the synthetic problems.

Run from the repository root as ``PYTHONPATH=src python tools/identity_sweep.py``.
It runs the four drivers on ``make_synthetic(0, 600, 12)``, nonconvex and
convex, under a full-gradient practical rule, a subsampled practical rule and
the theoretical rule, with the theoretical and the adaptive penalty, over
seeds 0-5 (288 runs).  It prints one SHA-256 over what each run returns:
the bytes of x_out, mu at x_out, both oracle counters, the iteration count
and the exit, or the type and message of the error it raised.  Two commits whose digests match on one machine ran byte-identical
trajectories with identical bills; digests from different BLAS builds need
not match.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from vrcubic import (
    AdaptivePenalty,
    PracticalBatchRule,
    SolverConfig,
    TheoreticalPenalty,
    make_synthetic,
    mu_criterion,
    run_cr,
    run_scr,
    run_srvrc,
    run_srvrc_free,
)

N, D, SEEDS = 600, 12, range(6)
RULES = (PracticalBatchRule(N, 60, 4), PracticalBatchRule(60, 30, 3), None)
PENALTIES = (TheoreticalPenalty(), AdaptivePenalty())
DRIVERS = (run_srvrc, run_srvrc_free, run_cr, run_scr)


def outcome(driver, problem, rule, penalty, seed) -> tuple:
    config = SolverConfig(eps=1e-3, T=40, penalty=penalty, batch=rule, seed=seed,
                          x0=np.full(D, 0.8))
    try:
        r = driver(problem, config)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    mu = mu_criterion(problem, r.x_out, problem.lipschitz_hess)
    return r.x_out.tobytes(), mu, r.counters, r.diag_counters, r.iterations, r.exit


def main() -> None:
    digest, runs, errors = hashlib.sha256(), 0, 0
    problems = [make_synthetic(0, N, D, difficulty) for difficulty in ("nonconvex", "convex")]
    for problem, rule, penalty, driver, seed in itertools.product(
        problems, RULES, PENALTIES, DRIVERS, SEEDS
    ):
        result = outcome(driver, problem, rule, penalty, seed)
        digest.update(repr(result).encode())
        runs += 1
        errors += isinstance(result[0], str)
    print(f"{digest.hexdigest()}  runs={runs} errors={errors}")


if __name__ == "__main__":
    main()
