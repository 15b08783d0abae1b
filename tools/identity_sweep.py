"""Digests of a seeded sweep of every driver on synthetic and libsvm problems.

Run from the repository root as ``PYTHONPATH=src python tools/identity_sweep.py``.
The first line runs the four drivers on ``make_synthetic(0, 600, 12)``,
nonconvex and convex, under a full-gradient practical rule, a subsampled
practical rule and the theoretical rule, with the theoretical and the
adaptive penalty, over seeds 0-5 (288 runs).  The second line runs the same
drivers, rules and penalties over seeds 0-2 on a binary and a multiclass
logistic problem that ``cli.build_problem`` reads from libsvm files, which
``serialize_libsvm`` writes from seeded arrays into a temporary directory
(144 runs).  Each of these lines is one SHA-256 over what each run returns:
the bytes of x_out, mu at x_out, both oracle counters, the iteration count
and the exit, or the type and message of the error it raised.  The third
line is one SHA-256 over the bytes of A and b that ``make_synthetic`` builds
at the benchmark's size (3000, 40) and at odd sizes, both difficulties (12
builds), so a change to that construction shows without running a driver.
Two commits whose digests match on one machine ran byte-identical
trajectories with identical bills; digests from different BLAS builds need
not match.
"""

from __future__ import annotations

import hashlib
import itertools
import tempfile
from pathlib import Path

import numpy as np

from vrcubic import (
    AdaptivePenalty,
    LibsvmDataset,
    PracticalBatchRule,
    SolverConfig,
    TheoreticalPenalty,
    make_synthetic,
    mu_criterion,
    run_cr,
    run_scr,
    run_srvrc,
    run_srvrc_free,
    serialize_libsvm,
)
from vrcubic.cli import build_problem

N, D, SEEDS = 600, 12, range(6)
RULES = (PracticalBatchRule(N, 60, 4), PracticalBatchRule(60, 30, 3), None)
LIBSVM_N, LIBSVM_D, LIBSVM_CLASSES, LIBSVM_SEEDS = 300, 6, 3, range(3)
LIBSVM_RULES = (PracticalBatchRule(LIBSVM_N, 60, 4), PracticalBatchRule(60, 30, 3), None)
PENALTIES = (TheoreticalPenalty(), AdaptivePenalty())
DRIVERS = (run_srvrc, run_srvrc_free, run_cr, run_scr)
BUILD_SIZES = ((3000, 40), (1, 5), (7, 1), (130, 3), (401, 8), (600, 12))


def outcome(driver, problem, rule, penalty, seed) -> tuple:
    config = SolverConfig(eps=1e-3, T=40, penalty=penalty, batch=rule, seed=seed,
                          x0=np.full(problem.dim, 0.8))
    try:
        r = driver(problem, config)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    mu = mu_criterion(problem, r.x_out, problem.lipschitz_hess)
    return r.x_out.tobytes(), mu, r.counters, r.diag_counters, r.iterations, r.exit


def libsvm_problems(workdir: Path) -> list:
    """A binary and a multiclass problem built by cli.build_problem from libsvm files."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((LIBSVM_N, LIBSVM_D)) * (rng.random((LIBSVM_N, LIBSVM_D)) < 0.6)
    rows, cols = np.nonzero(X)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=LIBSVM_N))))
    binary = np.where(X @ rng.standard_normal(LIBSVM_D) > rng.standard_normal(LIBSVM_N), 1.0, -1.0)
    classes = 1.0 + rng.integers(LIBSVM_CLASSES, size=LIBSVM_N)
    problems = []
    for name, labels, spec in (
        ("binary", binary, {"objective": "binary_logreg"}),
        ("multiclass", classes, {"objective": "multiclass_logreg",
                                 "num_classes": LIBSVM_CLASSES, "scale_features": True}),
    ):
        path = workdir / f"{name}.svm"
        path.write_text(serialize_libsvm(
            LibsvmDataset(labels, indptr, cols + 1, X[rows, cols], LIBSVM_D)))
        problems.append(build_problem({"dataset": {"path": str(path), **spec}}))
    return problems


def sweep(problems, rules, seeds) -> str:
    digest, runs, errors = hashlib.sha256(), 0, 0
    for problem, rule, penalty, driver, seed in itertools.product(
        problems, rules, PENALTIES, DRIVERS, seeds
    ):
        result = outcome(driver, problem, rule, penalty, seed)
        digest.update(repr(result).encode())
        runs += 1
        errors += isinstance(result[0], str)
    return f"{digest.hexdigest()}  runs={runs} errors={errors}"


def builds() -> str:
    digest, count = hashlib.sha256(), 0
    for (n, d), difficulty in itertools.product(BUILD_SIZES, ("nonconvex", "convex")):
        problem = make_synthetic(0, n, d, difficulty)
        digest.update(problem.extra["A"].tobytes())
        digest.update(problem.extra["b"].tobytes())
        count += 1
    return f"{digest.hexdigest()}  builds={count}  synthetic"


def main() -> None:
    synthetic = [make_synthetic(0, N, D, difficulty) for difficulty in ("nonconvex", "convex")]
    print(sweep(synthetic, RULES, SEEDS))
    with tempfile.TemporaryDirectory() as workdir:
        libsvm = libsvm_problems(Path(workdir))
    print(sweep(libsvm, LIBSVM_RULES, LIBSVM_SEEDS) + "  libsvm")
    print(builds())


if __name__ == "__main__":
    main()
