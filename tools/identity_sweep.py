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
A is hashed as the full (n, d, d) stack that ``unpack_upper`` makes of the
stored upper triangles, so the digest names the components, not how they
are stored.
The fourth line is one SHA-256 over the bills of all 432 runs: each run's
exit, iteration count and both oracle counters, or the type of its error,
with x_out, mu and error messages left out, so a change that moves iterates
by rounding can show that its exits and bills held.  The fifth line is one
SHA-256 over the same bills of ``run_srvrc``, ``run_cr`` and ``run_scr`` on a
binary problem that ``cli.build_problem`` reads from a libsvm file of
2000 x 100 (four row blocks of the dense kernels), under a full-batch
practical rule and a subsampled one whose Hessian resets span three blocks,
with both penalties, over seeds 0-2 (36 runs); the other problems fit in one row
block, so only this line sees a change to how the blocks are summed.
Two commits whose digests match on one machine ran byte-identical
trajectories with identical bills; digests from different BLAS builds need
not match.  Lines 4 and 5 read the same at 1 and 2 OpenBLAS threads and
under the SkylakeX, Haswell and Sandybridge kernels; ``identity_bills.txt``
holds them, and CI compares them with it.
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
    unpack_upper,
)
from vrcubic.cli import build_problem

N, D, SEEDS = 600, 12, range(6)
RULES = (PracticalBatchRule(N, 60, 4), PracticalBatchRule(60, 30, 3), None)
LIBSVM_N, LIBSVM_D, LIBSVM_CLASSES, LIBSVM_SEEDS = 300, 6, 3, range(3)
LIBSVM_RULES = (PracticalBatchRule(LIBSVM_N, 60, 4), PracticalBatchRule(60, 30, 3), None)
BLOCKS_N, BLOCKS_D = 2000, 100
BLOCKS_RULES = (PracticalBatchRule(BLOCKS_N, BLOCKS_N, 1), PracticalBatchRule(BLOCKS_N, 1200, 4))
BLOCKS_DRIVERS = (run_srvrc, run_cr, run_scr)
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


def libsvm_problems(workdir: Path, n: int, d: int) -> list:
    """A binary and a multiclass problem built by cli.build_problem from n x d libsvm files."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.6)
    rows, cols = np.nonzero(X)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    binary = np.where(X @ rng.standard_normal(d) > rng.standard_normal(n), 1.0, -1.0)
    classes = 1.0 + rng.integers(LIBSVM_CLASSES, size=n)
    problems = []
    for name, labels, spec in (
        ("binary", binary, {"objective": "binary_logreg"}),
        ("multiclass", classes, {"objective": "multiclass_logreg",
                                 "num_classes": LIBSVM_CLASSES, "scale_features": True}),
    ):
        path = workdir / f"{name}-{n}.svm"
        path.write_text(serialize_libsvm(LibsvmDataset(labels, indptr, cols + 1, X[rows, cols], d)))
        problems.append(build_problem({"dataset": {"path": str(path), **spec}}))
    return problems


def sweep(problems, rules, seeds, bills, drivers=DRIVERS) -> str:
    digest, runs, errors = hashlib.sha256(), 0, 0
    for problem, rule, penalty, driver, seed in itertools.product(
        problems, rules, PENALTIES, drivers, seeds
    ):
        result = outcome(driver, problem, rule, penalty, seed)
        digest.update(repr(result).encode())
        bills.update(repr(result[:1] if isinstance(result[0], str) else result[2:]).encode())
        runs += 1
        errors += isinstance(result[0], str)
    return f"{digest.hexdigest()}  runs={runs} errors={errors}"


def builds() -> str:
    digest, count = hashlib.sha256(), 0
    for (n, d), difficulty in itertools.product(BUILD_SIZES, ("nonconvex", "convex")):
        problem = make_synthetic(0, n, d, difficulty)
        digest.update(unpack_upper(problem.extra["A_upper"]).tobytes())
        digest.update(problem.extra["b"].tobytes())
        count += 1
    return f"{digest.hexdigest()}  builds={count}  synthetic"


def main() -> None:
    synthetic = [make_synthetic(0, N, D, difficulty) for difficulty in ("nonconvex", "convex")]
    bills = hashlib.sha256()
    print(sweep(synthetic, RULES, SEEDS, bills))
    with tempfile.TemporaryDirectory() as workdir:
        libsvm = libsvm_problems(Path(workdir), LIBSVM_N, LIBSVM_D)
        blocked = libsvm_problems(Path(workdir), BLOCKS_N, BLOCKS_D)[:1]
    print(sweep(libsvm, LIBSVM_RULES, LIBSVM_SEEDS, bills) + "  libsvm")
    print(builds())
    print(f"{bills.hexdigest()}  bills")
    blocked_bills = hashlib.sha256()
    runs = sweep(blocked, BLOCKS_RULES, LIBSVM_SEEDS, blocked_bills, BLOCKS_DRIVERS).split("  ")[1]
    print(f"{blocked_bills.hexdigest()}  {runs}  row-block bills")


if __name__ == "__main__":
    main()
