"""Seeded inputs for the three benchmark workloads.

Every workload is a set of vrcubic CLI config sections: one ``problem``
section per problem instance, handed to ``cli.build_problem``, and one
``solver`` section per starting point, handed to ``cli.build_solver_config``.
The seed fixes the data and the starting points; the library sees only the
generated files and configs.

Why these three (each stresses a different way of spending time):

* synthetic-matvec -- ``run_srvrc_free`` on ``make_synthetic(n=3000, d=40)``.
  On the last step the cubic finalsolver polishes the model gradient down to
  1e-8, re-applying one Hessian-vector closure at one point about 320 times
  on every start, so HVP kernels and the matvec loop are the largest single
  cost (the subsolver itself is capped at 500 iterations); dense
  Hessians, ``solve_exact`` and the recursive estimators are bypassed (the
  gradient is recomputed on the full batch every step).  Full-size gradient
  and value batches share the gather kernel with n/10-size HVP batches.
* logreg-exact -- ``run_srvrc`` on binary logistic regression read from a
  libsvm file (n=20000, d=100, 30% nonzeros).  Set-up is libsvm parsing and
  densification; the solve is BLAS-bound full-batch kernels, because the
  theoretical batch rule clamps its corrections to n, plus ``solve_exact`` at
  d=100 and an adaptive penalty that evaluates ``f_trial``.
* multiclass-exact -- ``run_srvrc`` on softmax regression (n=1000, m=5,
  d=20, dimension 100).  The dense Hessian kernel is a Python loop over
  ``np.kron``: the same objectives layer as logreg-exact, interpreter-bound
  instead of BLAS-bound, and certification builds one more such Hessian.
  Its iteration count depends mostly on the data, so a run uses four data
  sets with two starts each rather than one data set with eight.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    n: int
    d: int
    classes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    problems: int  # seeded problem instances built in one run
    starts: int  # seeded starting points per problem, each solved repeatedly
    full: Sizes
    tiny: Sizes  # for the harness tests only


@dataclass
class Inputs:
    problem_cfgs: list[dict]
    solver_cfgs: list[tuple[int, dict]]  # (index into problem_cfgs, solver section)
    component_bytes: int  # bytes of component data one oracle call reads
    data_files: list[Path]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synthetic-matvec", "srvrc_free", 1, 8, Sizes(3000, 40), Sizes(200, 8)),
        Workload("logreg-exact", "srvrc", 1, 4, Sizes(20000, 100), Sizes(400, 10)),
        Workload("multiclass-exact", "srvrc", 4, 2, Sizes(1000, 20, 5), Sizes(150, 5, 3)),
    )
}

EPS = 1e-3
SUBSOLVER_CAP = 500
FINAL_GRAD_TOL = 1e-8
CHUNK_ROWS = 1000  # rows generated at a time, so generating data stays small in memory


def _write_libsvm(path: Path, chunks) -> None:
    """Write (X, labels) chunks as libsvm rows with 4-decimal features."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        for X, labels in chunks:
            for label, row in zip(labels, X):
                feats = " ".join(f"{j + 1}:{row[j]:.4f}" for j in np.flatnonzero(row))
                fh.write(f"{int(label)} {feats}\n")
    tmp.replace(path)


def _binary_rows(rng, n: int, d: int):
    """Rows with 30% standard-normal nonzeros, labels from a planted logistic model."""
    w = 2.0 * rng.standard_normal(d) / np.sqrt(0.3 * d)
    for start in range(0, n, CHUNK_ROWS):
        m = min(CHUNK_ROWS, n - start)
        X = rng.standard_normal((m, d)) * (rng.random((m, d)) < 0.3)
        yield X, np.where(rng.random(m) < 1.0 / (1.0 + np.exp(-X @ w)), 1, -1)


def _multiclass_rows(rng, n: int, d: int, classes: int):
    """Dense standard-normal rows, 1-based labels drawn from a planted softmax model."""
    W = 2.0 * rng.standard_normal((classes, d)) / np.sqrt(d)
    for start in range(0, n, CHUNK_ROWS):
        m = min(CHUNK_ROWS, n - start)
        X = rng.standard_normal((m, d))
        Z = X @ W.T
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        yield X, 1 + (P.cumsum(axis=1) > rng.random((m, 1))).argmax(axis=1)


def make_inputs(workload: Workload, seed: int, workdir: Path, tiny: bool = False) -> Inputs:
    """Write the workload's data files (if any) under workdir and return its configs."""
    sizes = workload.tiny if tiny else workload.full
    rng = np.random.default_rng([seed, 0x5EED])
    n, d, m = sizes.n, sizes.d, sizes.classes
    problem_cfgs, data_files = [], []
    for p in range(workload.problems):
        if workload.name == "synthetic-matvec":
            problem_cfgs.append({"synthetic": {"seed": seed * workload.problems + p, "n": n, "d": d}})
            continue
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{workload.name}-{seed}-{p}.svm"
        data_files.append(path)
        if workload.name == "logreg-exact":
            _write_libsvm(path, _binary_rows(rng, n, d))
            dataset = {"objective": "binary_logreg"}
        else:
            _write_libsvm(path, _multiclass_rows(rng, n, d, m))
            dataset = {"objective": "multiclass_logreg", "num_classes": m}
        problem_cfgs.append({"dataset": {"path": str(path), **dataset}})

    if workload.name == "synthetic-matvec":
        dim, component_bytes = d, 8 * (d * d + d)
        base = {
            "eps": EPS,
            "T": 100,
            "subsolver_max_iters": SUBSOLVER_CAP,
            "finalsolver_eps_g": FINAL_GRAD_TOL,
            "gradient_recursion": False,
            "batch": {"mode": "practical", "B_g": n, "B_h": max(1, n // 10), "S": 1},
        }
    else:
        dim = d if workload.name == "logreg-exact" else m * d
        component_bytes = 8 * (d + 1) if workload.name == "logreg-exact" else 8 * (d + m)
        base = {"eps": EPS, "T": 200, "penalty": {"mode": "adaptive"}}
    solver_cfgs = []
    for p in range(workload.problems):
        for k in range(workload.starts):
            u = rng.standard_normal(dim)
            # synthetic: the unit sphere, well inside the basin the penalty creates
            x0 = u / np.linalg.norm(u) if not data_files else 0.3 * u
            solver_cfgs.append((p, {**base, "seed": k, "x0": x0.tolist()}))
    return Inputs(problem_cfgs, solver_cfgs, component_bytes, data_files)
