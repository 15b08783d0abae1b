"""Problem factories: nonconvex-regularized logistic regression and synthetic sums.

The nonconvex regularizer used throughout is r(w) = sum_j w_j^2 / (1 + w_j^2),
a bounded penalty that keeps every objective smooth while breaking convexity.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

from ._libsvm import (  # re-exported: the libsvm format lives in _libsvm
    _BLOCK_LINES,
    LibsvmDataset,
    LibsvmParseError,
    binary_labels,
    class_ids,
    parse_libsvm,
    serialize_libsvm,
)
from .finite_sum import FiniteSumProblem, _check_integer

__all__ = [
    "LibsvmParseError",
    "LibsvmDataset",
    "parse_libsvm",
    "serialize_libsvm",
    "scale_columns_unit",
    "make_binary_logreg",
    "make_multiclass_logreg",
    "binary_logreg_from_arrays",
    "multiclass_logreg_from_arrays",
    "make_synthetic",
    "unpack_upper",
]

SYNTHETIC_DIFFICULTIES = ("convex", "nonconvex")  # make_synthetic's difficulty values

# sup_w |d^2/dw^2 [w^2/(1+w^2)]| = 2 (attained at w=0)
_REG_CURV_BOUND = 2.0
# sup_w |d^3/dw^3 [w^2/(1+w^2)]| = max of |24 w (w^2-1)|/(1+w^2)^4, approx 4.669
_REG_THIRD_BOUND = 4.67
# sup_z |sigma''(z)| for the logistic sigmoid
_SIGMOID_CURV_CHANGE = 1.0 / (6.0 * math.sqrt(3.0))

# Batch size, as a fraction of n, from which a kernel family reads all n
# component rows in place instead of gathering its |idx| rows.  Measured per
# family (CHANGES.md has the table).  A logistic Hessian costs d^2 per row,
# and a Hessian-vector closure pays for every row it holds on each product,
# so reading the rows a multiset leaves out pays off there only near n.
_SYNTHETIC_IN_PLACE = 0.25
_LOGREG_IN_PLACE = 0.5
_LOGREG_HESS_IN_PLACE = 0.95

# Bytes of rows that one pass of a blocked kernel reads (_row_blocks): 32
# Gaussian d x d matrices at d = 40, which each make_synthetic thread draws
# and normalizes in its one buffer before packing their upper triangles
# (about 210 KB of the store), or 512 rows of a d = 100 logistic X.  Smaller
# blocks lose the batched LAPACK or BLAS call's gain to per-call overhead;
# larger ones raise the temporaries each block holds.
_SYNTHETIC_CHUNK_BYTES = 400 * 1024


def _row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at least one row and at
    most _SYNTHETIC_CHUNK_BYTES of rows of ``row_bytes`` bytes each."""
    size = max(1, _SYNTHETIC_CHUNK_BYTES // max(1, row_bytes))
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _in_place_weights(idx: np.ndarray, n: int, crossover: float) -> np.ndarray | None:
    """Weights c with mean_{i in idx} f_i = sum_{k<n} c[k] f_k, or None.

    c[k] is the multiplicity of component k in idx over |idx| (idx may be
    unsorted and hold repeats), so a kernel can contract all n rows in place.
    None means the batch is below ``crossover * n`` components, where
    gathering its |idx| rows is cheaper.
    """
    if idx.size < crossover * n:
        return None
    return np.bincount(idx, minlength=n) / idx.size


def _reg_value(w: np.ndarray) -> float:
    w2 = w * w
    return float(np.sum(w2 / (1.0 + w2)))


def _reg_grad(w: np.ndarray) -> np.ndarray:
    return 2.0 * w / (1.0 + w * w) ** 2


def _reg_curv(w: np.ndarray) -> np.ndarray:
    w2 = w * w
    return (2.0 - 6.0 * w2) / (1.0 + w2) ** 3


def scale_columns_unit(X: np.ndarray) -> np.ndarray:
    """Scale each column into [-1, 1] by its max absolute value (zero columns kept)."""
    return X / _unit_column_scales(X)


def _unit_column_scales(X: np.ndarray) -> np.ndarray:
    """Each column's max absolute value, or 1.0 for a zero column, taken one
    row block at a time; ``X /= _unit_column_scales(X)`` scales X in place."""
    scale = np.zeros(X.shape[1])
    for rows in _row_blocks(X.shape[0], X.itemsize * X.shape[1]):
        np.maximum(scale, np.abs(X[rows]).max(axis=0), out=scale)
    scale[scale == 0.0] = 1.0
    return scale


def _check_lam(lam: float) -> None:
    """ValueError unless lam >= 0 and finite: the L and rho below hold for lam >= 0 only."""
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError(f"lam must be nonnegative and finite, got {lam!r}")


def binary_logreg_from_arrays(
    X: np.ndarray, y: np.ndarray, lam: float = 1e-3
) -> FiniteSumProblem:
    """Binary logistic NLL with the bounded nonconvex penalty.

    f_i(w) = log(1 + exp(x_i.w)) - y_i x_i.w + lam * r(w),  y_i in {0, 1}.
    """
    _check_lam(lam)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("binary labels must be in {0, 1}")
    rmax = _max_row_norm(X)

    def rows(idx, crossover):
        """Rows, labels and weights c: the batch mean is sum_k c[k] * (row k's term)."""
        c = _in_place_weights(idx, n, crossover)
        if c is None:
            return X[idx], y[idx], 1.0 / idx.size
        return X, y, c

    def bval(idx, w):
        Xr, yr, c = rows(idx, _LOGREG_IN_PLACE)
        z = Xr @ w
        return float(np.sum(c * (np.logaddexp(0.0, z) - yr * z))) + lam * _reg_value(w)

    def bgrad(idx, w):
        Xr, yr, c = rows(idx, _LOGREG_IN_PLACE)
        return Xr.T @ (c * (_sigmoid(Xr @ w) - yr)) + lam * _reg_grad(w)

    def bhess(idx, w):
        # A sum over row blocks: no temporary holds more than one block of rows.
        c = _in_place_weights(idx, n, _LOGREG_HESS_IN_PLACE)
        H = np.zeros((d, d))
        for block in _row_blocks(n if c is not None else idx.size, X.itemsize * d):
            Xr, cr = (X[block], c[block]) if c is not None else (X[idx[block]], 1.0 / idx.size)
            s = _sigmoid(Xr @ w)
            H += (Xr * (cr * s * (1.0 - s))[:, None]).T @ Xr
        H[np.diag_indices(d)] += lam * _reg_curv(w)
        return H

    def hvp_at(idx, w):
        Xr, _, c = rows(idx, _LOGREG_HESS_IN_PLACE)
        s = _sigmoid(Xr @ w)
        D = c * s * (1.0 - s)
        r = lam * _reg_curv(w)
        return lambda v: Xr.T @ (D * (Xr @ v)) + r * v

    return FiniteSumProblem(
        n=n,
        dim=d,
        lipschitz_grad=rmax**2 / 4.0 + _REG_CURV_BOUND * lam,
        lipschitz_hess=_SIGMOID_CURV_CHANGE * rmax**3 + _REG_THIRD_BOUND * lam,
        grad_bound=2.0 * rmax,
        batch_value_fn=bval,
        batch_grad_fn=bgrad,
        batch_hess_fn=bhess,
        batch_hvp_fn=hvp_at,
        name="binary-logreg",
        extra={"lam": lam},
    )


def _max_row_norm(X: np.ndarray) -> float:
    """max_i ||X[i]|| (0.0 without rows), from np.linalg.norm on row blocks."""
    if not X.shape[0]:
        return 0.0
    blocks = _row_blocks(X.shape[0], X.itemsize * X.shape[1])
    return float(np.max([np.linalg.norm(X[rows], axis=1).max() for rows in blocks]))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without masks.

    min(z, -z) = -|z| keeps the sign of a NaN (np.minimum returns the first
    of two NaNs), so NaN entries keep their bytes as well.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def make_binary_logreg(dataset: LibsvmDataset, lam: float = 1e-3) -> FiniteSumProblem:
    """Binary problem from a parsed dataset; smaller raw label becomes class 0."""
    return binary_logreg_from_arrays(dataset.to_dense(), binary_labels(dataset.labels), lam)


def multiclass_logreg_from_arrays(
    X: np.ndarray,
    class_id: np.ndarray,
    num_classes: int,
    lam: float = 1e-3,
) -> FiniteSumProblem:
    """Softmax cross-entropy over a flattened (m*d,) weight vector.

    The variable is W (m rows of d weights) stored row-major as w = W.ravel().
    """
    _check_lam(lam)
    X = np.asarray(X, dtype=float)
    class_id = np.asarray(class_id, dtype=int)
    n, d = X.shape
    m = int(num_classes)
    if class_id.size and (class_id.min() < 0 or class_id.max() >= m):
        raise ValueError(f"label out of range for {m} classes")
    Y = np.zeros((n, m))
    Y[np.arange(n), class_id] = 1.0
    rmax = _max_row_norm(X)

    def _softmax(Z):
        Z = Z - Z.max(axis=1, keepdims=True)
        E = np.exp(Z)
        return E / E.sum(axis=1, keepdims=True)

    def bval(idx, w):
        W = w.reshape(m, d)
        Z = X[idx] @ W.T
        zmax = Z.max(axis=1)
        lse = zmax + np.log(np.exp(Z - zmax[:, None]).sum(axis=1))
        picked = Z[np.arange(idx.size), class_id[idx]]
        return float(np.mean(lse - picked)) + lam * _reg_value(w)

    def bgrad(idx, w):
        W = w.reshape(m, d)
        Xb = X[idx]
        P = _softmax(Xb @ W.T)
        G = (P - Y[idx]).T @ Xb / idx.size
        return G.ravel() + lam * _reg_grad(w)

    def hvp_at(idx, w):
        Xb = X[idx]
        P = _softmax(Xb @ w.reshape(m, d).T)
        r = lam * _reg_curv(w)

        def apply(v):
            A = Xb @ v.reshape(m, d).T
            S = P * (A - (P * A).sum(axis=1, keepdims=True))
            out = S.T @ Xb / idx.size
            return out.ravel() + r * v

        return apply

    def bhess(idx, w):
        # Summed over the batch the Hessian is blockdiag_a(sum_k p_ka x_k x_k^T) - Z^T Z,
        # where row k of Z is outer(p_k, x_k).ravel().
        Xb = X[idx]
        P = _softmax(Xb @ w.reshape(m, d).T)
        Z = (P[:, :, None] * Xb[:, None, :]).reshape(idx.size, m * d)
        H = -(Z.T @ Z)
        for a in range(m):
            block = slice(a * d, (a + 1) * d)
            H[block, block] += Z[:, block].T @ Xb
        H /= idx.size
        H[np.diag_indices(m * d)] += lam * _reg_curv(w)
        return H

    return FiniteSumProblem(
        n=n,
        dim=m * d,
        lipschitz_grad=rmax**2 / 2.0 + _REG_CURV_BOUND * lam,
        lipschitz_hess=rmax**3 + _REG_THIRD_BOUND * lam,
        grad_bound=2.0 * math.sqrt(2.0) * rmax,
        batch_value_fn=bval,
        batch_grad_fn=bgrad,
        batch_hess_fn=bhess,
        batch_hvp_fn=hvp_at,
        name="multiclass-logreg",
        extra={"lam": lam, "num_classes": m},
    )


def make_multiclass_logreg(
    dataset: LibsvmDataset, num_classes: int, lam: float = 1e-3
) -> FiniteSumProblem:
    """Multiclass problem from a parsed dataset (labels 0- or 1-based)."""
    return multiclass_logreg_from_arrays(
        dataset.to_dense(), class_ids(dataset.labels, num_classes), num_classes, lam=lam
    )


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _normalize_chunk(G: np.ndarray, convex: bool) -> None:
    """Overwrite each Gaussian matrix G_i of the stack G with its component A_i.

    A_i = 0.9 S / max(||S||_2, 1e-12), where S = (G_i + G_i^T) / 2, or S S^T
    when ``convex``.  The norm is the largest singular value from the LAPACK
    gesdd that np.linalg.norm(S, 2) calls, so A_i is the bytes a per-matrix
    computation gives.
    """
    S = G + G.transpose(0, 2, 1)
    S /= 2.0
    if convex:
        S = S @ S.transpose(0, 2, 1)
    norms = np.linalg.svd(S, compute_uv=False)[:, 0]
    np.multiply(S, 0.9, out=G)
    G /= np.maximum(norms, 1e-12)[:, None, None]


@functools.cache
def _upper_positions(d: int) -> np.ndarray:
    """For each entry of a d x d matrix, in C order, its index in the packed upper triangle."""
    pos = np.zeros((d, d), np.intp)
    pos[np.triu_indices(d)] = np.arange(d * (d + 1) // 2)
    return np.maximum(pos, pos.T).ravel()


def unpack_upper(packed: np.ndarray) -> np.ndarray:
    """The symmetric d x d matrices whose upper triangles are packed's rows.

    The last axis of ``packed`` holds d(d+1)/2 entries in np.triu_indices(d)
    order, as make_synthetic's ``extra["A_upper"]`` does; it becomes two
    axes of d, with entry (j, k) copied to (k, j).
    """
    m = packed.shape[-1]
    d = math.isqrt(2 * m)
    if d * (d + 1) != 2 * m:
        raise ValueError(f"{m} entries do not fill the upper triangle of a square matrix")
    return packed.take(_upper_positions(d), axis=-1).reshape(packed.shape[:-1] + (d, d))


def _draw_components(rng, P: np.ndarray, d: int, convex: bool) -> None:
    """Fill P's rows with the upper triangles of n components, chunk by chunk.

    One thread per available CPU, up to the chunk count (the calling thread
    is one of them; numpy's linalg and large elementwise operations release
    the GIL), owns one chunk buffer of _row_blocks size.  Under a lock it
    claims the next chunk and draws its Gaussian matrices, so the draws keep
    the stream's order; outside it, _normalize_chunk turns them into
    components, whose upper triangles go to P.  Every thread is joined
    before this returns, and the first error any thread met is re-raised.
    """
    blocks = _row_blocks(P.shape[0], d * d * P.itemsize)
    chunks, upper, lock, errors = iter(blocks), np.triu_indices(d), threading.Lock(), []

    def work() -> None:
        try:
            buf = np.empty((blocks[0].stop, d, d))
            while not errors:
                with lock:
                    rows = next(chunks, None)
                    if rows is None:
                        return
                    G = buf[:rows.stop - rows.start]
                    rng.standard_normal(out=G)
                _normalize_chunk(G, convex)
                P[rows] = G[:, upper[0], upper[1]]
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = []
    try:
        for _ in range(1, min(_available_cpus(), len(blocks))):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def make_synthetic(
    seed: int, n: int, d: int, difficulty: str = "nonconvex"
) -> FiniteSumProblem:
    """Random quadratics plus the bounded nonconvex penalty.

    f_i(x) = 0.5 x.A_i.x + b_i.x + alpha * sum_j x_j^2/(1+x_j^2), with every
    A_i symmetric of spectral norm <= 1.  difficulty="convex" makes all A_i
    positive semidefinite and drops the penalty (alpha=0), so the unique
    minimizer is -mean(A)^{-1} mean(b); "nonconvex" allows indefinite A_i and
    sets alpha=0.5.

    The gradient deviation ||grad f_i - grad F|| grows with ||x||, so no
    finite grad_bound is reported (np.inf): resets fall back to full batches.

    Each A_i is stored once, as its upper triangle: ``extra["A_upper"]`` has
    shape (n, d(d+1)/2) in np.triu_indices(d) order, and unpack_upper gives
    the (n, d, d) stack.  A batch averages packed rows and unpacks one d x d
    mean.  The A_i are drawn and normalized in chunks, on one thread per CPU
    available to the process, and no full stack is held; the unpacked A_i and
    b are byte-identical to drawing and normalizing each A_i in turn,
    whatever the thread count.

    The full-batch means of A_i and b_i do not depend on x, so they are
    computed once here; a batch whose in-place weights are uniform (the full
    index set in any order) reads them instead of all n components.  The
    answer is the one the in-place sum gives, and a full query still bills n.
    ``extra["A_upper"]`` and ``extra["b"]`` are read-only, so those means
    cannot go stale.
    """
    for name, size, what in (("n", n, "at least one component"), ("d", d, "positive dimension")):
        _check_integer(name, size)
        if size < 1:
            raise ValueError(f"need {what}, got {name}={size}")
    if difficulty not in SYNTHETIC_DIFFICULTIES:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    rng = np.random.default_rng(seed)
    alpha = 0.0 if difficulty == "convex" else 0.5

    P = np.empty((n, d * (d + 1) // 2))
    _draw_components(rng, P, d, convex=difficulty == "convex")
    b = rng.standard_normal((n, d)) / math.sqrt(d)
    P.setflags(write=False)
    b.setflags(write=False)

    uniform = _in_place_weights(np.arange(n), n, _SYNTHETIC_IN_PLACE)
    Afull, bfull = unpack_upper(uniform @ P), uniform @ b

    def means(idx):
        c = _in_place_weights(idx, n, _SYNTHETIC_IN_PLACE)
        if c is None:
            return unpack_upper(P[idx].mean(axis=0)), b[idx].mean(axis=0)
        if np.array_equal(c, uniform):
            return Afull.copy(), bfull.copy()
        return unpack_upper(c @ P), c @ b

    def bval(idx, x):
        Abar, bbar = means(idx)
        return 0.5 * float(x @ Abar @ x) + float(bbar @ x) + alpha * _reg_value(x)

    def bgrad(idx, x):
        Abar, bbar = means(idx)
        return Abar @ x + bbar + alpha * _reg_grad(x)

    def bhess(idx, x):
        H = means(idx)[0]
        if alpha:
            H[np.diag_indices(d)] += alpha * _reg_curv(x)
        return H

    def hvp_at(idx, x):
        Abar = means(idx)[0]
        if not alpha:
            return Abar.__matmul__
        r = alpha * _reg_curv(x)
        return lambda v: Abar @ v + r * v

    return FiniteSumProblem(
        n=n,
        dim=d,
        lipschitz_grad=1.0 + _REG_CURV_BOUND * alpha,
        lipschitz_hess=max(_REG_THIRD_BOUND * alpha, 1.0),
        grad_bound=np.inf,
        batch_value_fn=bval,
        batch_grad_fn=bgrad,
        batch_hess_fn=bhess,
        batch_hvp_fn=hvp_at,
        name=f"synthetic-{difficulty}",
        extra={"A_upper": P, "b": b, "alpha": alpha, "seed": seed},
    )
