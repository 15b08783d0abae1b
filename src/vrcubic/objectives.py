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


class _Scratch(threading.local):
    """One thread's buffers, which the logistic kernels reuse from call to call.

    ``_SCRATCH(name, *shape)`` views the first entries of the buffer
    ``name``, grown to fit.  A block-sized temporary freed at the top of the
    heap can be handed back to the system and faulted in again by the next
    call; one set per thread, not per problem, holds at most a block per
    name however many problems a process keeps.  A kernel overwrites what
    it reads of a buffer, and no answer is a view of one.
    """

    def __init__(self):
        self.bufs = {}

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self.bufs.get(name)
        if buf is None or buf.size < size:
            buf = self.bufs[name] = np.empty(size)
        return buf[:size].reshape(shape)


_SCRATCH = _Scratch()


def _walk(X: np.ndarray, picks: np.ndarray | None, row_bytes: int):
    """(block, rows, buffer) over the rows a batch reads, in _row_blocks of
    ``row_bytes`` a row: X's own rows when picks is None, else picks' rows
    gathered into the buffer, one _SCRATCH buffer of one block for every block.

    Gathering wraps indices instead of checking them (finite_sum._charge
    checks them), so np.take writes into the buffer without a buffered copy.
    """
    blocks = _row_blocks(X.shape[0] if picks is None else picks.size, row_bytes)
    buf = _SCRATCH("rows", blocks[0].stop, X.shape[1])
    for b in blocks:
        out = buf[:b.stop - b.start]
        rows = X[b] if picks is None else X.take(picks[b], axis=0, out=out, mode="wrap")
        yield b, rows, out


def _last_forward(compute):
    """compute(w, picks), remembered for the last point only.

    A factory's value, gradient, Hessian and Hessian-vector kernels share the
    forward pass at one point through it.  The key is the bytes of w, and of
    picks (the indices of a gathered batch's rows; None for a batch read in
    place), so a point changed in place, -0.0 against 0.0, or another
    gathered batch at the same point computes afresh; the answer is the one
    a fresh problem gives.  The component data must not change after the
    build.  Kernels called on several threads at once may each compute the
    pass, but none is handed another key's.
    """
    last = {}

    def forward(w, picks):
        w = np.asarray(w, dtype=float)
        key = (w.tobytes(), None if picks is None else (picks.dtype, picks.tobytes()))
        state = last.get(key)
        if state is None:
            state = compute(w, picks)
            last.clear()
            last[key] = state
        return state

    return forward


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

    def rows_pass(w, picks):
        if picks is None:
            z = X @ w
        else:
            z = np.empty(picks.size)
            for b, rows, _ in _walk(X, picks, X.itemsize * d):
                np.matmul(rows, w, out=z[b])
        return z, _sigmoid(z)

    last = _last_forward(rows_pass)

    def forward(idx, w, crossover):
        """(z, s, c, y, picks): z = X w and s = sigmoid(z) over the rows the batch
        reads, their weights c and labels, and the gathered indices or None:
        the batch mean is sum_k c[k] * (row k's term)."""
        c = _in_place_weights(idx, n, crossover)
        if c is not None:
            return *last(w, None), c, y, None
        return *last(w, idx), 1.0 / idx.size, y[idx], idx

    def bval(idx, w):
        z, _, c, yr, _ = forward(idx, w, _LOGREG_IN_PLACE)
        return float(np.sum(c * (np.logaddexp(0.0, z) - yr * z))) + lam * _reg_value(w)

    def bgrad(idx, w):
        _, s, c, yr, picks = forward(idx, w, _LOGREG_IN_PLACE)
        r = c * (s - yr)
        if picks is None:
            return X.T @ r + lam * _reg_grad(w)
        g = sum(rows.T @ r[b] for b, rows, _ in _walk(X, picks, X.itemsize * d))
        return g + lam * _reg_grad(w)

    def bhess(idx, w):
        # H = sum over row blocks of Y^T Y, Y = rows * sqrt(c s (1 - s)) written into
        # one block's buffer: np.matmul calls SYRK, so every term and H are symmetric.
        _, s, c, _, picks = forward(idx, w, _LOGREG_HESS_IN_PLACE)
        root = np.sqrt(c * s * (1.0 - s))
        H, T = np.zeros((d, d)), np.empty((d, d))
        for b, rows, Y in _walk(X, picks, X.itemsize * d):
            np.multiply(rows, root[b, None], out=Y)
            H += np.matmul(Y.T, Y, out=T)
        H[np.diag_indices(d)] += lam * _reg_curv(w)
        return H

    def hvp_at(idx, w):
        _, s, c, _, picks = forward(idx, w, _LOGREG_HESS_IN_PLACE)
        Xr = X if picks is None else X[picks]
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

    def logits_pass(w, picks):
        Z = np.empty((picks.size, m))
        for b, rows, _ in _walk(X, picks, X.itemsize * d):
            np.matmul(rows, w.reshape(m, d).T, out=Z[b])
        zmax = Z.max(axis=1, keepdims=True)
        E = np.exp(Z - zmax)
        total = E.sum(axis=1, keepdims=True)
        return Z, (zmax + np.log(total))[:, 0], E / total

    forward = _last_forward(logits_pass)  # (logits, log-sum-exp, softmax) of idx's rows

    def bval(idx, w):
        Z, lse, _ = forward(w, idx)
        picked = Z[np.arange(idx.size), class_id[idx]]
        return float(np.mean(lse - picked)) + lam * _reg_value(w)

    def bgrad(idx, w):
        R = forward(w, idx)[2] - Y[idx]
        G = sum(R[b].T @ rows for b, rows, _ in _walk(X, idx, X.itemsize * d)) / idx.size
        return G.ravel() + lam * _reg_grad(w)

    def hvp_at(idx, w):
        Xb = X[idx]
        P = forward(w, idx)[2]
        r = lam * _reg_curv(w)

        def apply(v):
            A = Xb @ v.reshape(m, d).T
            S = P * (A - (P * A).sum(axis=1, keepdims=True))
            out = S.T @ Xb / idx.size
            return out.ravel() + r * v

        return apply

    def bhess(idx, w):
        # Summed over the batch the Hessian is blockdiag_a(sum_k p_ka x_k x_k^T) - Z^T Z,
        # where row k of Z is outer(p_k, x_k).ravel(), formed one row block at a time
        # in one buffer.
        P, row_bytes = forward(w, idx)[2], m * d * X.itemsize
        H, T = np.zeros((m * d, m * d)), np.empty((m * d, m * d))
        buf = _SCRATCH("Z", _row_blocks(idx.size, row_bytes)[0].stop, m, d)
        for b, rows, _ in _walk(X, idx, row_bytes):
            k = b.stop - b.start
            Z = np.multiply(P[b, :, None], rows[:, None, :], out=buf[:k]).reshape(k, m * d)
            H -= np.matmul(Z.T, Z, out=T)
            for a in range(m):
                block = slice(a * d, (a + 1) * d)
                H[block, block] += Z[:, block].T @ rows
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
