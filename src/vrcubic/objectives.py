"""Problem factories: nonconvex-regularized logistic regression and synthetic sums.

The nonconvex regularizer used throughout is r(w) = sum_j w_j^2 / (1 + w_j^2),
a bounded penalty that keeps every objective smooth while breaking convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_sum import FiniteSumProblem

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


class LibsvmParseError(ValueError):
    """Raised on malformed svmlight/libsvm text; message names the line."""


@dataclass
class LibsvmDataset:
    """Parsed svmlight/libsvm data: raw labels plus sparse 1-based features."""

    labels: np.ndarray
    rows: list[list[tuple[int, float]]]
    num_features: int

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_dense(self) -> np.ndarray:
        X = np.zeros((self.n, self.num_features))
        for i, row in enumerate(self.rows):
            for j, val in row:
                X[i, j - 1] = val
        return X

    def binary_labels(self) -> np.ndarray:
        """Map the two distinct raw labels to {0, 1}, smaller raw value to 0."""
        distinct = np.unique(self.labels)
        if distinct.size != 2:
            raise ValueError(
                f"binary objective needs exactly 2 distinct labels, got {distinct.size}"
            )
        return (self.labels == distinct[1]).astype(float)

    def class_ids(self, num_classes: int) -> np.ndarray:
        """Map raw labels to 0..m-1, accepting either 0- or 1-based integers."""
        raw = self.labels
        if not np.all(raw == np.round(raw)):
            raise ValueError("multiclass labels must be integers")
        ids = raw.astype(int)
        if ids.min() >= 1 and ids.max() <= num_classes:
            ids = ids - 1
        elif ids.min() < 0 or ids.max() >= num_classes:
            raise ValueError(
                f"label out of range for {num_classes} classes: "
                f"saw {ids.min()}..{ids.max()}"
            )
        return ids


def parse_libsvm(source) -> LibsvmDataset:
    """Parse svmlight/libsvm text: one "<label> <idx>:<val> ..." row per line.

    ``source`` is a string or an iterable of lines.  Feature indices are
    1-based and must be strictly increasing within a row; labels and values
    must be finite.  Blank lines are skipped; errors report the 1-based line
    number.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)

    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_idx = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise LibsvmParseError(f"line {lineno}: label {tokens[0]!r} is not finite")
        row: list[tuple[int, float]] = []
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(
                    f"line {lineno}: bad feature token {tok!r}"
                ) from None
            if not math.isfinite(val):
                raise LibsvmParseError(f"line {lineno}: feature value {tok!r} is not finite")
            if idx < 1:
                raise LibsvmParseError(
                    f"line {lineno}: feature index must be >= 1, got {idx}"
                )
            if idx <= prev_idx:
                raise LibsvmParseError(
                    f"line {lineno}: feature indices must be strictly increasing "
                    f"({idx} after {prev_idx})"
                )
            row.append((idx, val))
            prev_idx = idx
        labels.append(label)
        rows.append(row)
        max_idx = max(max_idx, prev_idx)

    if not rows:
        raise LibsvmParseError("line 1: empty input, no data rows")
    return LibsvmDataset(np.asarray(labels, dtype=float), rows, max_idx)


def serialize_libsvm(dataset: LibsvmDataset) -> str:
    """Inverse of parse_libsvm on the parsed representation."""
    out = []
    for label, row in zip(dataset.labels, dataset.rows):
        parts = [repr(float(label))]
        parts.extend(f"{idx}:{repr(float(val))}" for idx, val in row)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def scale_columns_unit(X: np.ndarray) -> np.ndarray:
    """Scale each column into [-1, 1] by its max absolute value (zero columns kept)."""
    scale = np.abs(X).max(axis=0)
    scale[scale == 0.0] = 1.0
    return X / scale


def binary_logreg_from_arrays(
    X: np.ndarray, y: np.ndarray, lam: float = 1e-3
) -> FiniteSumProblem:
    """Binary logistic NLL with the bounded nonconvex penalty.

    f_i(w) = log(1 + exp(x_i.w)) - y_i x_i.w + lam * r(w),  y_i in {0, 1}.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("binary labels must be in {0, 1}")
    row_norms = np.linalg.norm(X, axis=1)
    rmax = float(row_norms.max()) if n else 0.0

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
        Xr, _, c = rows(idx, _LOGREG_HESS_IN_PLACE)
        s = _sigmoid(Xr @ w)
        H = (Xr * (c * s * (1.0 - s))[:, None]).T @ Xr
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def make_binary_logreg(dataset: LibsvmDataset, lam: float = 1e-3) -> FiniteSumProblem:
    """Binary problem from a parsed dataset; smaller raw label becomes class 0."""
    return binary_logreg_from_arrays(dataset.to_dense(), dataset.binary_labels(), lam)


def multiclass_logreg_from_arrays(
    X: np.ndarray,
    class_id: np.ndarray,
    num_classes: int,
    lam: float = 1e-3,
) -> FiniteSumProblem:
    """Softmax cross-entropy over a flattened (m*d,) weight vector.

    The variable is W (m rows of d weights) stored row-major as w = W.ravel().
    """
    X = np.asarray(X, dtype=float)
    class_id = np.asarray(class_id, dtype=int)
    n, d = X.shape
    m = int(num_classes)
    if class_id.min() < 0 or class_id.max() >= m:
        raise ValueError(f"label out of range for {m} classes")
    Y = np.zeros((n, m))
    Y[np.arange(n), class_id] = 1.0
    rmax = float(np.linalg.norm(X, axis=1).max()) if n else 0.0

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
        dataset.to_dense(), dataset.class_ids(num_classes), num_classes, lam=lam
    )


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
    """
    if difficulty not in SYNTHETIC_DIFFICULTIES:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    rng = np.random.default_rng(seed)
    alpha = 0.0 if difficulty == "convex" else 0.5

    A = np.empty((n, d, d))
    for i in range(n):
        G = rng.standard_normal((d, d))
        S = (G + G.T) / 2.0
        if difficulty == "convex":
            S = S @ S.T
        A[i] = 0.9 * S / max(np.linalg.norm(S, 2), 1e-12)
    b = rng.standard_normal((n, d)) / math.sqrt(d)

    A2 = A.reshape(n, d * d)

    def means(idx):
        c = _in_place_weights(idx, n, _SYNTHETIC_IN_PLACE)
        if c is None:
            return A[idx].mean(axis=0), b[idx].mean(axis=0)
        return (c @ A2).reshape(d, d), c @ b

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
        extra={"A": A, "b": b, "alpha": alpha, "seed": seed},
    )
