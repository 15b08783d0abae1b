"""Problem factories: nonconvex-regularized logistic regression and synthetic sums.

The nonconvex regularizer used throughout is r(w) = sum_j w_j^2 / (1 + w_j^2),
a bounded penalty that keeps every objective smooth while breaking convexity.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
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

# Bytes of component matrices that make_synthetic transforms as one chunk: 32
# matrices at d = 40.  Smaller chunks lose the batched LAPACK call's gain to
# per-call overhead; larger ones raise each worker's temporaries.
_SYNTHETIC_CHUNK_BYTES = 400 * 1024


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
    """Parsed svmlight/libsvm data: raw labels plus sparse 1-based features in CSR form.

    Row i holds the features ``indices[indptr[i]:indptr[i + 1]]`` (strictly
    increasing, 1-based) with values ``data[indptr[i]:indptr[i + 1]]``.  Two
    datasets are equal when num_features and the four arrays' values agree.
    """

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    num_features: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, LibsvmDataset):
            return NotImplemented
        return self.num_features == other.num_features and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("labels", "indptr", "indices", "data")
        )

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def rows(self) -> list[list[tuple[int, float]]]:
        """Each row as a list of (index, value) pairs."""
        idx, val, bounds = self.indices.tolist(), self.data.tolist(), self.indptr.tolist()
        return [list(zip(idx[a:b], val[a:b])) for a, b in zip(bounds, bounds[1:])]

    def to_dense(self) -> np.ndarray:
        X = np.zeros((self.n, self.num_features))
        X[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices - 1] = self.data
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


# Lines parsed at a time: bounds the transient token list and byte masks.
_BLOCK_LINES = 256
# Feature indices are decoded from their ASCII digits in int64; an index needs
# fewer digits than this, leading zeros aside.
_INDEX_DIGITS = 18
_POW10 = np.array([10**k for k in range(_INDEX_DIGITS)], dtype=np.int64)
# The ASCII bytes that str.split() splits on.
_SPACE = np.array([chr(b).isspace() for b in range(128)] + [False] * 128)


def parse_libsvm(source) -> LibsvmDataset:
    """Parse svmlight/libsvm text: one "<label> <idx>:<val> ..." row per line.

    ``source`` is a str or bytes (split into lines as ``str.splitlines``
    splits), or an iterable of str or bytes lines.  Only ASCII is accepted.
    Feature indices are 1-based, below 10**18 and strictly increasing within
    a row; labels and values are what ``float()`` reads, finite, and take no
    digit-group underscores ("1_0").  Blank lines are skipped; errors report
    the 1-based line number of the first bad line.
    """
    lines, non_ascii = _ascii_lines(source)
    blocks = [_parse_block(lines[at:at + _BLOCK_LINES], at + 1)
              for at in range(0, len(lines), _BLOCK_LINES)]
    if non_ascii:
        raise LibsvmParseError(non_ascii)
    if not any(block[0].size for block in blocks):
        raise LibsvmParseError("line 1: empty input, no data rows")
    labels, counts, indices, data = map(np.concatenate, zip(*blocks))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    num_features = int(indices.max()) if indices.size else 0
    return LibsvmDataset(labels, indptr, indices, data, num_features)


def _ascii_lines(source) -> tuple[list[str], str | None]:
    """The lines of source before its first non-ASCII character, and the error naming it.

    The error is None when all of source is ASCII.
    """
    if isinstance(source, (str, bytes)):
        at = _non_ascii_at(source)
        head = source[:at]
        text = head.decode("ascii") if isinstance(head, bytes) else head
        if at == len(source):
            return text.splitlines(), None
        lineno = len((text + "x").splitlines())
        return text.splitlines()[:lineno - 1], _non_ascii_error(lineno, source, at)
    lines = list(source)
    for k, line in enumerate(lines):
        at = _non_ascii_at(line)
        if at < len(line):
            return _ascii_lines(lines[:k])[0], _non_ascii_error(k + 1, line, at)
        if isinstance(line, bytes):
            lines[k] = line.decode("ascii")
    return lines, None


def _non_ascii_at(text) -> int:
    """Position of the first non-ASCII character of a str or bytes, or its length."""
    if text.isascii():
        return len(text)
    try:
        text.decode("ascii") if isinstance(text, bytes) else text.encode("ascii")
    except UnicodeError as exc:
        return exc.start
    return len(text)


def _non_ascii_error(lineno: int, text, at: int) -> str:
    return f"line {lineno}: non-ASCII character {text[at:at + 1]!r}"


def _parse_block(lines: list[str], first: int):
    """Labels, features per row, indices and values of the rows in ``lines``.

    ``first`` is the line number of lines[0].  When a bulk check fails, the
    lines are walked one at a time to raise the first bad line's error.
    """
    parts = _bulk_parse(lines)
    if parts is not None:
        return parts
    for k, line in enumerate(lines):
        message = _line_error(line)
        if message:
            raise LibsvmParseError(f"line {first + k}: {message}")
    raise AssertionError("a bulk libsvm check failed on lines that parse")


def _bulk_parse(lines: list[str]):
    """_parse_block's arrays from whole-block array operations, or None on any bad line."""
    raw = "\n".join(lines).encode("ascii")
    if b"_" in raw:
        return None
    buf = np.frombuffer(raw, np.uint8)
    text = buf.copy()  # what float() reads: labels and values, all else blanked
    # Tokens.  Above " " every byte is a token byte; at or below, all but the
    # bytes.split() separators (space and \t\n\v\f\r) are rare, so they are
    # classified one by one.
    word = np.zeros(buf.size + 2, bool)
    word[1:-1] = buf > ord(" ")
    rare = np.flatnonzero((buf < ord("\t")) | (buf - 14 < 18))
    space = _SPACE[buf[rare]]
    word[rare + 1] = ~space
    text[rare[space]] = ord(" ")
    start, end = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T
    # The first token at or after each line's start is a label (the next
    # line's, when the line is blank).
    step = np.fromiter(map(len, lines), np.intp, len(lines)) + 1
    label = np.zeros(start.size + 1, bool)
    label[np.searchsorted(start, np.cumsum(step) - step)] = True
    label = label[:-1]
    feature = np.flatnonzero(~label)

    # Colons sit one inside each feature token and in no label, so the k-th
    # colon belongs to the k-th feature.
    colon = np.flatnonzero(buf == ord(":"))
    fstart = start[feature]
    if colon.size != feature.size or not ((fstart < colon) & (colon < end[feature] - 1)).all():
        return None

    # An index that parses is +?[0-9]+ (a "-" makes it negative or no
    # number).  Decode its digits, then blank it and its colon out of the text.
    width = colon + 1 - fstart
    offset = np.cumsum(width) - width
    at = np.arange(width.sum()) + np.repeat(fstart - offset, width)
    digit = buf[at] - ord("0")
    plus = np.count_nonzero(buf[fstart] == ord("+"))
    if np.count_nonzero(digit > 9) != plus + feature.size:  # no other byte but "+" and ":"
        return None
    digit[digit > 9] = 0
    place = np.repeat(colon, width) - at - 1
    if (digit[place >= _INDEX_DIGITS] > 0).any():
        return None
    index = np.add.reduceat(
        digit * _POW10[np.clip(place, 0, _INDEX_DIGITS - 1)], offset
    ) if feature.size else np.zeros(0, np.int64)
    first_of_row = label[feature - 1]
    if not ((index >= 1).all() and ((np.diff(index) > 0) | first_of_row[1:]).all()):
        return None
    text[at] = ord(" ")

    # Labels and values, in token order.
    try:
        numbers = np.fromiter(map(float, text.tobytes().split()), float, start.size)
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    counts = np.diff(np.flatnonzero(label), append=start.size) - 1
    return numbers[label], counts, index, numbers[feature]


def _line_error(line: str) -> str | None:
    """The grammar error on one line (without its line number), or None if it parses."""
    tokens = line.split()
    if not tokens:
        return None
    if "_" in line:  # int() and float() read digit-group underscores; libsvm does not
        bad = next(tok for tok in tokens if "_" in tok)
        return f"bad label {bad!r}" if bad is tokens[0] else f"bad feature token {bad!r}"
    try:
        label = float(tokens[0])
    except ValueError:
        return f"bad label {tokens[0]!r}"
    if not math.isfinite(label):
        return f"label {tokens[0]!r} is not finite"
    prev_idx = 0
    for tok in tokens[1:]:
        idx_s, _, val_s = tok.partition(":")  # no colon leaves val_s empty
        try:
            idx, val = int(idx_s), float(val_s)
        except ValueError:
            return f"bad feature token {tok!r}"
        if not math.isfinite(val):
            return f"feature value {tok!r} is not finite"
        if idx < 1:
            return f"feature index must be >= 1, got {idx}"
        if idx >= 10**_INDEX_DIGITS:
            return f"feature index {idx} is too large"
        if idx <= prev_idx:
            return f"feature indices must be strictly increasing ({idx} after {prev_idx})"
        prev_idx = idx
    return None


def serialize_libsvm(dataset: LibsvmDataset) -> str:
    """Inverse of parse_libsvm on the parsed representation."""
    idx, val, bounds = dataset.indices.tolist(), dataset.data.tolist(), dataset.indptr.tolist()
    out = []
    for label, a, b in zip(dataset.labels.tolist(), bounds, bounds[1:]):
        parts = [repr(label)]
        parts.extend(f"{j}:{v!r}" for j, v in zip(idx[a:b], val[a:b]))
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
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without masks.

    min(z, -z) = -|z| keeps the sign of a NaN (np.minimum returns the first
    of two NaNs), so NaN entries keep their bytes as well.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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


def _normalize_components(A: np.ndarray, convex: bool) -> None:
    """_normalize_chunk over A's stack, in chunks of _SYNTHETIC_CHUNK_BYTES.

    The chunks are dealt out to one thread per available CPU (the calling
    thread is one of them; numpy's linalg and large elementwise operations
    release the GIL), and every thread is joined before this returns.  A
    single chunk runs in the calling thread alone.
    """
    n, d = A.shape[:2]
    size = max(1, _SYNTHETIC_CHUNK_BYTES // (d * d * A.itemsize))
    chunks = [A[i : i + size] for i in range(0, n, size)]
    workers = min(_available_cpus(), len(chunks))
    errors = []

    def work(first: int) -> None:
        try:
            for chunk in chunks[first::workers]:
                _normalize_chunk(chunk, convex)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=work, args=(first,))
            thread.start()
            threads.append(thread)
        work(0)
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

    The A_i are drawn in one call and then transformed in chunks, on one
    thread per CPU available to the process; A and b are byte-identical to
    drawing and normalizing each A_i in turn, whatever the thread count.

    The full-batch means of A_i and b_i do not depend on x, so they are
    computed once here; a batch whose in-place weights are uniform (the full
    index set in any order) reads them instead of all n components.  The
    answer is the one the in-place sum gives, and a full query still bills n.
    ``extra["A"]`` and ``extra["b"]`` are read-only, so those means cannot go
    stale.
    """
    for name, size, what in (("n", n, "at least one component"), ("d", d, "positive dimension")):
        if isinstance(size, bool) or not isinstance(size, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {size!r}")
        if size < 1:
            raise ValueError(f"need {what}, got {name}={size}")
    if difficulty not in SYNTHETIC_DIFFICULTIES:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    rng = np.random.default_rng(seed)
    alpha = 0.0 if difficulty == "convex" else 0.5

    A = np.empty((n, d, d))
    rng.standard_normal(out=A)
    b = rng.standard_normal((n, d)) / math.sqrt(d)
    _normalize_components(A, convex=difficulty == "convex")
    A.setflags(write=False)
    b.setflags(write=False)

    A2 = A.reshape(n, d * d)
    uniform = _in_place_weights(np.arange(n), n, _SYNTHETIC_IN_PLACE)
    Afull, bfull = (uniform @ A2).reshape(d, d), uniform @ b

    def means(idx):
        c = _in_place_weights(idx, n, _SYNTHETIC_IN_PLACE)
        if c is None:
            return A[idx].mean(axis=0), b[idx].mean(axis=0)
        if np.array_equal(c, uniform):
            return Afull.copy(), bfull.copy()
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
