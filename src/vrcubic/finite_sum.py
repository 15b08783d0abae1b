"""Finite-sum problems F(x) = (1/n) sum_i f_i(x) and their sampled oracles.

A problem bundles batch kernels -- multiset means of the component values,
gradients, Hessians or Hessian-vector products -- with smoothness metadata.
Everything downstream (batch estimators, drivers, diagnostics) goes through
the batch_* functions in this module, which call those kernels only, so
that oracle accounting stays in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FiniteSumProblem",
    "OracleCounter",
    "sample_multiset",
    "batch_value",
    "batch_gradient",
    "batch_hessian",
    "batch_hvp",
    "full_index",
    "DENSE_LIMIT",
]

DENSE_LIMIT = 2000  # above this dimension no d x d Hessian is ever formed

# oracle kinds: each names a batch_<kind>_fn kernel and an OracleCounter.<kind>_calls
_ORACLE_NAMES = {"value": "value", "grad": "gradient", "hess": "Hessian", "hvp": "Hessian-vector"}


@dataclass
class OracleCounter:
    """Running totals of the component-oracle evaluations asked for.

    Counts are cumulative and only ever increase.  A batch of size B charges
    B calls to the corresponding counter, also when the kernel answers a
    repeated (idx, x) from memory: the bill counts the algorithm's queries,
    as the paper does.  Value evaluations are tracked too so diagnostic
    bookkeeping can stay separate from the stochastic budget.
    """

    grad_calls: int = 0
    hess_calls: int = 0
    hvp_calls: int = 0
    value_calls: int = 0

    def snapshot(self) -> "OracleCounter":
        return OracleCounter(
            self.grad_calls, self.hess_calls, self.hvp_calls, self.value_calls
        )


@dataclass
class FiniteSumProblem:
    """F(x) = (1/n) sum_{i<n} f_i(x), given by batch kernels or component oracles.

    Parameters
    ----------
    n, dim : number of components and ambient dimension.
    component_value / component_grad : per-component oracles, called as (i, x).
    component_hess : optional explicit d x d Hessian oracle.
    component_hvp : optional Hessian-vector oracle, called as (i, x, v).
    lipschitz_grad : L, gradient Lipschitz constant of every f_i.
    lipschitz_hess : rho > 0, Hessian Lipschitz constant of every f_i.
    grad_bound : bound on ||grad f_i(x) - grad F(x)||_2, np.inf if none holds.
    batch_*_fn : vectorized kernels computing the multiset mean in one shot;
        must agree with the per-component oracles.  Signature is (idx, x)
        resp. (idx, x, v) with idx an integer array.  Every kernel must be
        a pure function of its arguments: the value, gradient and Hessian
        kernels are wrapped to answer a repeat of their last (idx, x) from
        memory, and the built-in Hessian-vector kernels keep the
        point-dependent part of their last (idx, x) and reuse it while the
        same (idx, x) comes back with new vectors v.  A repeat is still
        billed, and a caller always gets an array of its own.

    Either protocol is accepted, per oracle: a value and a gradient oracle
    are required (component or kernel), the Hessian and Hessian-vector ones
    are optional.  The kernels are canonical.  A missing kernel is lifted
    from its component oracle as the mean over idx, accumulated in index
    order; a missing component oracle is derived as its kernel on the
    singleton [i].  When no Hessian-vector oracle is given, the products
    come from the Hessian kernel (lifted from ``component_hess`` if need
    be): ``batch_hess_fn(idx, x) @ v``, with the batch Hessian formed once
    per (idx, x).  Component indices are 0-based.

    Above ``DENSE_LIMIT`` dimensions the problem has no Hessian oracle: both
    Hessian forms are dropped after the Hessian-vector products are derived,
    so a Hessian-only problem keeps those.  Everything that needs a d x d
    Hessian asks whether ``batch_hess_fn`` is set.
    """

    n: int
    dim: int
    component_value: Callable[[int, np.ndarray], float] | None = None
    component_grad: Callable[[int, np.ndarray], np.ndarray] | None = None
    component_hess: Callable[[int, np.ndarray], np.ndarray] | None = None
    component_hvp: Callable[[int, np.ndarray, np.ndarray], np.ndarray] | None = None
    lipschitz_grad: float = 1.0
    lipschitz_hess: float = 1.0
    grad_bound: float = np.inf
    batch_value_fn: Callable[[np.ndarray, np.ndarray], float] | None = None
    batch_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    batch_hess_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    batch_hvp_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    name: str = "finite-sum"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"need at least one component, got n={self.n}")
        if self.dim <= 0:
            raise ValueError(f"need positive dimension, got dim={self.dim}")
        if not self.lipschitz_hess > 0:
            raise ValueError("lipschitz_hess must be positive")
        if not self.lipschitz_grad > 0:
            raise ValueError("lipschitz_grad must be positive")
        d = self.dim
        if self.batch_hess_fn is None and self.component_hess is not None:
            self.batch_hess_fn = _index_order_mean(self.component_hess, (d, d))
        batch_hess = self.batch_hess_fn
        if self.batch_hvp_fn is None and self.component_hvp is None and batch_hess is not None:
            self.batch_hvp_fn = _linearized(lambda idx, x: batch_hess(idx, x).__matmul__)
        for kind, shape in (("value", ()), ("grad", (d,)), ("hess", (d, d)), ("hvp", (d,))):
            component, kernel = getattr(self, f"component_{kind}"), getattr(self, f"batch_{kind}_fn")
            if kernel is None and component is not None:
                setattr(self, f"batch_{kind}_fn", _index_order_mean(component, shape))
            elif component is None and kernel is not None:
                setattr(self, f"component_{kind}", _singleton(kernel))
            elif kernel is None and kind in ("value", "grad"):
                raise ValueError(
                    f"problem {self.name!r} has no {_ORACLE_NAMES[kind]} oracle: "
                    f"give component_{kind} or batch_{kind}_fn"
                )
        if d > DENSE_LIMIT:
            self.component_hess = self.batch_hess_fn = None
        for kind in ("value", "grad", "hess"):
            kernel = getattr(self, f"batch_{kind}_fn")
            if kernel is not None:
                setattr(self, f"batch_{kind}_fn", _last_query(kernel))


def _last_query(fn):
    """``fn(idx, x)`` that answers a repeat of its last (idx, x) from memory.

    The key is a copy of idx, compared by value, and the bytes of x, so an
    argument mutated in place is a new query, and -0.0 is not 0.0.  An array
    answer is copied into the memo and out of it: the caller owns what it
    gets, and mutating it cannot change a later answer.  A scalar or a
    linearization is immutable and handed out as it is.  The entry is one
    tuple, read once per call, so no call pairs one query's key with another
    query's answer.  This is sound only because a kernel is a pure function
    of (idx, x).
    """
    memo = None, None, None  # idx copy, x bytes, answer

    def kernel(idx, x):
        nonlocal memo
        kept_idx, kept_key, kept = memo
        key = np.asarray(x).tobytes()
        if key == kept_key and np.array_equal(idx, kept_idx):
            return _owned(kept)
        answer = fn(idx, x)
        memo = np.array(idx, copy=True), key, _owned(answer)
        return answer

    return kernel


def _owned(answer):
    return answer.copy() if isinstance(answer, np.ndarray) else answer


def _linearized(linearize):
    """Hessian-vector kernel from ``linearize(idx, x) -> (v -> mean Hv)``.

    The linearization of the last (idx, x) is kept, so a closure that applies
    one (idx, x) to many vectors pays its point-dependent work once.
    """
    linearization = _last_query(linearize)
    return lambda idx, x, v: linearization(idx, x)(v)


def _index_order_mean(oracle, shape):
    """Kernel from a component oracle: the mean over idx, summed in index order."""

    def kernel(idx, x, *v):
        acc = np.zeros(shape)
        for i in idx:
            acc += oracle(int(i), x, *v)
        return acc / idx.size

    return kernel


def _singleton(kernel):
    """Component oracle from a kernel: the kernel on the one-element multiset [i]."""
    return lambda i, x, *v: kernel(np.array([i]), x, *v)


def full_index(problem: FiniteSumProblem) -> np.ndarray:
    """Index array selecting every component once."""
    return np.arange(problem.n)


def sample_multiset(rng: np.random.Generator, n: int, B: int) -> np.ndarray:
    """Draw B component indices uniformly with replacement, sorted ascending.

    B >= n short-circuits to the full index set 0..n-1 and consumes no
    randomness, so full-batch requests stay deterministic and are charged n
    calls, never more.
    """
    if n <= 0:
        raise ValueError(f"cannot sample from n={n} components")
    if B <= 0:
        raise ValueError(f"batch size must be positive, got B={B}")
    if B >= n:
        return np.arange(n)
    idx = rng.integers(0, n, size=B)
    idx.sort()  # fixed reduction order keeps seeded runs bit-reproducible
    return idx


def _charge(problem: FiniteSumProblem, idx: np.ndarray, counter: OracleCounter | None, kind: str):
    """Validate idx, then charge |idx| ``kind`` calls; returns (kernel, idx).

    A bad index multiset or a missing kernel raises before anything is charged.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty index multiset")
    if idx.min() < 0 or idx.max() >= problem.n:
        raise IndexError(
            f"component index out of range [0, {problem.n}): "
            f"got {int(idx.min())}..{int(idx.max())}"
        )
    kernel = getattr(problem, f"batch_{kind}_fn")
    if kernel is None:
        too_big = kind == "hess" and problem.dim > DENSE_LIMIT
        why = f": dimension {problem.dim} exceeds the dense limit {DENSE_LIMIT}" if too_big else ""
        raise ValueError(f"problem {problem.name!r} has no {_ORACLE_NAMES[kind]} oracle{why}")
    if counter is not None:
        setattr(counter, f"{kind}_calls", getattr(counter, f"{kind}_calls") + idx.size)
    return kernel, idx


def batch_value(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> float:
    """Multiset mean of f_i(x) over idx; charges |idx| value calls."""
    fn, idx = _charge(problem, idx, counter, "value")
    return float(fn(idx, x))


def batch_gradient(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Multiset mean of grad f_i(x) over idx; charges |idx| gradient calls."""
    fn, idx = _charge(problem, idx, counter, "grad")
    return np.asarray(fn(idx, x), dtype=float)


def batch_hessian(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Multiset mean of the component Hessians; charges |idx| Hessian calls."""
    fn, idx = _charge(problem, idx, counter, "hess")
    return np.asarray(fn(idx, x), dtype=float)


def batch_hvp(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    v: np.ndarray,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Multiset mean of grad^2 f_i(x) @ v; charges |idx| product calls."""
    fn, idx = _charge(problem, idx, counter, "hvp")
    return np.asarray(fn(idx, x, v), dtype=float)
