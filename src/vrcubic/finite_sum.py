"""Finite-sum problems F(x) = (1/n) sum_i f_i(x) and their sampled oracles.

A problem bundles batch kernels -- multiset means of the component values,
gradients, Hessians or Hessian-vector products -- with smoothness metadata.
Everything downstream (batch estimators, drivers, diagnostics) goes through
the batch_* functions in this module, which call those kernels only, so
that oracle accounting stays in one place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FiniteSumProblem",
    "from_components",
    "OracleCounter",
    "sample_multiset",
    "batch_value",
    "batch_gradient",
    "batch_hessian",
    "batch_hvp",
    "full_index",
    "DENSE_LIMIT",
]

# Above this dimension a problem has no Hessian oracle.  A Hessian-only problem
# (make_synthetic, say) still forms one d x d mean per Hessian-vector operator.
DENSE_LIMIT = 2000

# oracle kinds: each names a batch_<kind>_fn kernel and an OracleCounter.<kind>_calls
_ORACLE_NAMES = {"value": "value", "grad": "gradient", "hess": "Hessian", "hvp": "Hessian-vector"}


def _check_integer(name: str, value, least: int) -> None:
    """TypeError unless value is an integer (a bool is not one), ValueError below least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        rule = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_positive(**params: float) -> None:
    """Raise ValueError naming the first parameter that is not finite and > 0."""
    for name, value in params.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_nonnegative(**params: float) -> None:
    """Raise ValueError naming the first parameter that is not finite and >= 0."""
    for name, value in params.items():
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def _check_probability(**params: float) -> None:
    """Raise ValueError naming the first parameter that is not in the open interval (0, 1)."""
    for name, value in params.items():
        if not 0 < value < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass
class OracleCounter:
    """Running totals of the component-oracle evaluations asked for.

    Counts are cumulative and only ever increase.  A batch of size B charges
    B calls to the corresponding counter: the bill counts the component
    evaluations asked of a kernel, as the paper does.  A caller that already
    holds an answer reuses it and asks nothing.  Value evaluations are
    tracked too so diagnostic bookkeeping can stay separate from the
    stochastic budget.
    """

    grad_calls: int = 0
    hess_calls: int = 0
    hvp_calls: int = 0
    value_calls: int = 0


@dataclass
class FiniteSumProblem:
    """F(x) = (1/n) sum_{i<n} f_i(x), given by batch kernels.

    Parameters
    ----------
    n, dim : number of components and ambient dimension.
    lipschitz_grad : L, gradient Lipschitz constant of every f_i.
    lipschitz_hess : rho, Hessian Lipschitz constant of every f_i; both
        constants must be positive and finite.
    grad_bound : bound on ||grad f_i(x) - grad F(x)||_2, np.inf if none holds.
    batch_*_fn : vectorized kernels computing the multiset mean of the
        component values, gradients or Hessians in one shot, called as
        (idx, x) with idx an integer array of 0-based component indices;
        the kernel on [i] is component i.  Each query calls its kernel once.
        The Hessian-vector kernel, called as (idx, x), returns the
        linearization at that point: an operator v -> mean of
        grad^2 f_i(x) @ v over idx, which does its point-dependent work once
        and is then applied to many vectors (see :func:`batch_hvp`).

    The value and gradient kernels are required, the Hessian and
    Hessian-vector ones are optional.  When no Hessian-vector kernel is
    given, the operator comes from the Hessian kernel:
    ``batch_hess_fn(idx, x).__matmul__``, one batch Hessian per operator.
    Per-component oracles enter through :func:`from_components`, which
    lifts all of them; a problem takes no mix of the two forms.

    Above ``DENSE_LIMIT`` dimensions the problem has no Hessian oracle: the
    Hessian kernel is dropped after the Hessian-vector products are derived,
    so a Hessian-only problem keeps those.  Everything that needs a d x d
    Hessian asks whether ``batch_hess_fn`` is set.
    """

    n: int
    dim: int
    lipschitz_grad: float = 1.0
    lipschitz_hess: float = 1.0
    grad_bound: float = np.inf
    batch_value_fn: Callable[[np.ndarray, np.ndarray], float] | None = None
    batch_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    batch_hess_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    batch_hvp_fn: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]] | None = None
    name: str = "finite-sum"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_integer("n", self.n, 1)
        _check_integer("dim", self.dim, 1)
        _check_positive(lipschitz_hess=self.lipschitz_hess, lipschitz_grad=self.lipschitz_grad)
        for kind in ("value", "grad"):
            if getattr(self, f"batch_{kind}_fn") is None:
                raise ValueError(
                    f"problem {self.name!r} has no {_ORACLE_NAMES[kind]} oracle: "
                    f"give batch_{kind}_fn, or {kind} to from_components"
                )
        batch_hess = self.batch_hess_fn
        if self.batch_hvp_fn is None and batch_hess is not None:
            self.batch_hvp_fn = lambda idx, x: batch_hess(idx, x).__matmul__
        if self.dim > DENSE_LIMIT:
            self.batch_hess_fn = None


def from_components(n: int, dim: int, value, grad, hess=None, hvp=None, **constants) -> FiniteSumProblem:
    """Problem from per-component oracles, called as (i, x) resp. (i, x, v).

    Each given oracle is lifted to a kernel that takes the mean over idx,
    summed in index order; the products of a lifted ``hvp`` are such means
    too.  ``constants`` are the other FiniteSumProblem fields
    (``lipschitz_grad``, ``name``, ...).  A Hessian oracle alone gives
    products (index-order mean Hessian) @ v.  Kernels cannot be mixed in: a
    ``batch_*_fn`` among the constants is a TypeError.
    """
    if mixed := sorted(key for key in constants if key.startswith("batch_")):
        raise TypeError(f"from_components takes no kernels, got {', '.join(mixed)}")
    given = {"value": (value, ()), "grad": (grad, (dim,)), "hess": (hess, (dim, dim)),
             "hvp": (hvp, (dim,))}
    kernels = {
        f"batch_{kind}_fn": _index_order_mean(oracle, shape)
        for kind, (oracle, shape) in given.items()
        if oracle is not None
    }
    if hvp is not None:
        mean_hvp = kernels["batch_hvp_fn"]
        kernels["batch_hvp_fn"] = lambda idx, x: lambda v: mean_hvp(idx, x, v)
    return FiniteSumProblem(n=n, dim=dim, **kernels, **constants)


def _index_order_mean(oracle, shape):
    """Kernel from a component oracle: the mean over idx, summed in index order."""

    def kernel(idx, x, *v):
        acc = np.zeros(shape)
        for i in idx:
            acc += oracle(int(i), x, *v)
        return acc / idx.size

    return kernel


def full_index(problem: FiniteSumProblem) -> np.ndarray:
    """Index array selecting every component once."""
    return np.arange(problem.n)


def sample_multiset(rng: np.random.Generator, n: int, B: int) -> np.ndarray:
    """Draw B component indices uniformly with replacement, sorted ascending.

    B >= n short-circuits to the full index set 0..n-1 and consumes no
    randomness, so full-batch requests stay deterministic and are charged n
    calls, never more.
    """
    _check_integer("n", n, 1)
    _check_integer("B", B, 1)
    if B >= n:
        return np.arange(n)
    idx = rng.integers(0, n, size=B)
    idx.sort()  # fixed reduction order keeps seeded runs bit-reproducible
    return idx


def _charge(problem: FiniteSumProblem, x, idx: np.ndarray, counter: OracleCounter | None, kind: str):
    """Validate x and idx, then charge |idx| ``kind`` calls; returns (kernel, x, idx).

    A point of the wrong shape, a bad index multiset or a missing kernel raises
    before anything is charged.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.dim},)")
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty index multiset")
    if idx.dtype.kind not in "iu":
        raise IndexError(f"component indices must be integers, got dtype {idx.dtype}")
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
    return kernel, x, idx


def batch_value(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> float:
    """Multiset mean of f_i(x) over idx; charges |idx| value calls."""
    fn, x, idx = _charge(problem, x, idx, counter, "value")
    return float(fn(idx, x))


def batch_gradient(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Multiset mean of grad f_i(x) over idx; charges |idx| gradient calls."""
    fn, x, idx = _charge(problem, x, idx, counter, "grad")
    return np.asarray(fn(idx, x), dtype=float)


def batch_hessian(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> np.ndarray:
    """Multiset mean of the component Hessians; charges |idx| Hessian calls."""
    fn, x, idx = _charge(problem, x, idx, counter, "hess")
    return np.asarray(fn(idx, x), dtype=float)


def batch_hvp(
    problem: FiniteSumProblem,
    x: np.ndarray,
    idx: np.ndarray,
    counter: OracleCounter | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Operator v -> multiset mean of grad^2 f_i(x) @ v over idx.

    idx is checked, and the kernel called once on copies of idx and x, when
    the operator is built: a bad idx or a missing oracle raises then, with
    nothing charged, and later changes to the caller's arrays do not reach
    the operator.  Each product charges |idx| Hessian-vector calls.
    """
    fn, x, idx = _charge(problem, x, idx, None, "hvp")
    linearization = fn(idx.copy(), x.copy())

    def product(v: np.ndarray) -> np.ndarray:
        if counter is not None:
            counter.hvp_calls += idx.size
        return np.asarray(linearization(v), dtype=float)

    return product
