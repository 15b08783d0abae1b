import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic import objectives
from vrcubic.diagnostics import min_eigenvalue
from vrcubic.drivers import AdaptivePenalty, SolverConfig, run_srvrc, run_srvrc_free
from vrcubic.estimators import PracticalBatchRule
from vrcubic.finite_sum import (
    OracleCounter,
    batch_gradient,
    batch_hessian,
    batch_hvp,
    batch_value,
    full_index,
)
from vrcubic.objectives import (
    LibsvmParseError,
    binary_logreg_from_arrays,
    make_binary_logreg,
    make_multiclass_logreg,
    make_synthetic,
    multiclass_logreg_from_arrays,
    parse_libsvm,
    scale_columns_unit,
    serialize_libsvm,
)

COUNTER = OracleCounter()  # shared sink for tests that ignore accounting


def fd_gradient(problem, x, step=1e-6):
    """Central-difference gradient of the full objective; the reference oracle."""
    g = np.zeros(problem.dim)
    full = full_index(problem)
    for j in range(problem.dim):
        e = np.zeros(problem.dim)
        e[j] = step
        fp = batch_value(problem, x + e, full, COUNTER)
        fm = batch_value(problem, x - e, full, COUNTER)
        g[j] = (fp - fm) / (2 * step)
    return g


class TestLibsvmParsing:
    def test_single_line(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n")
        assert ds.n == 1
        assert ds.num_features == 3
        assert ds.labels[0] == 1.0
        assert ds.rows[0] == [(1, 0.5), (3, 2.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(LibsvmParseError, match="empty"):
            parse_libsvm("")

    def test_binary_label_mapping_sorts_raw_values(self):
        ds = parse_libsvm("-1 1:1.0\n+1 1:2.0\n")
        y = ds.binary_labels()
        assert_allclose(y, [0.0, 1.0])

    def test_binary_label_mapping_is_order_independent(self):
        ds = parse_libsvm("3 1:1.0\n1 1:2.0\n3 1:0.5\n")
        assert_allclose(ds.binary_labels(), [1.0, 0.0, 1.0])

    def test_nonbinary_labels_rejected(self):
        ds = parse_libsvm("1 1:1.0\n2 1:1.0\n3 1:1.0\n")
        with pytest.raises(ValueError, match="2 distinct"):
            ds.binary_labels()

    def test_malformed_feature_names_line_number(self):
        for bad in ("banana", "1:nan", "1:inf", "2:-inf"):
            with pytest.raises(LibsvmParseError, match="line 2"):
                parse_libsvm(f"1 1:0.5\n1 {bad}\n")

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(LibsvmParseError, match="line 1"):
            parse_libsvm("1 3:0.5 2:1.0\n")

    def test_zero_index_rejected(self):
        with pytest.raises(LibsvmParseError, match="line 1"):
            parse_libsvm("1 0:0.5\n")

    def test_bad_label_rejected(self):
        for bad in ("x", "nan", "inf", "-Infinity"):
            with pytest.raises(LibsvmParseError, match="line 3"):
                parse_libsvm(f"1 1:1\n0 1:1\n{bad} 1:1\n")

    def test_roundtrip_through_serializer(self):
        text = "1 1:0.5 3:2.0\n-1 2:-1.25\n1 1:1e-3\n"
        ds = parse_libsvm(text)
        ds2 = parse_libsvm(serialize_libsvm(ds))
        assert ds2.n == ds.n
        assert ds2.num_features == ds.num_features
        assert_allclose(ds2.labels, ds.labels)
        assert ds2.rows == ds.rows

    def test_to_dense(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n-1 2:1.0\n")
        X = ds.to_dense()
        assert_allclose(X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])

    def test_class_ids_one_based(self):
        ds = parse_libsvm("1 1:1\n3 1:1\n2 1:1\n")
        assert_allclose(ds.class_ids(3), [0, 2, 1])

    def test_class_ids_zero_based(self):
        ds = parse_libsvm("0 1:1\n2 1:1\n")
        assert_allclose(ds.class_ids(3), [0, 2])

    def test_class_ids_out_of_range(self):
        ds = parse_libsvm("5 1:1\n")
        with pytest.raises(ValueError, match="out of range"):
            ds.class_ids(3)


class TestColumnScaling:
    def test_columns_land_in_unit_interval(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
        Xs = scale_columns_unit(X)
        assert np.max(np.abs(Xs)) <= 1.0 + 1e-12
        assert_allclose(np.max(np.abs(Xs), axis=0), np.ones(4))

    def test_zero_column_left_alone(self):
        X = np.array([[0.0, 2.0], [0.0, -4.0]])
        Xs = scale_columns_unit(X)
        assert_allclose(Xs[:, 0], [0.0, 0.0])
        assert_allclose(Xs[:, 1], [0.5, -1.0])


class TestBinaryLogreg:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.standard_normal((12, 4))
        self.y = (rng.uniform(size=12) < 0.5).astype(float)
        self.p = binary_logreg_from_arrays(self.X, self.y, lam=1e-3)

    def test_value_at_origin_is_log2(self):
        # sigmoid(0) = 1/2 and the penalty vanishes at w = 0
        f = batch_value(self.p, np.zeros(4), full_index(self.p), COUNTER)
        assert_allclose(f, math.log(2.0), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            w = 0.5 * rng.standard_normal(4)
            g = batch_gradient(self.p, w, full_index(self.p), COUNTER)
            assert_allclose(g, fd_gradient(self.p, w), rtol=1e-6, atol=1e-8)

    def test_regularizer_only_gradient(self):
        # zero features kill the data term; d/dw of lam*w^2/(1+w^2) is
        # 2*lam*w/(1+w^2)^2
        lam = 0.25
        p = binary_logreg_from_arrays(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]), lam=lam)
        w = np.array([0.7, -1.3])
        g = batch_gradient(p, w, full_index(p), COUNTER)
        assert_allclose(g, 2 * lam * w / (1 + w**2) ** 2, rtol=1e-12)

    def test_hvp_matches_hessian(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        H = batch_hessian(self.p, w, full_index(self.p), COUNTER)
        hv = batch_hvp(self.p, w, full_index(self.p), COUNTER)(v)
        assert_allclose(hv, H @ v, rtol=1e-10, atol=1e-12)

    def test_hessians_symmetric(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(4)
        H = batch_hessian(self.p, w, full_index(self.p), COUNTER)
        assert_allclose(H, H.T, rtol=1e-12)

    def test_penalty_bounded_by_lam_d(self):
        # w^2/(1+w^2) < 1 per coordinate, so the penalty sits in [0, lam*d]
        lam = 1e-3
        base = binary_logreg_from_arrays(self.X, self.y, lam=0.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            w = 10 * rng.standard_normal(4)
            gap = batch_value(self.p, w, full_index(self.p), COUNTER) - batch_value(
                base, w, full_index(base), COUNTER
            )
            assert 0.0 <= gap <= lam * 4 + 1e-12

    def test_grad_bound_metadata_holds_empirically(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = 3 * rng.standard_normal(4)
            i = int(rng.integers(0, self.p.n))
            g = batch_gradient(self.p, w, np.array([i]), COUNTER)
            assert np.linalg.norm(g) <= self.p.grad_bound + 1e-9

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError):
            binary_logreg_from_arrays(self.X, np.full(12, 0.5), lam=1e-3)

    def test_make_from_dataset(self):
        ds = parse_libsvm("-1 1:1.0 2:0.5\n+1 2:1.5\n")
        p = make_binary_logreg(ds, lam=1e-3)
        assert p.n == 2 and p.dim == 2


def binary_golden_problem():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((200, 6))
    y = (rng.uniform(size=200) < 1 / (1 + np.exp(-X @ np.linspace(-1, 1, 6)))).astype(float)
    return binary_logreg_from_arrays(X, y, lam=1e-2)


# (exit, iterations, oracle bill, diagnostic bill) of seeded runs on
# binary_golden_problem(), captured while every batch kernel gathered its rows,
# bills re-captured once full-batch corrections became resets and the loop
# stopped re-asking queries it holds, and the srvrc_free HVP bill once its
# steps were Lanczos solves; a bill is (grad, hess, hvp, value) calls.
# The theoretical rule clamps every batch to n = 200; the practical rules
# alternate 160/80 gradient batches (both sides of the first-order
# crossover), 196/98 Hessian batches (both sides of the second-order one) and
# 60-component Hessian-vector batches.
BINARY_GOLDEN_RUNS = {
    "srvrc-theoretical": (run_srvrc, {}, ("converged", 21, (4200, 4200, 0, 0), (0, 0, 0, 4400))),
    "srvrc-adaptive": (
        run_srvrc,
        {"penalty": AdaptivePenalty()},
        ("converged", 6, (1200, 1200, 0, 0), (0, 0, 0, 1400)),
    ),
    "srvrc-practical": (
        run_srvrc,
        {"batch": PracticalBatchRule(160, 196, 2)},
        ("converged", 54, (8640, 10584, 0, 0), (0, 0, 0, 11000)),
    ),
    "srvrc_free-practical": (
        run_srvrc_free,
        {"batch": PracticalBatchRule(160, 60, 2)},
        ("converged", 22, (3520, 0, 1380, 0), (0, 0, 0, 4600)),
    ),
}


@pytest.mark.parametrize("name", sorted(BINARY_GOLDEN_RUNS))
def test_binary_golden_bills(name):
    runner, options, expected = BINARY_GOLDEN_RUNS[name]
    config = SolverConfig(eps=1e-2, T=60, x0=np.full(6, 0.5), seed=5, **options)
    result = runner(binary_golden_problem(), config)
    got = (
        result.exit,
        result.iterations,
        dataclasses.astuple(result.counters),
        dataclasses.astuple(result.diag_counters),
    )
    assert got == expected


class TestMulticlassLogreg:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.m, self.d = 3, 4
        self.X = rng.standard_normal((9, self.d))
        self.y = rng.integers(0, self.m, size=9)
        self.p = multiclass_logreg_from_arrays(self.X, self.y, self.m, lam=1e-3)

    def test_loss_at_zero_is_log_m(self):
        f = batch_value(self.p, np.zeros(self.m * self.d), full_index(self.p), COUNTER)
        assert_allclose(f, math.log(self.m), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        w = 0.3 * rng.standard_normal(self.m * self.d)
        g = batch_gradient(self.p, w, full_index(self.p), COUNTER)
        assert_allclose(g, fd_gradient(self.p, w), rtol=1e-6, atol=1e-8)

    def test_hvp_matches_dense_hessian(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal(self.m * self.d)
        v = rng.standard_normal(self.m * self.d)
        H = batch_hessian(self.p, w, full_index(self.p), COUNTER)
        hv = batch_hvp(self.p, w, full_index(self.p), COUNTER)(v)
        denom = 1.0 + np.linalg.norm(H @ v)
        assert np.linalg.norm(hv - H @ v) / denom <= 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            multiclass_logreg_from_arrays(self.X, np.array([0, 1, 5] * 3), self.m)


def kron_multiclass_hessian(X, m, lam, idx, w):
    """Reference: mean over idx of kron(diag(p) - p p^T, x x^T) plus lam * r''(w)."""
    d = X.shape[1]
    Z = X[idx] @ w.reshape(m, d).T
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    H = np.zeros((m * d, m * d))
    for p, x in zip(P, X[idx]):
        H += np.kron(np.diag(p) - np.outer(p, p), np.outer(x, x))
    w2 = w * w
    return H / len(idx) + lam * np.diag((2.0 - 6.0 * w2) / (1.0 + w2) ** 3)


def multiclass_golden_problem():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((150, 5))
    return multiclass_logreg_from_arrays(X, rng.integers(0, 3, size=150), 3, lam=1e-2)


# (exit, iterations, oracle bill, diagnostic bill) of seeded run_srvrc runs on
# multiclass_golden_problem(), captured while the Hessian kernel was a loop of
# per-component Kronecker products, bills re-captured once full-batch
# corrections became resets and the loop stopped re-asking queries it holds;
# a bill is (grad, hess, hvp, value) calls.
MULTICLASS_GOLDEN_RUNS = {
    "theoretical": ({}, ("converged", 25, (3750, 3750, 0, 0), (0, 0, 0, 3900))),
    "adaptive": ({"penalty": AdaptivePenalty()}, ("converged", 7, (1050, 1050, 0, 0), (0, 0, 0, 1200))),
    "practical-adaptive": (
        {"penalty": AdaptivePenalty(), "batch": PracticalBatchRule(60, 30, 3)},
        ("converged", 19, (660, 330, 0, 0), (0, 0, 0, 3000)),
    ),
}


class TestMulticlassHessian:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.m, self.d, self.lam = 4, 6, 0.05
        self.X = rng.standard_normal((40, self.d))
        self.y = rng.integers(0, self.m, size=40)
        self.p = multiclass_logreg_from_arrays(self.X, self.y, self.m, lam=self.lam)
        self.w = rng.standard_normal(self.m * self.d)
        self.idx = np.array([0, 0, 3, 7, 7, 7, 12, 39])

    def test_matches_kronecker_reference(self):
        H = batch_hessian(self.p, self.w, self.idx, COUNTER)
        ref = kron_multiclass_hessian(self.X, self.m, self.lam, self.idx, self.w)
        assert np.max(np.abs(H - ref)) <= 1e-13

    def test_symmetric_and_consistent_with_hvp(self):
        H = batch_hessian(self.p, self.w, self.idx, COUNTER)
        min_eigenvalue(H)  # raises unless H passes the symmetry check
        v = np.random.default_rng(22).standard_normal(self.m * self.d)
        assert_allclose(batch_hvp(self.p, self.w, self.idx, COUNTER)(v), H @ v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(MULTICLASS_GOLDEN_RUNS))
    def test_golden_bills(self, name):
        options, expected = MULTICLASS_GOLDEN_RUNS[name]
        config = SolverConfig(eps=1e-2, T=60, x0=np.full(15, 0.3), seed=4, **options)
        result = run_srvrc(multiclass_golden_problem(), config)
        got = (
            result.exit,
            result.iterations,
            dataclasses.astuple(result.counters),
            dataclasses.astuple(result.diag_counters),
        )
        assert got == expected


class TestSynthetic:
    def test_same_seed_same_problem(self):
        p1 = make_synthetic(seed=3, n=10, d=4)
        p2 = make_synthetic(seed=3, n=10, d=4)
        assert_allclose(p1.extra["A"], p2.extra["A"])
        assert_allclose(p1.extra["b"], p2.extra["b"])

    def test_single_component_identity_quadratic(self):
        p = make_synthetic(seed=0, n=1, d=1, difficulty="convex")
        # convex d=1: f(x) = 0.5 A x^2 + b x with known scalar A, b
        A = p.extra["A"][0, 0, 0]
        b = p.extra["b"][0, 0]
        x = np.array([2.0])
        f = batch_value(p, x, full_index(p), COUNTER)
        assert_allclose(f, 0.5 * A * 4.0 + 2.0 * b, rtol=1e-12)

    def test_convex_minimizer_is_stationary(self):
        p = make_synthetic(seed=1, n=30, d=5, difficulty="convex")
        Abar = p.extra["A"].mean(axis=0)
        bbar = p.extra["b"].mean(axis=0)
        xstar = np.linalg.solve(Abar, -bbar)
        g = batch_gradient(p, xstar, full_index(p), COUNTER)
        assert np.linalg.norm(g) <= 1e-10

    def test_component_spectral_norms_bounded(self):
        p = make_synthetic(seed=2, n=20, d=6)
        for A in p.extra["A"]:
            assert np.linalg.norm(A, 2) <= 1.0 + 1e-12

    def test_gradient_matches_finite_differences(self):
        p = make_synthetic(seed=4, n=15, d=4)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(4)
        g = batch_gradient(p, w, full_index(p), COUNTER)
        assert_allclose(g, fd_gradient(p, w), rtol=1e-6, atol=1e-8)

    def test_hessian_consistency(self):
        p = make_synthetic(seed=4, n=15, d=4)
        rng = np.random.default_rng(1)
        w, v = rng.standard_normal(4), rng.standard_normal(4)
        H = batch_hessian(p, w, full_index(p), COUNTER)
        hv = batch_hvp(p, w, full_index(p), COUNTER)(v)
        assert_allclose(hv, H @ v, rtol=1e-10, atol=1e-12)
        assert_allclose(H, H.T, rtol=1e-12)

    def test_unknown_difficulty_rejected(self):
        with pytest.raises(ValueError, match="difficulty"):
            make_synthetic(seed=0, n=5, d=2, difficulty="weird")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic(seed=0, n=0, d=2)


class TestDerivativeSweep:
    """Every generated problem passes gradient and HVP checks at random points."""

    @pytest.mark.parametrize("factory", [
        lambda: make_synthetic(seed=11, n=8, d=3),
        lambda: make_synthetic(seed=12, n=8, d=3, difficulty="convex"),
        lambda: binary_logreg_from_arrays(
            np.random.default_rng(13).standard_normal((10, 3)),
            (np.arange(10) % 2).astype(float), lam=1e-2),
        lambda: multiclass_logreg_from_arrays(
            np.random.default_rng(14).standard_normal((10, 3)),
            np.arange(10) % 3, 3, lam=1e-2),
    ])
    def test_ten_random_points(self, factory):
        p = factory()
        rng = np.random.default_rng(99)
        full = full_index(p)
        for _ in range(10):
            w = 0.5 * rng.standard_normal(p.dim)
            v = rng.standard_normal(p.dim)
            g = batch_gradient(p, w, full, COUNTER)
            rel = np.max(np.abs(g - fd_gradient(p, w, step=1e-5)) / (1 + np.abs(g)))
            assert rel <= 1e-5
            H = batch_hessian(p, w, full, COUNTER)
            hv = batch_hvp(p, w, full, COUNTER)(v)
            assert np.linalg.norm(hv - H @ v) / (1 + np.linalg.norm(v)) <= 1e-10


def index_order_mean(component, idx):
    """Hand-written multiset mean: accumulate in index order, divide once."""
    acc = 0.0
    for i in idx:
        acc = acc + component(int(i))
    return acc / len(idx)


def _penalty_terms(w, scale):
    """Value, gradient and Hessian of scale * sum w^2/(1+w^2)."""
    w2 = w * w
    return (
        scale * np.sum(w2 / (1 + w2)),
        scale * 2 * w / (1 + w2) ** 2,
        scale * np.diag((2 - 6 * w2) / (1 + w2) ** 3),
    )


def synthetic_agreement_case(difficulty):
    p = make_synthetic(seed=23, n=40, d=5, difficulty=difficulty)
    A, b, alpha = p.extra["A"], p.extra["b"], p.extra["alpha"]

    def component(i, x):
        pv, pg, ph = _penalty_terms(x, alpha)
        return 0.5 * x @ A[i] @ x + b[i] @ x + pv, A[i] @ x + b[i] + pg, A[i] + ph

    return p, component, [objectives._SYNTHETIC_IN_PLACE]


def binary_agreement_case():
    rng = np.random.default_rng(24)
    X, y, lam = rng.standard_normal((40, 5)), (rng.uniform(size=40) < 0.5).astype(float), 0.05
    p = binary_logreg_from_arrays(X, y, lam=lam)

    def component(i, w):
        z = X[i] @ w
        s = 1.0 / (1.0 + math.exp(-z))
        pv, pg, ph = _penalty_terms(w, lam)
        return np.logaddexp(0.0, z) - y[i] * z + pv, (s - y[i]) * X[i] + pg, s * (1 - s) * np.outer(X[i], X[i]) + ph

    return p, component, [objectives._LOGREG_IN_PLACE, objectives._LOGREG_HESS_IN_PLACE]


def agreement_batches(n, crossovers):
    """The full index, a size-n multiset with repeats, an unsorted idx, and
    unsorted multisets one component below and at each in-place crossover."""
    rng = np.random.default_rng(25)
    batches = {
        "full": np.arange(n),
        "n-with-repeats": np.sort(rng.integers(0, n, size=n)),
        "unsorted": rng.permutation(n)[: n // 3],
    }
    for c in crossovers:
        k = math.ceil(c * n)
        batches[f"below-{c}"] = rng.integers(0, n, size=k - 1)
        batches[f"at-{c}"] = rng.integers(0, n, size=k)
    return batches


@pytest.mark.parametrize("case", [
    lambda: synthetic_agreement_case("nonconvex"),
    lambda: synthetic_agreement_case("convex"),
    binary_agreement_case,
], ids=["synthetic-nonconvex", "synthetic-convex", "binary-logreg"])
def test_kernels_agree_with_index_order_means(case):
    """Gathered and in-place kernels both equal the per-component mean (sums reordered)."""
    p, component, crossovers = case()
    rng = np.random.default_rng(26)
    x, v = rng.standard_normal(p.dim), rng.standard_normal(p.dim)

    def close(got, ref):
        return np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    for name, idx in agreement_batches(p.n, crossovers).items():
        value, grad, hess = (index_order_mean(lambda i: component(i, x)[k], idx) for k in range(3))
        hvp = index_order_mean(lambda i: component(i, x)[2] @ v, idx)
        assert close(batch_value(p, x, idx, COUNTER), value), name
        assert close(batch_gradient(p, x, idx, COUNTER), grad), name
        assert close(batch_hessian(p, x, idx, COUNTER), hess), name
        assert close(batch_hvp(p, x, idx, COUNTER)(v), hvp), name


def test_full_batch_kernels_read_component_data_in_place():
    """A full batch of the synthetic problem must not copy its n d x d matrices."""
    p = make_synthetic(1, 3000, 40)
    x, full = np.full(40, 0.1), full_index(p)
    tracemalloc.start()
    try:
        batch_value(p, x, full, COUNTER)
        batch_gradient(p, x, full, COUNTER)
        batch_hessian(p, x, full, COUNTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.extra["A"].nbytes / 2
