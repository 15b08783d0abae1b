import dataclasses
import functools
import hashlib
import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vrcubic import _libsvm, objectives
from vrcubic._libsvm import binary_labels, class_ids
from vrcubic.cli import build_problem
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
    unpack_upper,
)

COUNTER = OracleCounter()  # shared sink for tests that ignore accounting


def traced_peak(call):
    """The peak of tracemalloc's traced memory while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def csr_rows(ds):
    """Each row of a parsed dataset as a list of (index, value) pairs, from its CSR arrays."""
    idx, val, bounds = ds.indices.tolist(), ds.data.tolist(), ds.indptr.tolist()
    return [list(zip(idx[a:b], val[a:b])) for a, b in zip(bounds, bounds[1:])]


class TestLibsvmParsing:
    def test_single_line(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n")
        assert ds.n == 1
        assert ds.num_features == 3
        assert ds.labels[0] == 1.0
        assert csr_rows(ds)[0] == [(1, 0.5), (3, 2.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(LibsvmParseError, match="empty"):
            parse_libsvm("")

    def test_binary_label_mapping_sorts_raw_values(self):
        ds = parse_libsvm("-1 1:1.0\n+1 1:2.0\n")
        y = binary_labels(ds.labels)
        assert_allclose(y, [0.0, 1.0])

    def test_binary_label_mapping_is_order_independent(self):
        ds = parse_libsvm("3 1:1.0\n1 1:2.0\n3 1:0.5\n")
        assert_allclose(binary_labels(ds.labels), [1.0, 0.0, 1.0])

    def test_nonbinary_labels_rejected(self):
        ds = parse_libsvm("1 1:1.0\n2 1:1.0\n3 1:1.0\n")
        with pytest.raises(ValueError, match="2 distinct"):
            binary_labels(ds.labels)

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

    def test_digit_group_underscores_rejected(self):
        for text, what in (("1 1_0:2\n", "bad feature token '1_0:2'"),
                           ("1 1:0.5 3:1_5\n", "bad feature token '3:1_5'"),
                           ("1_000 1:1\n", "bad label '1_000'"),
                           ("1 1:1\n-1_0 2:1\n", "bad label '-1_0'")):
            line = text.count("\n")
            with pytest.raises(LibsvmParseError, match=f"^line {line}: {what}$"):
                parse_libsvm(text)

    def test_roundtrip_through_serializer(self):
        text = "1 1:0.5 3:2.0\n-1 2:-1.25\n1 1:1e-3\n"
        ds = parse_libsvm(text)
        ds2 = parse_libsvm(serialize_libsvm(ds))
        assert ds2.n == ds.n
        assert ds2.num_features == ds.num_features
        assert_allclose(ds2.labels, ds.labels)
        assert csr_rows(ds2) == csr_rows(ds)

    def test_equality_compares_the_arrays(self):
        text = "1 1:1\n-1 2:1\n"
        assert parse_libsvm(text) == parse_libsvm(text)
        assert parse_libsvm(text) == parse_libsvm(serialize_libsvm(parse_libsvm(text)))
        for other in ("1 1:1\n-1 2:2\n", "1 1:1\n1 2:1\n", "1 1:1\n-1 3:1\n",
                      "1 1:1 2:1\n-1\n", "1 1:1\n-1 2:1\n1\n"):
            assert parse_libsvm(text) != parse_libsvm(other), other
        wide = parse_libsvm(text)
        wide.num_features = 3
        assert parse_libsvm(text) != wide
        assert parse_libsvm(text) != text

    def test_to_dense(self):
        ds = parse_libsvm("1 1:0.5 3:2.0\n-1 2:1.0\n")
        X = ds.to_dense()
        assert_allclose(X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])

    def test_class_ids_one_based(self):
        ds = parse_libsvm("1 1:1\n3 1:1\n2 1:1\n")
        assert_allclose(class_ids(ds.labels, 3), [0, 2, 1])

    def test_class_ids_zero_based(self):
        ds = parse_libsvm("0 1:1\n2 1:1\n")
        assert_allclose(class_ids(ds.labels, 3), [0, 2])

    def test_class_ids_out_of_range(self):
        ds = parse_libsvm("5 1:1\n")
        with pytest.raises(ValueError, match="out of range"):
            class_ids(ds.labels, 3)

    def test_class_ids_non_integer(self):
        ds = parse_libsvm("1 1:1\n2.5 1:1\n")
        with pytest.raises(ValueError, match="^multiclass labels must be integers$"):
            class_ids(ds.labels, 3)


def reference_parse_libsvm(source):
    """The per-token libsvm parser that the array parser replaced, kept as a
    test oracle: (labels, rows, num_features), or LibsvmParseError."""
    lines = source.splitlines() if isinstance(source, str) else list(source)
    labels, rows, max_idx = [], [], 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if "_" in stripped:
            bad = next(tok for tok in tokens if "_" in tok)
            what = "bad label" if bad is tokens[0] else "bad feature token"
            raise LibsvmParseError(f"line {lineno}: {what} {bad!r}")
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise LibsvmParseError(f"line {lineno}: label {tokens[0]!r} is not finite")
        row, prev_idx = [], 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}")
            try:
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise LibsvmParseError(f"line {lineno}: feature value {tok!r} is not finite")
            if idx < 1:
                raise LibsvmParseError(f"line {lineno}: feature index must be >= 1, got {idx}")
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
    return labels, rows, max_idx


def parse_outcome(parse, source):
    """Labels, CSR arrays and dense X as bytes, or the error message."""
    try:
        result = parse(source)
    except LibsvmParseError as exc:
        return str(exc)
    if isinstance(result, tuple):
        labels, rows, num_features = result
        result = objectives.LibsvmDataset(
            np.array(labels, dtype=float),
            np.cumsum([0] + [len(row) for row in rows]),
            np.array([j for row in rows for j, _ in row], dtype=np.int64),
            np.array([v for row in rows for _, v in row], dtype=float),
            num_features,
        )
    arrays = [result.labels, result.indptr, result.indices, result.data]
    if result.num_features < 1000:
        arrays.append(result.to_dense())
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], result.num_features


# ASCII whitespace that str.split() splits on; \x0b, \x0c and \x1c-\x1e also end a
# line, so only GAPS separate the tokens of one row.
GAPS = [" ", " ", "\t", "  ", " \t", "\x1f"]
SPACES = GAPS + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
ENDINGS = ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
LABELS = ["1", "-1", "+1", "0", "2", "3", "1.0", "-2.5e1", "+4E-1", ".5", "7."]
VALUES = ["0.5", "-1.25", "+2", "1e-3", "-4.5E+2", "3", ".25", "6.", "0", "-0", "1E5"]
# (label, feature tokens) of bad rows; together they raise each line error the reference names.
BAD_ROWS = [
    ("x", ["1:1"]), ("nan", []), ("-Infinity", ["1:1"]), ("1:2", ["3:1"]),
    ("1_0", ["1:1"]), ("1", ["1_0:2"]), ("1", ["1:0.5", "3:1_5"]),
    ("1", ["3"]), ("1", ["3:"]), ("1", [":3"]), ("1", ["3::4"]), ("1", ["3:4:5"]),
    ("1", ["a3:1"]), ("1", ["3a:1"]), ("1", ["1e2:1"]), ("1", ["0x1:1"]), ("1", ["+:1"]),
    ("1", ["2:abc"]), ("1", ["2:nan"]), ("1", ["2:-inf"]), ("1", ["2:0x1p3"]),
    ("1", ["0:1"]), ("1", ["-3:1"]), ("1", ["-0:1"]), ("1", ["3:1", "3:2"]),
    ("1", ["4:1", "2:1"]), ("1", ["2:1", "5:1", "+4:1"]),
    ("1:2", ["3"]), ("1", ["3", "4:5:6"]), ("1", ["2:3:", "4"]), ("1", ["-:1"]),
    ("1", ["+0:1"]), ("1", ["00:1"]), ("1", ["1:2\x01"]), ("\x1b1", []), ("1", ["2\x00:1"]),
    ("1", ["1:1", "\x01"]),
]


def random_row(rng, bad=False, edges=SPACES):
    """One row; its leading and trailing whitespace is drawn from edges."""
    if bad:
        label, feats = BAD_ROWS[rng.integers(len(BAD_ROWS))]
    else:
        label = LABELS[rng.integers(len(LABELS))]
        idx = np.cumsum(rng.integers(1, 4, size=rng.integers(0, 6)))
        feats = [f"{['', '+', '0', '00'][rng.integers(4)]}{j}:{VALUES[rng.integers(len(VALUES))]}"
                 for j in idx]
    body = edges[rng.integers(len(edges))] * rng.integers(2) + label
    for tok in feats:
        body += GAPS[rng.integers(len(GAPS))] + tok
    return body + edges[rng.integers(len(edges))] * rng.integers(2)


def random_document(rng, lines, bad_share):
    out = []
    for _ in range(lines):
        kind = rng.random()
        if kind < 0.1:
            out.append(SPACES[rng.integers(len(SPACES))] * rng.integers(3))  # blank line
        else:
            out.append(random_row(rng, bad=kind > 1 - bad_share))
        out.append(ENDINGS[rng.integers(len(ENDINGS))])
    return "".join(out[: -1 if rng.random() < 0.3 else None])


class TestLibsvmDifferential:
    """The array parser against the per-token reference on a seeded corpus."""

    def check(self, text, every_form=True):
        """Compare on text as str and, with every_form, as bytes."""
        expected = parse_outcome(reference_parse_libsvm, text)
        assert parse_outcome(parse_libsvm, text) == expected
        if every_form:
            assert parse_outcome(parse_libsvm, text.encode("ascii")) == expected
        return expected

    def test_seeded_corpus(self):
        rng = np.random.default_rng(2024)
        errors = 0
        for doc in range(300):
            text = random_document(rng, int(rng.integers(0, 25)), bad_share=0.03 * (doc % 3))
            errors += isinstance(self.check(text), str)
        assert 50 < errors < 250  # both outcomes are exercised

    @pytest.fixture(scope="class")
    def good_block(self):
        rng = np.random.default_rng(11)
        return [random_row(rng, edges=GAPS) for _ in range(_libsvm._BLOCK_LINES + 1)]

    @pytest.mark.parametrize("row", range(len(BAD_ROWS)))
    def test_each_error_at_a_block_boundary(self, row, good_block):
        label, feats = BAD_ROWS[row]
        bad = " ".join([label, *feats])
        for before in (_libsvm._BLOCK_LINES - 1, _libsvm._BLOCK_LINES):
            lines = [*good_block[:before], bad, good_block[-1]]
            message = self.check("\r\n".join(lines) + "\n", every_form=False)
            assert message.startswith(f"line {before + 1}: "), message

    def test_long_documents_span_blocks(self):
        rng = np.random.default_rng(7)
        text = random_document(rng, 3 * _libsvm._BLOCK_LINES + 5, bad_share=0.0)
        assert not isinstance(self.check(text), str)

    def test_index_digits_and_signs(self):
        for text in ("1 007:1 +8:2 0009:3\n", "1 " + "0" * 40 + "5:1\n",
                     f"1 {10**17}:1\n", f"1 {10**18 - 1}:1\n"):
            self.check(text)

    def test_indices_from_1e18_rejected(self):
        # The reference reads any Python int; CSR indices are int64.
        for text in (f"1 {10**18}:1\n", f"1 1:1 {10**30}:1\n", f"1 +{10**18}:1\n"):
            with pytest.raises(LibsvmParseError, match="^line 1: feature index .* too large$"):
                parse_libsvm(text)


class TestLibsvmAscii:
    def test_non_ascii_digits_rejected(self):
        with pytest.raises(LibsvmParseError, match="^line 1: non-ASCII character '１'$"):
            parse_libsvm("１ ３:２\n")

    def test_non_ascii_byte_names_its_line(self):
        with pytest.raises(LibsvmParseError, match=r"^line 2: non-ASCII character b'\\xff'$"):
            parse_libsvm(b"1 1:1\n-1 2:\xff\n1 1:2\n")

    def test_unicode_line_breaks_are_refused(self):
        # str.splitlines() would end a line at each of these.
        for text, line in (("1 1:1\u20282 1:1\n", 1), ("1 1:1\n\x852 1:1\n", 2),
                           ("1 1:1\r\n1 2:1\u2029", 2)):
            with pytest.raises(LibsvmParseError, match=f"^line {line}: non-ASCII"):
                parse_libsvm(text)

    def test_earlier_bad_line_reported_first(self):
        with pytest.raises(LibsvmParseError, match="^line 1: bad label 'x'$"):
            parse_libsvm("x 1:1\n1 1:1 é\n")


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


def masked_sigmoid(z):
    """The logistic sigmoid by boolean masks, one stable formula per sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bytes_match_the_masked_form():
    special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan,
                        5e-324, -5e-324])
    rng = np.random.default_rng(12)
    cases = [special, rng.permutation(np.tile(special, 7))]
    cases += [scale * rng.standard_normal(size) for scale in (1.0, 30.0, 1000.0)
              for size in (1, 5, 17, 20000)]
    for z in cases:
        assert objectives._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


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
@pytest.mark.parametrize("factory", [
    lambda lam: binary_logreg_from_arrays([[1.0, 1.0]], [1.0], lam),
    lambda lam: multiclass_logreg_from_arrays([[1.0, 1.0]], [0], 2, lam),
], ids=["binary", "multiclass"])
@pytest.mark.parametrize("lam", [-0.01, -0.5, math.nan, math.inf])
def test_logreg_lam_must_be_nonnegative_and_finite(factory, lam):
    # L and rho add lam times the penalty's curvature bounds, which hold from
    # above only for lam >= 0: at lam = -0.01 the binary L read 0.48 where
    # ||hess f_0(1, -1)|| is 0.505
    with pytest.raises(ValueError, match=f"^lam must be nonnegative and finite, got {lam!r}$"):
        factory(lam)
    assert factory(0.0).extra["lam"] == 0.0


@pytest.mark.parametrize("factory", [
    lambda m: multiclass_logreg_from_arrays([[1.0, 1.0]], [0], m),
    lambda m: make_multiclass_logreg(parse_libsvm("1 1:1 2:1\n"), m),
], ids=["arrays", "dataset"])
@pytest.mark.parametrize("num_classes, error, message", [
    (2.7, TypeError, "num_classes must be an integer, got 2.7"),
    (True, TypeError, "num_classes must be an integer, got True"),
    (0, ValueError, "num_classes must be at least 1, got 0"),
], ids=["fraction", "bool", "zero"])
def test_multiclass_num_classes_must_be_a_positive_integer(factory, num_classes, error, message):
    # int(num_classes) used to build a 2-class problem from 2.7 and a 1-class one from
    # True, and a dataset's 0 failed in class_ids as "label out of range for 0 classes"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        factory(num_classes)
    assert factory(np.int64(2)).dim == 4


@pytest.mark.parametrize("family, labels, error, message", [
    *((family, np.zeros(k), IndexError, f"{k} labels for 4 rows")
      for family in ("binary", "multiclass") for k in (3, 5)),
    # a column once built a binary problem whose value broadcast it against every row
    ("binary", np.zeros((4, 1)), IndexError, "labels have shape (4, 1), expected (4,)"),
    ("multiclass", np.zeros((4, 1)), IndexError, "labels have shape (4, 1), expected (4,)"),
    # once truncated to the classes [0, 1, 0, 1]
    ("multiclass", [0, 1.7, 0.2, 1], ValueError, "multiclass labels must be integers"),
    # once numpy's OverflowError, which names no argument
    ("multiclass", [0, np.inf, 0, 1], ValueError, "multiclass labels must be integers"),
], ids=["binary-3", "binary-5", "multiclass-3", "multiclass-5", "binary-column", "multiclass-column",
        "multiclass-fraction", "multiclass-infinite"])
def test_logreg_needs_one_label_per_row(family, labels, error, message):
    build = {"binary": binary_logreg_from_arrays,
             "multiclass": lambda X, y: multiclass_logreg_from_arrays(X, y, 2)}[family]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(np.ones((4, 2)), labels)


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


def digests(*arrays):
    return tuple(hashlib.sha256(np.ascontiguousarray(a)).hexdigest() for a in arrays)


@functools.cache
def loop_synthetic(seed, n, d, difficulty):
    """SHA-256 digests of make_synthetic's A and b, drawn and normalized one
    matrix at a time."""
    rng = np.random.default_rng(seed)
    A = np.empty((n, d, d))
    for i in range(n):
        G = rng.standard_normal((d, d))
        S = (G + G.T) / 2.0
        if difficulty == "convex":
            S = S @ S.T
        A[i] = 0.9 * S / max(np.linalg.norm(S, 2), 1e-12)
    b = rng.standard_normal((n, d)) / math.sqrt(d)
    return digests(A, b)


def chunk_matrices(d):
    """How many d x d matrices make_synthetic transforms as one chunk."""
    return max(1, objectives._SYNTHETIC_CHUNK_BYTES // (d * d * 8))


# (n, d): one component, below, at and not a multiple of one chunk at d = 40,
# d = 1, odd small sizes, and the benchmark's size
SYNTHETIC_SIZES = [
    (1, 40), (chunk_matrices(40) - 1, 40), (chunk_matrices(40), 40),
    (2 * chunk_matrices(40) + 5, 40), (7, 1), (130, 3), (401, 8), (3000, 40),
]


class TestSynthetic:
    @pytest.mark.parametrize("cpus", [None, 1, 3])
    @pytest.mark.parametrize("difficulty", objectives.SYNTHETIC_DIFFICULTIES)
    @pytest.mark.parametrize("n, d", SYNTHETIC_SIZES)
    def test_components_equal_the_per_matrix_loop_bytewise(self, monkeypatch, n, d,
                                                           difficulty, cpus):
        if cpus is not None:
            monkeypatch.setattr(objectives, "_available_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the interpreter often
        try:
            p = make_synthetic(5, n, d, difficulty)
        finally:
            sys.setswitchinterval(interval)
        A = unpack_upper(p.extra["A_upper"])
        assert digests(A, p.extra["b"]) == loop_synthetic(5, n, d, difficulty)

    @pytest.mark.parametrize("cpus, chunks, started", [(3, 94, 2), (3, 2, 1), (8, 1, 0), (1, 94, 0)])
    def test_one_thread_per_cpu_up_to_the_chunk_count_and_none_outlives_the_build(
        self, monkeypatch, cpus, chunks, started
    ):
        starts = []

        class CountedThread(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(objectives, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", CountedThread)
        before = threading.active_count()
        make_synthetic(0, chunks * chunk_matrices(40), 40)
        assert len(starts) == started < cpus
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in starts)

    def test_a_failing_chunk_raises_after_every_thread_is_joined(self, monkeypatch):
        normalize, size = objectives._normalize_chunk, chunk_matrices(40)

        def fail_on_the_short_chunk(G, convex):
            if G.shape[0] < size:
                raise MemoryError("short chunk")
            normalize(G, convex)

        # five chunks over three threads: whichever claims the short fifth fails
        monkeypatch.setattr(objectives, "_available_cpus", lambda: 3)
        monkeypatch.setattr(objectives, "_normalize_chunk", fail_on_the_short_chunk)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="short chunk"):
            make_synthetic(0, 4 * size + 5, 40)
        assert threading.active_count() == before

    def test_build_allocates_little_beyond_its_arrays(self, monkeypatch):
        # Each of the 3 threads holds one chunk buffer (400 KB at d = 40) and
        # its temporaries; a full (n, d, d) stack would hold about 38 MB more.
        monkeypatch.setattr(objectives, "_available_cpus", lambda: 3)
        tracemalloc.start()
        try:
            p = make_synthetic(1, 3000, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.extra["A_upper"].nbytes + p.extra["b"].nbytes + 3 * 2**20

    def test_same_seed_same_problem(self):
        p1 = make_synthetic(seed=3, n=10, d=4)
        p2 = make_synthetic(seed=3, n=10, d=4)
        assert_allclose(unpack_upper(p1.extra["A_upper"]), unpack_upper(p2.extra["A_upper"]))
        assert_allclose(p1.extra["b"], p2.extra["b"])

    def test_single_component_identity_quadratic(self):
        p = make_synthetic(seed=0, n=1, d=1, difficulty="convex")
        # convex d=1: f(x) = 0.5 A x^2 + b x with known scalar A, b
        A = unpack_upper(p.extra["A_upper"])[0, 0, 0]
        b = p.extra["b"][0, 0]
        x = np.array([2.0])
        f = batch_value(p, x, full_index(p), COUNTER)
        assert_allclose(f, 0.5 * A * 4.0 + 2.0 * b, rtol=1e-12)

    def test_convex_minimizer_is_stationary(self):
        p = make_synthetic(seed=1, n=30, d=5, difficulty="convex")
        Abar = unpack_upper(p.extra["A_upper"]).mean(axis=0)
        bbar = p.extra["b"].mean(axis=0)
        xstar = np.linalg.solve(Abar, -bbar)
        g = batch_gradient(p, xstar, full_index(p), COUNTER)
        assert np.linalg.norm(g) <= 1e-10

    def test_component_spectral_norms_bounded(self):
        p = make_synthetic(seed=2, n=20, d=6)
        for A in unpack_upper(p.extra["A_upper"]):
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

    @pytest.mark.parametrize("n, d, error, message", [
        (0, 2, ValueError, "n must be at least 1, got 0"),
        (-1, 3, ValueError, "n must be at least 1, got -1"),
        (3, 0, ValueError, "d must be at least 1, got 0"),
        (3, -1, ValueError, "d must be at least 1, got -1"),
        (2.5, 2, TypeError, "n must be an integer, got 2.5"),
        (True, 2, TypeError, "n must be an integer, got True"),
        (3, True, TypeError, "d must be an integer, got True"),
        (3, 2.0, TypeError, "d must be an integer, got 2.0"),
    ])
    def test_sizes_checked_before_drawing(self, monkeypatch, n, d, error, message):
        def no_draws(seed):
            raise AssertionError("drew component data before checking the sizes")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make_synthetic(0, n, d)

    def test_available_cpus_without_affinity_counts_the_machine(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert objectives._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert objectives._available_cpus() == 1

    def test_numpy_integer_sizes_accepted(self):
        p = make_synthetic(seed=0, n=np.int64(4), d=np.int32(2))
        assert (p.n, p.dim) == (4, 2)

    def test_unpack_upper_mirrors_each_row_across_the_diagonal(self):
        packed = np.arange(12.0).reshape(2, 6)
        full = unpack_upper(packed)
        assert full.shape == (2, 3, 3)
        for row, A in zip(packed, full):
            assert np.array_equal(A, A.T)
            assert np.array_equal(A[np.triu_indices(3)], row)
        with pytest.raises(ValueError, match="4 entries"):
            unpack_upper(np.zeros(4))

    def test_component_data_is_read_only(self):
        p = make_synthetic(seed=0, n=5, d=2)
        with pytest.raises(ValueError, match="read-only"):
            p.extra["A_upper"][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            p.extra["b"][0] += 1.0


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
        lambda: make_multiclass_logreg(  # 1-based labels
            parse_libsvm("".join(f"{k % 3 + 1} 1:{k / 7} 3:{1 - k / 5}\n" for k in range(10))),
            3, lam=1e-2),
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
    A, b, alpha = unpack_upper(p.extra["A_upper"]), p.extra["b"], p.extra["alpha"]

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
    assert peak < p.extra["A_upper"].nbytes / 2


def test_a_gathered_hvp_batch_copies_packed_rows_only():
    """A batch below the in-place crossover gathers its components' upper
    triangles, then unpacks one d x d mean."""
    p = make_synthetic(1, 3000, 40)
    d, k = p.dim, 300
    idx = np.random.default_rng(30).integers(0, p.n, size=k)
    x, v = np.full(d, 0.1), np.ones(d)
    tracemalloc.start()
    try:
        batch_hvp(p, x, idx, COUNTER)(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * d * (d + 1) // 2 * 8 + 2 * d * d * 8 + 2**19


def in_place_reference(p, idx, x, v):
    """Value, gradient, Hessian and HVP of the synthetic problem as the weighted
    in-place sum over all n components, with the weights of ``idx``."""
    P, b, alpha = p.extra["A_upper"], p.extra["b"], p.extra["alpha"]
    n, d = p.n, p.dim
    c = np.bincount(idx, minlength=n) / idx.size
    Abar, bbar = unpack_upper(c @ P), c @ b
    H = Abar.copy()
    if alpha:
        H[np.diag_indices(d)] += alpha * objectives._reg_curv(x)
    value = 0.5 * float(x @ Abar @ x) + float(bbar @ x) + alpha * objectives._reg_value(x)
    hv = H @ v
    return value, Abar @ x + bbar + alpha * objectives._reg_grad(x), H, hv


@pytest.mark.parametrize("difficulty", ["nonconvex", "convex"])
def test_full_batch_answers_equal_the_in_place_sum_bytewise(difficulty):
    """The precomputed full-batch mean changes no answer, in any index order."""
    p = make_synthetic(seed=27, n=60, d=6, difficulty=difficulty)
    rng = np.random.default_rng(28)
    batches = {
        "full": np.arange(p.n),
        "permuted": rng.permutation(p.n),
        "full-twice": np.tile(np.arange(p.n), 2),
        "n-with-repeats": rng.integers(0, p.n, size=p.n),
    }
    for _ in range(3):
        x, v = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
        for name, idx in batches.items():
            value, grad, hess, hv = in_place_reference(p, idx, x, v)
            counter = OracleCounter()
            assert batch_value(p, x, idx, counter) == value, name
            assert batch_gradient(p, x, idx, counter).tobytes() == grad.tobytes(), name
            assert batch_hessian(p, x, idx, counter).tobytes() == hess.tobytes(), name
            assert batch_hvp(p, x, idx, counter)(v).tobytes() == hv.tobytes(), name
            assert counter == OracleCounter(idx.size, idx.size, idx.size, idx.size), name


@pytest.mark.parametrize("batch", ["full", "weighted", "gathered"])
@pytest.mark.parametrize("difficulty", ["nonconvex", "convex"])
def test_synthetic_products_are_the_batch_hessian_times_v(difficulty, batch):
    """make_synthetic hands over no Hessian-vector kernel: its operator is the
    batch Hessian's own product, in place or gathered."""
    p = make_synthetic(seed=30, n=80, d=5, difficulty=difficulty)
    rng = np.random.default_rng(31)
    idx = {"full": np.arange(p.n), "weighted": rng.integers(0, p.n, p.n // 2),
           "gathered": rng.integers(0, p.n, p.n // 8)}[batch]
    x, v = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
    want = batch_hessian(p, x, idx, COUNTER) @ v
    assert batch_hvp(p, x, idx, COUNTER)(v).tobytes() == want.tobytes()


@pytest.mark.parametrize("difficulty", ["nonconvex", "convex"])
def test_mutating_a_full_batch_answer_changes_no_later_answer(difficulty):
    p = make_synthetic(seed=29, n=30, d=4, difficulty=difficulty)
    x, v, full = np.full(4, 0.3), np.arange(4.0), full_index(p)
    before = [batch_gradient(p, x, full, COUNTER), batch_hessian(p, x, full, COUNTER),
              batch_hvp(p, x, full, COUNTER)(v), batch_value(p, x, full, COUNTER)]
    for answer in (batch_gradient(p, x, full, COUNTER), batch_hessian(p, x, full, COUNTER)):
        answer += 1e3
    after = [batch_gradient(p, x, full, COUNTER), batch_hessian(p, x, full, COUNTER),
             batch_hvp(p, x, full, COUNTER)(v), batch_value(p, x, full, COUNTER)]
    for old, new in zip(before, after):
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


class TestLibsvmBuffers:
    """Any C-contiguous bytes-like source is read as the bytes it holds."""

    @pytest.mark.parametrize("kind", [bytearray, memoryview], ids=["bytearray", "memoryview"])
    def test_same_dataset_and_errors_as_bytes(self, kind):
        rng = np.random.default_rng(5)
        raw = random_document(rng, 3 * _libsvm._BLOCK_LINES, bad_share=0.0).encode("ascii")
        assert bytes(kind(raw)) == raw
        assert parse_outcome(parse_libsvm, kind(raw)) == parse_outcome(parse_libsvm, raw)
        for raw in (b"1 1:1\n-1 2:\xff\n1 1:2\n", b"1 1:1\r\n2 \x80:1", b"\xc3\xa9 1:1\n",
                    b"x 1:1\n1 1:1 \xff\n"):
            expected = parse_outcome(parse_libsvm, raw)
            assert isinstance(expected, str) and expected.startswith("line ")
            assert parse_outcome(parse_libsvm, kind(raw)) == expected

    def test_non_ascii_bytes_name_their_line_in_each_buffer_type(self):
        for kind in (bytes, bytearray, memoryview):
            with pytest.raises(LibsvmParseError, match=r"^line 3: non-ASCII character b'\\xe9'$"):
                parse_libsvm(kind(b"1 1:1\r\n-1 2:1\n1 \xe9:1\n"))


def test_empty_data_gives_one_message_from_both_factories():
    for build in (lambda: binary_logreg_from_arrays(np.zeros((0, 3)), np.zeros(0)),
                  lambda: multiclass_logreg_from_arrays(np.zeros((0, 3)), np.zeros(0, int), 2)):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            build()


class TestRowBlocks:
    """Dense kernels that walk X in blocks of rows of _SYNTHETIC_CHUNK_BYTES."""

    @pytest.mark.parametrize("budget", [1, 7 * 6 * 8, objectives._SYNTHETIC_CHUNK_BYTES])
    def test_column_scaling_bytes_match_the_whole_matrix_formula(self, monkeypatch, budget):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 6)) * np.array([1e-3, 1.0, 1.0, 1e3, 1.0, 5.0])
        X[:, 2] = 0.0
        X[::2, 4] = -0.0
        X[17, 5] = -42.0  # the largest magnitude of its column is negative
        scale = np.abs(X).max(axis=0)
        scale[scale == 0.0] = 1.0
        expected = X / scale
        monkeypatch.setattr(objectives, "_SYNTHETIC_CHUNK_BYTES", budget)
        assert scale_columns_unit(X).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [1, 40, 700])
    def test_dense_x_and_row_norm_bounds_match_the_whole_matrix_forms(self, monkeypatch, budget):
        rng = np.random.default_rng(8)
        ds = parse_libsvm(random_document(rng, 300, bad_share=0.0))
        X = np.zeros((ds.n, ds.num_features))
        X[np.repeat(np.arange(ds.n), np.diff(ds.indptr)), ds.indices - 1] = ds.data
        rmax = float(np.linalg.norm(X, axis=1).max())
        y = (np.arange(ds.n) % 2).astype(float)
        monkeypatch.setattr(objectives, "_SYNTHETIC_CHUNK_BYTES", budget)
        assert ds.to_dense().tobytes() == X.tobytes()
        binary = binary_logreg_from_arrays(X, y, lam=1e-3)
        multi = multiclass_logreg_from_arrays(X, np.arange(ds.n) % 3, 3)
        assert binary.lipschitz_grad == rmax**2 / 4.0 + objectives._REG_CURV_BOUND * 1e-3
        assert binary.lipschitz_hess == (objectives._SIGMOID_CURV_CHANGE * rmax**3
                                         + objectives._REG_THIRD_BOUND * 1e-3)
        assert multi.grad_bound == 2.0 * math.sqrt(2.0) * rmax

    @pytest.mark.parametrize("batch", ["full", "weighted", "gathered"])
    def test_hessian_sums_its_row_blocks(self, monkeypatch, batch):
        rng = np.random.default_rng(12)
        n, d = 300, 7
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
        p = binary_logreg_from_arrays(X, (rng.random(n) < 0.5).astype(float), lam=1e-2)
        idx = {"full": np.arange(n), "weighted": rng.integers(0, n, size=n),
               "gathered": rng.integers(0, n, size=n // 3)}[batch]
        w = rng.standard_normal(d)
        whole = batch_hessian(p, w, idx, COUNTER)  # one block at the default budget
        monkeypatch.setattr(objectives, "_SYNTHETIC_CHUNK_BYTES", 16 * d * 8)  # 16 rows
        blocked = batch_hessian(p, w, idx, COUNTER)
        assert_allclose(blocked, whole, rtol=1e-13, atol=1e-16)

    def test_full_batch_hessian_holds_one_row_block(self):
        rng = np.random.default_rng(9)
        d = 100
        n = 8 * (objectives._SYNTHETIC_CHUNK_BYTES // (8 * d)) + 3
        p = binary_logreg_from_arrays(rng.standard_normal((n, d)),
                                      (rng.random(n) < 0.5).astype(float))
        w, full = 0.1 * rng.standard_normal(d), full_index(p)
        tracemalloc.start()
        try:
            batch_hessian(p, w, full, OracleCounter())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < objectives._SYNTHETIC_CHUNK_BYTES + 2 * d * d * 8 + 2**20

    @pytest.mark.parametrize("kernel, share", [(batch_value, 0.4), (batch_gradient, 0.4),
                                               (batch_hessian, 0.9)])
    def test_a_gathered_binary_batch_holds_one_row_block(self, kernel, share):
        """Below its in-place crossover a binary kernel gathers one block of rows at a time."""
        rng = np.random.default_rng(10)
        d = 100
        n = 16 * (objectives._SYNTHETIC_CHUNK_BYTES // (8 * d)) + 3
        p = binary_logreg_from_arrays(rng.standard_normal((n, d)),
                                      (rng.random(n) < 0.5).astype(float))
        idx = rng.integers(0, n, size=int(share * n))
        peak = traced_peak(lambda: kernel(p, 0.1 * rng.standard_normal(d), idx, COUNTER))
        # One block of rows, H and one product, and a few arrays of |idx| entries;
        # X[idx] is 2.6 MB at share 0.4 and 5.9 MB at 0.9.
        budget = objectives._SYNTHETIC_CHUNK_BYTES + 2 * d * d * 8 + 8 * idx.size * 8
        assert peak < budget + 2**17

    @pytest.mark.parametrize("kernel, answer", [(batch_value, 0), (batch_gradient, 1),
                                                (batch_hessian, 2)])
    def test_a_gathered_synthetic_batch_holds_one_row_block(self, kernel, answer):
        """Below the crossover a synthetic mean sums one block of packed rows at a time."""
        rng = np.random.default_rng(14)
        n, d = 3000, 40
        p = make_synthetic(1201, n, d)
        idx, x = rng.integers(0, n, size=700), rng.standard_normal(d)  # 12 blocks of 62 rows
        assert idx.size < objectives._SYNTHETIC_IN_PLACE * n
        got = []
        peak = traced_peak(lambda: got.append(kernel(p, x, idx, COUNTER)))
        # One block of packed rows, b[idx] and two d x d arrays; P[idx] is 4.6 MB.
        budget = objectives._SYNTHETIC_CHUNK_BYTES + idx.size * d * 8 + 2 * d * d * 8
        assert peak < budget + 2**17
        # the block sums agree with the in-place sum within roundoff
        assert_allclose(got[0], in_place_reference(p, idx, x, x)[answer], rtol=1e-12, atol=1e-13)

    def test_walk_yields_nothing_over_zero_rows(self):
        X = np.zeros((0, 3))
        assert list(objectives._walk(X, None)) == []
        assert list(objectives._walk(np.ones((4, 3)), np.zeros(0, np.intp))) == []
        assert scale_columns_unit(X).shape == (0, 3)

    def test_multiclass_hessian_forms_z_one_row_block_at_a_time(self):
        rng = np.random.default_rng(12)
        m, d = 5, 20
        n = 8 * (objectives._SYNTHETIC_CHUNK_BYTES // (8 * m * d)) + 3
        p = multiclass_logreg_from_arrays(rng.standard_normal((n, d)), rng.integers(0, m, n), m)
        w = 0.1 * rng.standard_normal(m * d)
        peak = traced_peak(lambda: batch_hessian(p, w, full_index(p), COUNTER))
        # One block of Z and of rows, H and one product, and the forward pass's
        # n x m arrays; the n x m*d Z alone is 3.3 MB.
        budget = objectives._SYNTHETIC_CHUNK_BYTES + 2 * (m * d) ** 2 * 8 + 4 * n * m * 8
        assert peak < budget + 2**19

    @pytest.mark.parametrize("classes", [0, 5])
    def test_a_later_hessian_reuses_the_block_buffers(self, classes):
        """Once a Hessian has run, the next one allocates no block of rows or of Z."""
        rng = np.random.default_rng(13)
        d = 20 if classes else 100
        dim, m = (classes * d, classes) if classes else (d, 1)
        n = 2 * (objectives._SYNTHETIC_CHUNK_BYTES // (8 * dim)) + 3
        X = rng.standard_normal((n, d))
        p = (multiclass_logreg_from_arrays(X, rng.integers(0, classes, n), classes) if classes
             else binary_logreg_from_arrays(X, (rng.random(n) < 0.5).astype(float)))
        batch_hessian(p, np.full(dim, 0.1), full_index(p), COUNTER)
        peak = traced_peak(lambda: batch_hessian(p, np.full(dim, 0.2), full_index(p), COUNTER))
        # H, one product, and the forward pass's arrays of n x m entries.
        assert peak < objectives._SYNTHETIC_CHUNK_BYTES / 2 + 2 * dim * dim * 8 + 8 * n * m * 8

    def test_build_problem_holds_the_file_csr_arrays_and_dense_x(self, tmp_path):
        rng = np.random.default_rng(20)
        n, d = 20000, 100
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.3)
        rows, cols = np.nonzero(X)
        ds = objectives.LibsvmDataset(
            np.where(rng.random(n) < 0.5, 1.0, -1.0),
            np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))),
            cols + 1, X[rows, cols], d)
        path = tmp_path / "data.svm"
        path.write_text(serialize_libsvm(ds))
        csr = sum(a.nbytes for a in (ds.labels, ds.indptr, ds.indices, ds.data))
        del X, rows, cols, ds
        tracemalloc.start()
        try:
            problem = build_problem({"dataset": {"path": str(path), "objective": "binary_logreg"}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.n == n and problem.dim == d
        assert peak < path.stat().st_size + csr + n * d * 8 + 3 * 2**20

    def test_scaling_features_holds_no_second_dense_x(self, tmp_path):
        rng = np.random.default_rng(21)
        n, d = 20000, 100
        X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.3)
        rows, cols = np.nonzero(X)
        path = tmp_path / "data.svm"
        path.write_text(serialize_libsvm(objectives.LibsvmDataset(
            np.where(rng.random(n) < 0.5, 1.0, -1.0),
            np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))),
            cols + 1, X[rows, cols], d)))
        del X, rows, cols
        peaks = {}
        for scale in (False, True):
            tracemalloc.start()
            try:
                build_problem({"dataset": {"path": str(path), "objective": "binary_logreg",
                                           "scale_features": scale}})
                peaks[scale] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[True] <= peaks[False] + 2**20


def logistic_problems(seed):
    """A binary and a multiclass problem on one seeded X of several row blocks."""
    rng = np.random.default_rng(seed)
    n, d, m = 900, 60, 3
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
    return {"binary": binary_logreg_from_arrays(X, (rng.random(n) < 0.5).astype(float), 1e-2),
            "multiclass": multiclass_logreg_from_arrays(X, rng.integers(0, m, n), m, 1e-2)}


def answers(problem, x, idx, v):
    """Every kernel's answer at (idx, x), as bytes."""
    return [np.asarray(batch_value(problem, x, idx, COUNTER)).tobytes(),
            batch_gradient(problem, x, idx, COUNTER).tobytes(),
            batch_hessian(problem, x, idx, COUNTER).tobytes(),
            batch_hvp(problem, x, idx, COUNTER)(v).tobytes()]


class TestForwardState:
    """The logistic kernels share one forward pass per point, and answer as a
    freshly built problem does, byte for byte."""

    @pytest.mark.parametrize("kind", ["binary", "multiclass"])
    def test_every_query_answers_as_a_fresh_problem(self, kind):
        problem = logistic_problems(40)[kind]
        rng = np.random.default_rng(41)
        n, dim = problem.n, problem.dim
        x1, x2, v = (0.3 * rng.standard_normal(dim) for _ in range(3))
        zero, negative_zero = np.zeros(dim), np.zeros(dim)
        negative_zero[::2] = -0.0
        # Full, in place for value and gradient only, and two gathered batches of one size.
        batches = [np.arange(n), rng.integers(0, n, size=int(0.7 * n)),
                   rng.integers(0, n, size=int(0.3 * n)), rng.integers(0, n, size=int(0.3 * n))]
        moving = x1.copy()
        queries = [(x1, batches[0]), (x2, batches[0]), (x1, batches[0]),
                   (moving, batches[0]), (moving, batches[0]), (moving, batches[1])]
        queries += [(x, idx) for x in (zero, negative_zero, zero) for idx in batches]
        queries += [(x1, idx) for idx in batches + batches[::-1]]
        for k, (x, idx) in enumerate(queries):
            if k == 4:
                moving[:] = x2  # changed in place between two queries
            fresh = logistic_problems(40)[kind]
            assert answers(problem, x, idx, v) == answers(fresh, x, idx, v), k

    def test_the_four_kernels_share_one_forward_pass_per_point(self, monkeypatch):
        calls = []
        sigmoid = objectives._sigmoid
        monkeypatch.setattr(objectives, "_sigmoid", lambda z: calls.append(z.size) or sigmoid(z))
        problem = logistic_problems(42)["binary"]
        x, full = np.full(problem.dim, 0.1), full_index(problem)
        answers(problem, x, full, np.ones(problem.dim))
        answers(problem, x, full, np.ones(problem.dim))
        assert calls == [problem.n]
        answers(problem, x.copy(), full, np.ones(problem.dim))  # the same bytes
        y = x.copy()
        y[0] = np.nextafter(y[0], 1.0)
        answers(problem, y, full, np.ones(problem.dim))
        gathered = np.arange(0, problem.n, 3)
        answers(problem, y, gathered, np.ones(problem.dim))
        assert calls == [problem.n, problem.n, gathered.size]

    @pytest.mark.parametrize("batch", ["full", "weighted", "gathered"])
    @pytest.mark.parametrize("budget", [16 * 60 * 8, objectives._SYNTHETIC_CHUNK_BYTES])
    def test_binary_hessians_are_exactly_symmetric(self, monkeypatch, batch, budget):
        monkeypatch.setattr(objectives, "_SYNTHETIC_CHUNK_BYTES", budget)
        problem = logistic_problems(43)["binary"]
        rng = np.random.default_rng(44)
        idx = {"full": np.arange(problem.n), "weighted": rng.integers(0, problem.n, problem.n),
               "gathered": rng.integers(0, problem.n, problem.n // 3)}[batch]
        H = batch_hessian(problem, rng.standard_normal(problem.dim), idx, COUNTER)
        assert np.array_equal(H, H.T)
