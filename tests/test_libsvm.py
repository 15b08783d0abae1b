"""The two-pass libsvm file reader behind cli.build_problem, against parse_libsvm,
and its eight-byte number decoder, against float() and int().

Each file is read in windows of WINDOW bytes, so a few lines span several
windows; the expected X, labels and errors come from parse_libsvm on the
file's bytes at the default window, which holds every file here whole.
"""

import gzip
import io
import re
import tracemalloc

import numpy as np
import pytest

from vrcubic import _libsvm, _swar, cli
from vrcubic.cli import build_problem
from vrcubic.objectives import LibsvmDataset, LibsvmParseError, parse_libsvm, serialize_libsvm

WINDOW = 64
ROW = b"1 1:0.5 2:0.125\n"  # 16 bytes: a window of WINDOW bytes holds 4 whole rows


def write(tmp_path, raw: bytes, name="data.svm"):
    path = tmp_path / name
    path.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
    return path


def built(monkeypatch, path):
    """(X, labels) that build_problem hands the binary factory, read in WINDOW-byte windows."""
    seen = {}
    factory = cli.binary_logreg_from_arrays

    def capture(X, y, lam):
        seen.update(X=X, y=y)
        return factory(X, y, lam)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "binary_logreg_from_arrays", capture)
        patch.setattr(_libsvm, "_SCAN_BYTES", WINDOW)
        build_problem({"dataset": {"path": str(path), "objective": "binary_logreg"}})
    return seen["X"], seen["y"]


def outcome(build):
    try:
        return build()
    except LibsvmParseError as exc:
        return str(exc)


def rows(count: int, rng) -> bytes:
    return b"".join(b"%d %d:%r %d:%r\n" % (rng.choice([-1, 1]), j, rng.standard_normal(), j + 3,
                                             rng.standard_normal())
                    for j in rng.integers(1, 40, size=count))


def crlf_split() -> bytes:
    head = b"1 1:1\r\n" + b"-1 2:0.5".ljust(WINDOW - 8) + b"\r\n"
    assert head[WINDOW - 1:WINDOW + 1] == b"\r\n"  # the first window ends inside the break
    return head + b"1 3:2\r\n" * 20


def lone_cr() -> bytes:
    head = b"1 1:1\r\n" + b"-1 2:0.5".ljust(WINDOW - 8) + b"\r"
    assert head[WINDOW - 1:] == b"\r"  # the first window ends on a break of its own
    return head + b"1 3:2\r" * 20


FILES = {
    "crlf-split": crlf_split,
    "lone-cr": lone_cr,
    "blank-lines": lambda: b"\n \n1 1:1\n\n\t\r\n-1 2:1\x0c\x0c   \n\r\n" * 8 + b"\n\n",
    # a line longer than a window, and one that ends in more than a window of blanks
    "long-line": lambda: (b"1 " + b" ".join(b"%d:%r" % (j, j / 7) for j in range(1, 80))
                          + b"\n-1 3:1\n1 9:1" + b" " * 2 * WINDOW + b"\n"),
    "no-trailing-newline": lambda: ROW * 9 + b"-1 5:0.25",
    "several-windows": lambda: rows(120, np.random.default_rng(3)),
}


@pytest.mark.parametrize("name", [*FILES, "gzip"])
def test_dense_x_and_labels_match_parse_libsvm(name, tmp_path, monkeypatch):
    raw = FILES.get(name, FILES["several-windows"])()
    assert len(raw) > 2 * WINDOW
    expected = parse_libsvm(raw)
    X, y = built(monkeypatch, write(tmp_path, raw, "data.svm.gz" if name == "gzip" else "data.svm"))
    assert X.shape == (expected.n, expected.num_features)
    assert X.tobytes() == expected.to_dense().tobytes()
    assert y.tobytes() == _libsvm.binary_labels(expected.labels).tobytes()


def bad_in_third_window():
    lines = [ROW] * 16
    lines[9] = b"1 1:0.5 2:0.1x5\n"  # line 10: windows hold lines 1-4, 5-8, 9-12, 13-16
    return b"".join(lines)


ERRORS = {
    "bad-line-in-third-window": (bad_in_third_window, "line 10: bad feature token '2:0.1x5'"),
    "non-ascii-after-a-bad-line": (lambda: ROW * 2 + b"1 x:1\n" + ROW * 8 + b"-1 2:\xe9\n" + ROW,
                                   "line 3: bad feature token 'x:1'"),
    "non-ascii": (lambda: ROW * 11 + b"-1 2:\xe9\n" + ROW, "line 12: non-ASCII character b'\\xe9'"),
    "index-too-large": (lambda: ROW * 6 + b"1 1000000000000000000:1\n" + ROW,
                        "line 7: feature index 1000000000000000000 is too large"),
    "empty": (lambda: b"", "line 1: empty input, no data rows"),
    "blank": (lambda: b" \n\r\n\t" * 40, "line 1: empty input, no data rows"),
    # the line's last index asks for an X that cannot be allocated; its error wins
    "absurd-last-index": (lambda: ROW * 5 + b"-1 2:1 junk 99999999999999999:1\n" + ROW,
                          "line 6: bad feature token 'junk'"),
}


@pytest.mark.parametrize("name", ERRORS)
def test_errors_match_parse_libsvm(name, tmp_path, monkeypatch):
    make, message = ERRORS[name]
    raw = make()
    assert outcome(lambda: parse_libsvm(raw)) == message
    assert outcome(lambda: built(monkeypatch, write(tmp_path, raw))) == message


def test_an_x_too_large_to_allocate_raises_the_allocation_error(tmp_path, monkeypatch):
    path = write(tmp_path, ROW * 5 + b"-1 2:1 99999999999999999:1\n" + ROW)
    with pytest.raises((MemoryError, ValueError)) as info:
        built(monkeypatch, path)
    assert not isinstance(info.value, LibsvmParseError)


def test_a_file_is_read_once_per_pass_whatever_its_size(tmp_path, monkeypatch):
    raw = rows(120, np.random.default_rng(4))
    reads = []

    class CountingFile:
        def __init__(self, *args):
            self.fh = open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def seek(self, pos):
            return self.fh.seek(pos)

        def readinto(self, out):
            reads.append(self.fh.readinto(out))
            return reads[-1]

    monkeypatch.setattr(_libsvm, "open", CountingFile, raising=False)
    monkeypatch.setattr(_libsvm, "_SCAN_BYTES", WINDOW)
    X, _ = _libsvm.read_libsvm_dense(write(tmp_path, raw))
    assert sum(reads) == 2 * len(raw) and X.tobytes() == parse_libsvm(raw).to_dense().tobytes()
    reads.clear()
    small = raw[:WINDOW - 1]
    X, _ = _libsvm.read_libsvm_dense(write(tmp_path, small, "small.svm"))
    assert sum(reads) == 2 * len(small) and X.tobytes() == parse_libsvm(small).to_dense().tobytes()


@pytest.mark.parametrize("source", [
    [b"1 1:0.5 3:2\n", "-1 2:1\n"],
    None,  # io.BytesIO(None) is an empty stream, not a refusal
    3,
    memoryview(ROW * 4)[::2],
], ids=["list-of-lines", "none", "int", "strided-memoryview"])
def test_other_sources_are_refused(source):
    with pytest.raises(TypeError, match="^parse_libsvm reads a str or a C-contiguous bytes-like"):
        parse_libsvm(source)


def dataset_file(tmp_path, n, d, values, blank_lines=False):
    """A libsvm file of n rows of d features, with about 30% nonzeros drawn by values(shape)."""
    rng = np.random.default_rng(20)
    X = values(rng, (n, d)) * (rng.random((n, d)) < 0.3)
    nz_rows, cols = np.nonzero(X)
    text = serialize_libsvm(LibsvmDataset(
        np.where(rng.random(n) < 0.5, 1.0, -1.0),
        np.concatenate(([0], np.cumsum(np.bincount(nz_rows, minlength=n)))),
        cols + 1, X[nz_rows, cols], d))
    path = tmp_path / "data.svm"
    # a blank line after every row puts lines that start with a blank in every window
    path.write_text(text.replace("\n", "\n \n") if blank_lines else text)
    return path


def traced_build(path):
    """The problem build_problem makes of a binary libsvm file, and its traced peak."""
    tracemalloc.start()
    try:
        problem = build_problem({"dataset": {"path": str(path), "objective": "binary_logreg"}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return problem, peak


def test_build_problem_holds_dense_x_and_a_window(tmp_path):
    n, d = 20000, 100
    problem, peak = traced_build(dataset_file(
        tmp_path, n, d, lambda rng, shape: rng.standard_normal(shape)))
    assert problem.n == n and problem.dim == d
    assert peak < n * d * 8 + 3 * 2**20  # no whole-file bytes, no CSR arrays beside X


@pytest.mark.parametrize("blank_lines", [False, True], ids=["rows-only", "blank-lines"])
def test_a_file_of_short_lines_holds_x_and_window_sized_arrays(blank_lines, tmp_path):
    """On short lines a window holds many lines: finding its shape may hold
    arrays of its bytes and of its line offsets, not of its lines times a width."""
    n, d = 50000, 4
    path = dataset_file(  # rows like "1.0 2:3.0 4:7.0": about 8 bytes a line with the blanks
        tmp_path, n, d, lambda rng, shape: rng.integers(1, 10, shape).astype(float), blank_lines)
    assert path.stat().st_size > _libsvm._SCAN_BYTES
    problem, peak = traced_build(path)
    assert problem.n == n and problem.dim == d
    # X, the raw and the 0/1 labels, and a dozen arrays about the size of a window
    assert peak < n * d * 8 + 2 * n * 8 + 12 * _libsvm._SCAN_BYTES


def token_spans(tokens):
    """The padded text of the tokens, one blank apart, and each token's [lo, hi) in it."""
    buf = np.frombuffer(" ".join(tokens).encode("ascii"), np.uint8)
    sizes = np.array([len(tok) for tok in tokens])
    lo = np.cumsum(sizes + 1) - sizes - 1
    return _swar.padded(buf), lo, lo + sizes


def as_floats(tokens):
    return np.array([float(tok) for tok in tokens]).tobytes()


# (token, decoded arithmetically): the rest are left to float(), or are no number.
DECIMALS = [
    ("0", True), ("-0", True), ("-0.0000", True), ("+1", True), (".5", True), ("5.", True),
    ("-.5", True), ("007.5", True), ("12345678", True), ("1.234567", True), ("+9999999", True),
    ("123456789", False), ("0.123456789", False), ("1e5", False), ("1.5E-3", False),
    ("inf", False), ("-nan", False), (repr(-0.35966845567139044), False),
]
NOT_NUMBERS = [".", "-", "1.2.3", "1-2", "--1", "+-1", "1+", "1.-", "..5"]


def test_decimal_tokens_decode_as_float_reads_them():
    tokens = [tok for tok, _ in DECIMALS]
    values, fast = _swar.decimals(*token_spans(tokens))
    assert fast.tolist() == [short for _, short in DECIMALS]
    assert values[fast].tobytes() == as_floats(np.array(tokens)[fast])
    # end to end: fast or not, each label and value is float()'s, sign of zero and all
    finite = [tok for tok in tokens if np.isfinite(float(tok))]
    ds = parse_libsvm("".join(f"{tok} 1:{tok}\n" for tok in finite))
    assert ds.labels.tobytes() == ds.data.tobytes() == as_floats(finite)
    for tok in ("inf", "-nan"):
        with pytest.raises(LibsvmParseError, match="^line 1: label .* is not finite$"):
            parse_libsvm(f"{tok} 1:1\n")


@pytest.mark.parametrize("token", NOT_NUMBERS)
def test_tokens_of_no_number_are_refused(token):
    _, fast = _swar.decimals(*token_spans([token]))
    assert not fast.any()
    with pytest.raises(ValueError):
        float(token)
    with pytest.raises(LibsvmParseError, match=re.escape(f"line 1: bad label {token!r}") + "$"):
        parse_libsvm(f"{token} 1:1\n")
    with pytest.raises(LibsvmParseError, match=re.escape(f"line 2: bad feature token '3:{token}'")):
        parse_libsvm(f"1 1:1\n1 3:{token}\n")


def test_fuzzed_short_decimals_decode_as_float_reads_them():
    rng = np.random.default_rng(29)
    tokens = []
    for _ in range(100_000):
        digits = "".join(map(str, rng.integers(0, 10, size=rng.integers(1, 9))))
        if rng.random() < 0.6:  # a point anywhere, ends included
            at = rng.integers(0, len(digits) + 1)
            digits = digits[:at] + "." + digits[at:]
        token = ["", "-", "+"][rng.integers(3)] + digits
        tokens.append(token if len(token) <= 8 else token[-8:].lstrip("+-") or "0")
    values, fast = _swar.decimals(*token_spans(tokens))
    assert fast.all() and values.tobytes() == as_floats(tokens)
    plain = [tok for tok in tokens if "." not in tok and "-" not in tok]
    index, fast = _swar.integers(*token_spans(plain))
    assert fast.all() and index.tolist() == [int(tok) for tok in plain]


def test_a_block_of_short_and_long_tokens_reads_as_float_reads_it():
    rng = np.random.default_rng(5)
    values = ["0.5", "1e-3", repr(rng.standard_normal()), "+2", "-4.5E+2", "123456789", ".25",
              "-0", "0.000000001", "7."]
    lines, expected = [], []
    for row in range(_libsvm._BLOCK_LINES + 3):
        label = values[row % len(values)]
        picked = [values[k] for k in rng.permutation(len(values))[:4]]
        lines.append(" ".join([label] + [f"{j}:{v}" for j, v in zip((2, 5, 123456789, 10**17), picked)]))
        expected.append([label] + picked)
    ds = parse_libsvm("\n".join(lines) + "\n")
    assert ds.labels.tobytes() == as_floats([row[0] for row in expected])
    assert ds.data.tobytes() == as_floats([v for row in expected for v in row[1:]])
    assert ds.indices.tolist() == [2, 5, 123456789, 10**17] * len(lines)
    assert ds.num_features == 10**17


@pytest.mark.parametrize("index, value", [
    ("+7", 7), ("007", 7), ("12345678", 12345678), ("123456789", 123456789),
    (str(10**18 - 1), 10**18 - 1), ("0" * 30 + "12345678901", 12345678901),
])
def test_indices_decode_as_int_reads_them(index, value):
    ds = parse_libsvm(f"1 {index}:1\n-1 1:2 {index}:3\n")
    assert ds.indices.tolist() == [value, 1, value] and ds.num_features == value


@pytest.mark.parametrize("raw, shape", [
    (b"1 3:1 7:" + b"0" * 40 + b"1\n", (1, 2, 7)),  # the last colon is 42 bytes from the end
    (b"1 3:1 12:1" + b" " * 50 + b"\n-1 4:1\n", (2, 3, 12)),
    (b"1 5:1\n2\n3" + b" " * 50 + b"\n", (3, 1, 5)),  # lines with no colon take an earlier one
    (b"3" + b" " * 50 + b"\n1 5:1\n", (2, 1, 5)),
    (b"1 123456789:" + b"1" * 30 + b"\n-1 " + b"0" * 20 + b"98765432101:1\n", (2, 2, 98765432101)),
])
def test_the_shape_pass_finds_each_lines_last_index_however_far_back(raw, shape):
    assert _libsvm._shape(_libsvm._rewound(io.BytesIO(raw))()) == shape
    ds = parse_libsvm(raw)
    assert (ds.n, ds.indices.size, ds.num_features) == shape


@pytest.mark.parametrize("index, message", [
    (str(10**18), f"feature index {10**18} is too large"),
    ("-3", "feature index must be >= 1, got -3"),
    ("3.0", "bad feature token '3.0:1'"),
])
def test_indices_out_of_range_are_refused(index, message):
    with pytest.raises(LibsvmParseError, match=f"^line 2: {message}$"):
        parse_libsvm(f"1 1:1\n1 {index}:1\n")
