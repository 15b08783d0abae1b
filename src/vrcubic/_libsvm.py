"""The svmlight/libsvm text format: the parsed dataset, its readers and writer.

A source is read in windows of whole lines, about ``_SCAN_BYTES`` at a time
(``_windows``), and in two passes.  The first pass finds, with whole-window
array operations, the number of rows, the number of features and the
largest feature index (``_shape``); the output arrays are then allocated at
their final size, and the second pass tokenizes the lines ``_BLOCK_LINES``
at a time (``parse_block``) and writes each block straight into them
(``_fill``).  Labels, indices and values of at most eight bytes are
decoded eight bytes at a time with exact integer arithmetic (``_swar``);
longer ones, and any of another form, go to ``float()`` and ``int()`` in
bulk, so every number is the one ``float()`` or ``int()`` reads.  Every
source is a binary stream that each pass rewinds (``_rewound``):
``parse_libsvm`` fills CSR arrays from a str or bytes in memory, and
``read_libsvm_dense`` fills the dense matrix from a file, plain or gzip,
and holds no more of the file than a window.  ``parse_block`` walks the
lines of a block one by one only to name the first bad one.
"""

from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _swar


class LibsvmParseError(ValueError):
    """Raised on malformed svmlight/libsvm text; message names the line."""


# Feature indices are below this, to fit in int64.
_INDEX_LIMIT = 10**18
# The ASCII bytes that str.split() splits on.
_SPACE = np.array([chr(b).isspace() for b in range(128)] + [False] * 128)
# The ASCII bytes that str.splitlines() ends a line at; "\r\n" is one break.
_BREAK = np.array([b in b"\n\r\x0b\x0c\x1c\x1d\x1e" for b in range(256)])
# Bytes read into one window, and scanned at a time for line breaks and
# non-ASCII bytes: bounds the window and the scan's masks.
_SCAN_BYTES = 400 * 1024
# Lines parsed at a time: bounds the transient token arrays and byte masks.
_BLOCK_LINES = 256
# 8-byte words searched back from a line's end for its last colon before
# all of the window's colons are listed: enough for 17-digit values.
_PROBES = 4
# Lines searched at a time: bounds the search's arrays on short lines.
_SEARCH_LINES = 4096


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

    def to_dense(self) -> np.ndarray:
        """The n x num_features matrix, scattered _BLOCK_LINES rows at a time."""
        X = np.zeros((self.n, self.num_features))
        for start in range(0, self.n, _BLOCK_LINES):
            bounds = self.indptr[start:start + _BLOCK_LINES + 1]
            nz = slice(bounds[0], bounds[-1])
            X[np.repeat(np.arange(start, start + bounds.size - 1), np.diff(bounds)),
              self.indices[nz] - 1] = self.data[nz]
        return X


def binary_labels(labels: np.ndarray) -> np.ndarray:
    """Map the two distinct raw labels to {0, 1}, smaller raw value to 0."""
    distinct = np.unique(labels)
    if distinct.size != 2:
        raise ValueError(
            f"binary objective needs exactly 2 distinct labels, got {distinct.size}"
        )
    return (labels == distinct[1]).astype(float)


def _integer_ids(labels: np.ndarray) -> np.ndarray:
    """labels as an int array; ValueError unless each is a finite integer."""
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):
        raise ValueError("multiclass labels must be integers")
    return labels.astype(int)


def class_ids(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Map raw labels to 0..m-1, accepting either 0- or 1-based integers."""
    ids = _integer_ids(labels)
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

    ``source`` is a str or a C-contiguous bytes-like object, split into
    lines as ``str.splitlines`` splits; anything else is a TypeError.  Only
    ASCII is accepted.  Feature indices are 1-based, below 10**18 and strictly
    increasing within a row; labels and values are what ``float()`` reads,
    finite, and take no digit-group underscores ("1_0").  Blank lines are
    skipped; errors report the 1-based line number of the first bad line.

    A str is encoded once, a ``bytes`` is read in place and any other buffer
    is copied once; the CSR arrays are allocated once from the first pass's
    counts, so the parse holds the source, the parsed arrays and one
    window's temporaries.
    """
    bad = None
    if isinstance(source, str):  # encoded once, up to its first non-ASCII character
        try:
            source = source.encode("ascii")
        except UnicodeEncodeError as exc:
            source, bad = source[:exc.start].encode("ascii"), source[exc.start]
    try:
        contiguous = memoryview(source).c_contiguous
    except TypeError:  # not a buffer: io.BytesIO(None) would read as empty input
        contiguous = False
    if not contiguous:
        raise TypeError("parse_libsvm reads a str or a C-contiguous bytes-like object, "
                        f"got {type(source).__name__}")
    return _parse(_rewound(io.BytesIO(source), bad), _csr)


def read_libsvm_dense(path) -> tuple[np.ndarray, np.ndarray]:
    """The dense n x num_features matrix and the raw labels of a libsvm file.

    The file is parsed as ``parse_libsvm`` parses its bytes, with the same
    errors, and X is byte-identical to ``parse_libsvm(...).to_dense()``.  The
    file is read once per pass, and one ending in ".gz" is decompressed as it
    is read, so the build holds X, the labels, a window and a few arrays the
    size of its bytes or of its lines, never the whole file or a CSR copy.
    """
    gz = Path(path).suffix == ".gz"
    with (gzip.open if gz else open)(path, "rb") as fh:
        return _parse(_rewound(fh), _dense)


def serialize_libsvm(dataset: LibsvmDataset) -> str:
    """Inverse of parse_libsvm on the parsed representation."""
    idx, val, bounds = dataset.indices.tolist(), dataset.data.tolist(), dataset.indptr.tolist()
    out = []
    for label, a, b in zip(dataset.labels.tolist(), bounds, bounds[1:]):
        parts = [repr(label)]
        parts.extend(f"{j}:{v!r}" for j, v in zip(idx[a:b], val[a:b]))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def _csr(rows: int, nnz: int, num_features: int):
    """An empty dataset of this shape, and the sink that fills it."""
    ds = LibsvmDataset(np.empty(rows), np.zeros(rows + 1, np.int64), np.empty(nnz, np.int64),
                       np.empty(nnz), num_features)

    def sink(row, label, counts, index, value):
        at = ds.indptr[row]
        ds.labels[row:row + label.size] = label
        ds.indptr[row + 1:row + 1 + label.size] = at + np.cumsum(counts)
        ds.indices[at:at + index.size] = index
        ds.data[at:at + index.size] = value

    return ds, sink


def _dense(rows: int, nnz: int, num_features: int):
    """A zero X and the labels of this shape, and the sink that fills them."""
    X, labels = np.zeros((rows, num_features)), np.empty(rows)

    def sink(row, label, counts, index, value):
        labels[row:row + label.size] = label
        X[np.repeat(np.arange(row, row + label.size), counts), index - 1] = value

    return (X, labels), sink


def _parse(windows, allocate):
    """What allocate(rows, nnz, num_features) returns first, filled by its sink.

    ``windows()`` starts the source's windows again; the first pass takes
    the shape, the second parses into the sink.
    """
    rows, nnz, num_features = _shape(windows())
    try:
        result, sink = allocate(rows, nnz, num_features)
    except (MemoryError, ValueError):
        _fill(windows(), lambda *block: None)  # a bad line's error wins: its index may be why
        raise
    _fill(windows(), sink)
    if not rows:
        raise LibsvmParseError("line 1: empty input, no data rows")
    return result


def _shape(windows) -> tuple[int, int, int]:
    """Rows, feature tokens and the largest feature index of valid text.

    Rows are the lines that hold a byte other than whitespace, and feature
    tokens are colons.  Indices strictly increase within a line, so the
    largest is the largest of the digits before each line's last colon,
    searched for a few words back from each line's end (``_largest_index``).
    On text with a bad line the counts only bound the lines before it.
    """
    rows = nnz = num_features = 0
    for buf, starts, ends, _, _ in windows:
        if not (starts.size and buf.size):  # no line, or only empty ones
            continue
        # Most rows start with their label, so only the lines that start with
        # a blank are searched for another byte.  An empty line starts at a
        # break, or at the end of a joined window.
        blank = _SPACE[buf.take(starts, mode="clip")]
        maybe = np.flatnonzero(blank & (ends > starts))
        if maybe.size:
            word = np.zeros(ends[-1] + 1, bool)
            np.invert(_SPACE[buf[:ends[-1]]], out=word[:-1])
            spans = np.column_stack((starts[maybe], ends[maybe])).ravel()
            blank[maybe] = ~np.logical_or.reduceat(word, spans)[::2]
        rows += blank.size - np.count_nonzero(blank)
        nnz += np.count_nonzero(buf[:ends[-1]] == ord(":"))
        text = _swar.padded(buf[:ends[-1]])
        for at in range(0, ends.size, _SEARCH_LINES):
            num_features = max(num_features, _largest_index(text, ends[at:at + _SEARCH_LINES]))
    return rows, nnz, num_features


def _largest_index(text: np.ndarray, ends: np.ndarray) -> int:
    """The largest number before the last colon of the lines that end at ends
    (0: none); text is the window after ``_swar.padded``."""
    last, todo, at = _swar.last_of(text, ends, ord(":"), _PROBES)
    if todo.size:  # lines whose last colon is further back, or that have none
        colon = np.flatnonzero(text[8:8 + at.max()] == ord(":"))
        if colon.size:  # a line without a colon takes another line's, no larger
            last[todo] = colon[np.searchsorted(colon, at) - 1]
    last = last[last >= 0]
    return int(_swar.digits_before(text, last).max()) if last.size else 0


def _fill(windows, sink) -> None:
    """Parse the windows' lines block by block into sink."""
    row = 0
    for buf, starts, ends, first, error in windows:
        for at in range(0, starts.size, _BLOCK_LINES):
            block = slice(at, at + _BLOCK_LINES)
            parts = parse_block(buf, starts[block], ends[block], first + at)
            sink(row, *parts)
            row += parts[0].size
        if error:
            raise LibsvmParseError(error)


def _rewound(fh, bad=None):
    """A function that starts the windows of the binary stream fh again each call."""

    def windows():
        fh.seek(0)
        return _windows(fh.readinto, _SCAN_BYTES, bad)

    return windows


def _windows(readinto, size: int, bad=None):
    r"""The lines of what ``readinto(buffer)`` reads, a window at a time.

    Yields (buf, starts, ends, first, error): line k of a window is
    ``buf[starts[k]:ends[k]]`` without its break, and ``first`` is the
    number of its first line.  Windows are read into one buffer of ``size``
    bytes, so each is valid until the next is read.  A window ends just
    after the last line break read so far, but a "\r" that ends what was
    read waits for the next read, which may hold its "\n"; a line longer
    than the buffer doubles it until the line ends.  The last window stops
    at the end or before the first non-ASCII byte, and its error names that
    byte's line, or the line of ``bad``, a non-ASCII character that follows
    all that is read (None: all ASCII).
    """
    first, buf, kept = 1, np.empty(size, np.uint8), 0
    while True:
        if kept == buf.size:
            buf = np.concatenate((buf, buf))
        got = readinto(memoryview(buf)[kept:])
        data = buf[:kept + got]
        breaks, at = _scan(data)
        if not got or at < data.size:
            char = data[at:at + 1].tobytes() or bad  # the line that holds it is left out
            starts, ends = _bounds(data, breaks, None if char else at)
            error = char and f"line {first + ends.size}: non-ASCII character {char!r}"
            yield data, starts, ends, first, error
            return
        if data[-1] == ord("\r"):
            breaks = breaks[:-1]
        kept = data.size
        if breaks.size:
            cut = int(breaks[-1]) + 1
            starts, ends = _bounds(data, breaks, None)
            yield data[:cut], starts, ends, first, None
            first += ends.size
            kept -= cut
            buf[:kept] = data[cut:]


def _bounds(buf: np.ndarray, breaks: np.ndarray, stop: int | None):
    """Starts and ends of the lines of buf that end at breaks, and of the
    line after the last break when it ends at ``stop`` (None: no such line)."""
    # The "\n" of a "\r\n" continues the break that its "\r" starts.
    joined = np.zeros(breaks.size + 1, bool)
    joined[1:-1] = ((np.diff(breaks) == 1) & (buf[breaks[:-1]] == ord("\r"))
                    & (buf[breaks[1:]] == ord("\n")))
    ends = breaks[~joined[:-1]]
    starts = np.concatenate(([0], (breaks + 1 + joined[1:])[~joined[:-1]]))
    if stop is not None and starts[-1] < stop:
        return starts, np.append(ends, stop)
    return starts[:-1], ends


def _scan(buf: np.ndarray) -> tuple[np.ndarray, int]:
    """Positions of buf's line-break bytes before its first byte above 127,
    and that byte's position (buf.size when there is none)."""
    breaks = [np.zeros(0, np.intp)]
    for lo in range(0, buf.size, _SCAN_BYTES):
        window = buf[lo:lo + _SCAN_BYTES]
        # Bytes below 31 or above 127: uint8 wrap-around puts both above 96.
        rare = np.flatnonzero(window - np.uint8(31) > 96)
        byte = window[rare]
        high = np.flatnonzero(byte > 127)
        stop = int(high[0]) if high.size else rare.size
        breaks.append(rare[:stop][_BREAK[byte[:stop]]] + lo)
        if high.size:
            return np.concatenate(breaks), lo + int(rare[stop])
    return np.concatenate(breaks), buf.size


def parse_block(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, first: int):
    """Labels, features per row, indices and values of the lines ``buf[starts[k]:ends[k]]``.

    ``first`` is the line number of the block's first line.  When a bulk
    check fails, the lines are walked one at a time to raise the first bad
    line's error.
    """
    parts = _bulk_parse(buf[starts[0]:ends[-1]], starts - starts[0])
    if parts is not None:
        return parts
    for k, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        message = _line_error(buf[a:b].tobytes().decode("ascii"))
        if message:
            raise LibsvmParseError(f"line {first + k}: {message}")
    raise AssertionError("a bulk libsvm check failed on lines that parse")


def _bulk_parse(buf: np.ndarray, line_starts: np.ndarray):
    """parse_block's arrays from whole-block array operations, or None on any bad line.

    ``buf`` holds the block's lines, each starting at its ``line_starts``
    entry; the breaks between them are whitespace to the tokenizer.
    """
    if ord("_") in buf:
        return None
    # Tokens.  Above " " every byte is a token byte; at or below, all but the
    # bytes.split() separators (space and \t\n\v\f\r) are rare, so they are
    # classified one by one.
    word = np.zeros(buf.size + 2, bool)
    word[1:-1] = buf > ord(" ")
    rare = np.flatnonzero((buf < ord("\t")) | (buf - 14 < 18))
    space = _SPACE[buf[rare]]
    word[rare + 1] = ~space
    start, end = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T
    # The first token at or after each line's start is a label (the next
    # line's, when the line is blank).
    label = np.zeros(start.size + 1, bool)
    label[np.searchsorted(start, line_starts)] = True
    label = label[:-1]
    feature = np.flatnonzero(~label)

    # Colons sit one inside each feature token and in no label, so the k-th
    # colon belongs to the k-th feature.
    colon = np.flatnonzero(buf == ord(":"))
    fstart = start[feature]
    if colon.size != feature.size or not ((fstart < colon) & (colon < end[feature] - 1)).all():
        return None

    # Labels, and values after their colon, are decimals; indices before it are integers.
    lo = start.copy()
    lo[feature] = colon + 1
    text = _swar.padded(buf)
    numbers, fast = _swar.decimals(text, lo, end)
    index, fast_index = _swar.integers(text, fstart, colon)
    del text  # before the copies that the longer tokens need
    slow, slow_index = np.flatnonzero(~fast), np.flatnonzero(~fast_index)
    try:  # the longer tokens, and any of another form, as float() and int() read them
        numbers[slow] = _read_all(buf, lo[slow], end[slow], float, float)
        index[slow_index] = _read_all(buf, fstart[slow_index], colon[slow_index], int, np.int64)
    except (ValueError, OverflowError):
        return None
    first_of_row = label[feature - 1]
    if not (((index >= 1) & (index < _INDEX_LIMIT)).all()
            and ((np.diff(index) > 0) | first_of_row[1:]).all()
            and np.isfinite(numbers).all()):
        return None
    counts = np.diff(np.flatnonzero(label), append=start.size) - 1
    return numbers[label], counts, index, numbers[feature]


def _read_all(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, read, dtype) -> np.ndarray:
    """read() of each token buf[lo[j]:hi[j]], from one bytes.split() of a copy of
    buf in which every other byte is blank."""
    if not lo.size:
        return np.zeros(0, dtype)
    # 0xFF over the tokens and 0 between them, run by run; then buf over
    # the tokens and blanks between them.
    bounds = np.zeros(2 * lo.size + 2, np.intp)
    bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = lo, hi, buf.size
    fill = np.zeros(bounds.size - 1, np.uint8)
    fill[1::2] = 0xFF
    text = np.repeat(fill, np.diff(bounds))
    text &= buf ^ np.uint8(ord(" "))
    text ^= np.uint8(ord(" "))
    return np.fromiter(map(read, text.tobytes().split()), dtype, lo.size)


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
        if idx >= _INDEX_LIMIT:
            return f"feature index {idx} is too large"
        if idx <= prev_idx:
            return f"feature indices must be strictly increasing ({idx} after {prev_idx})"
        prev_idx = idx
    return None
