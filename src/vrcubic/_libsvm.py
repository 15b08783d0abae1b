"""Line splitting and block tokenizing behind ``objectives.parse_libsvm``.

``ascii_lines`` turns a source into one byte buffer and the bounds of its
lines; ``parse_block`` turns a block of those lines into labels, features per
row, indices and values with whole-block array operations, and walks the
lines one by one only to name the first bad one.
"""

from __future__ import annotations

import math

import numpy as np


class LibsvmParseError(ValueError):
    """Raised on malformed svmlight/libsvm text; message names the line."""


# Feature indices are decoded from their ASCII digits in int64; an index needs
# fewer digits than this, leading zeros aside.
_INDEX_DIGITS = 18
_POW10 = np.array([10**k for k in range(_INDEX_DIGITS)], dtype=np.int64)
# The ASCII bytes that str.split() splits on.
_SPACE = np.array([chr(b).isspace() for b in range(128)] + [False] * 128)
# The ASCII bytes that str.splitlines() ends a line at; "\r\n" is one break.
_BREAK = np.array([b in b"\n\r\x0b\x0c\x1c\x1d\x1e" for b in range(256)])
# Bytes scanned at a time for line breaks, colons and non-ASCII bytes: bounds
# the scan's masks.
_SCAN_BYTES = 400 * 1024


def ascii_lines(source):
    """Bytes of source, the bounds of its lines before its first non-ASCII
    character, the number of colons there, and the error naming that
    character (None when all is ASCII).

    A str is encoded once, a bytes-like buffer is read in place, and the
    elements of any other iterable are joined, one line each.  Line k is
    ``buf[starts[k]:ends[k]]``, without its line break.
    """
    if isinstance(source, str):
        at = _non_ascii_at(source)
        buf = np.frombuffer(source[:at].encode("ascii"), np.uint8)
        breaks, _, colons = _scan(buf)
        bad = source[at:at + 1]
    else:
        try:
            view = memoryview(source)
        except TypeError:
            return _joined_lines(source)
        if not view.c_contiguous:
            view = memoryview(view.tobytes())
        buf = np.frombuffer(view.cast("B"), np.uint8)
        breaks, at, colons = _scan(buf)
        bad = buf[at:at + 1].tobytes()
    # The "\n" of a "\r\n" continues the break that its "\r" starts.
    joined = np.zeros(breaks.size + 1, bool)
    joined[1:-1] = ((np.diff(breaks) == 1) & (buf[breaks[:-1]] == ord("\r"))
                    & (buf[breaks[1:]] == ord("\n")))
    ends = breaks[~joined[:-1]]
    starts = np.concatenate(([0], (breaks + 1 + joined[1:])[~joined[:-1]]))
    if bad:  # the line that holds the non-ASCII character is left out
        return buf, starts[:-1], ends, colons, _non_ascii_error(ends.size + 1, bad, 0)
    if starts[-1] < at:
        return buf, starts, np.append(ends, at), colons, None
    return buf, starts[:-1], ends, colons, None


def _scan(buf: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Positions of buf's line-break bytes before its first byte above 127,
    that byte's position (buf.size when there is none), and the colons before it."""
    breaks, colons = [np.zeros(0, np.intp)], 0
    for lo in range(0, buf.size, _SCAN_BYTES):
        window = buf[lo:lo + _SCAN_BYTES]
        # Bytes below 31 or above 127: uint8 wrap-around puts both above 96.
        rare = np.flatnonzero(window - np.uint8(31) > 96)
        byte = window[rare]
        high = np.flatnonzero(byte > 127)
        stop = int(high[0]) if high.size else rare.size
        breaks.append(rare[:stop][_BREAK[byte[:stop]]] + lo)
        if high.size:
            at = int(rare[stop])
            colons += np.count_nonzero(window[:at] == ord(":"))
            return np.concatenate(breaks), lo + at, colons
        colons += np.count_nonzero(window == ord(":"))
    return np.concatenate(breaks), buf.size, colons


def _joined_lines(lines):
    """ascii_lines for an iterable of str or bytes lines: one line per element."""
    encoded, bad = [], None
    for k, line in enumerate(lines):
        at = _non_ascii_at(line)
        if at < len(line):
            bad = _non_ascii_error(k + 1, line, at)
            break
        encoded.append(line.encode("ascii") if isinstance(line, str) else bytes(line))
    raw = b"\n".join(encoded)
    size = np.fromiter(map(len, encoded), np.intp, len(encoded)) + 1
    starts = np.cumsum(size) - size
    return np.frombuffer(raw, np.uint8), starts, starts + size - 1, raw.count(b":"), bad


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
