"""Short decimal tokens decoded eight bytes at a time.

The functions here read a ``padded(buf)`` text, at buf's positions.  The
eight bytes before a token's end are read as one little-endian uint64
(``_words_before``), so the token's last byte is the word's highest byte.
Byte tests on the whole word (SWAR: SIMD within a register) check the
token's form; the bytes before the token, its sign and its decimal point are
taken out with per-element masks and shifts; and the eight digits left are
combined with the three multiply-shift steps of Lemire ("Number Parsing at
a Gigabyte per Second", Software: Practice and Experience 2021).  Every
byte is ASCII (below 128), so a per-byte subtraction from a byte with its
high bit set never borrows from the next byte.

A decimal with an integer mantissa m < 2**53 and k <= 22 fractional digits
is m / 10**k, one IEEE division of two exact doubles (Clinger, "How to Read
Floating Point Numbers Accurately", PLDI 1990): the correctly rounded value
that ``float()`` also returns.  Here m < 10**8 and k <= 7.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_ONES = _U(0x0101010101010101)
_HIGH = _ONES * _U(0x80)  # the high bit of every byte
_ZEROS = _ONES * _U(ord("0"))
_PAST_NINE = _ONES * _U(ord("9") + 1)
_ALL = ~_U(0)
_PAIRS = _U(0x000000FF000000FF)
_MUL1 = _U(100 + (1000000 << 32))
_MUL2 = _U(1 + (10000 << 32))
# m / _SCALE[k + 8 * minus]: dividing by -10**k negates exactly, and 0 becomes -0.0.
_SCALE = np.array([10.0**k for k in range(8)] + [-10.0**k for k in range(8)])
_EIGHT_DIGITS = (_U(1), _U(10**8), _U(10**16))


def padded(buf: np.ndarray) -> np.ndarray:
    """buf after eight zero bytes: the text the functions here read, at buf's positions."""
    text = np.zeros(buf.size + 8, np.uint8)
    text[8:] = buf
    return text


def _words_before(text: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The eight bytes before each position in ends, as little-endian uint64s."""
    # Word j is text[j:j + 8], the bytes before buf[j]: a view with a stride of
    # one byte.  It is not aligned, and take() would copy it whole first; an
    # index does not.
    return np.ndarray((text.size - 7,), "<u8", text, strides=(1,))[ends]


def _nondigits(word: np.ndarray) -> np.ndarray:
    """The high bit of each byte of word that is not an ASCII digit."""
    high = word | _HIGH
    return ~((high - _ZEROS) ^ (high - _PAST_NINE)) & _HIGH


def _equal(word: np.ndarray, char: int) -> np.ndarray:
    """The high bit of each byte of word that is char."""
    return ~(((word ^ (_ONES * _U(char))) | _HIGH) - _ONES) & _HIGH


def _at_or_below_top(bits: np.ndarray) -> np.ndarray:
    """The high bit of each byte at or below the highest byte flagged in bits."""
    bits = bits | (bits >> _U(8))
    bits |= bits >> _U(16)
    bits |= bits >> _U(32)
    return bits


def _combine(word: np.ndarray) -> np.ndarray:
    """The number that eight ASCII digits spell, the first digit in the lowest
    byte; word is overwritten."""
    word -= _ZEROS
    tens = word >> _U(8)
    word *= _U(10)
    word += tens  # byte j: the two digits j and j + 1
    high = word >> _U(16)
    high &= _PAIRS
    high *= _MUL2
    word &= _PAIRS
    word *= _MUL1
    word += high
    word >>= _U(32)
    return word


def _body(text: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(word, body, first) of the tokens buf[lo[j]:hi[j]], each at least a byte.

    word is a token's last eight bytes with its sign (a first byte "+" or
    "-") and all before it read as "0"; body is its length less the sign.
    """
    first = text[lo + 8]
    body = hi - lo
    body -= (first == ord("+")) | (first == ord("-"))
    # A shift by 64 or more (no body, or more than 8 bytes) makes 0 in numpy.
    keep = _ALL << (64 - 8 * body).astype(_U)
    word = _words_before(text, hi)
    word &= keep
    keep = ~keep
    keep &= _ZEROS
    word |= keep
    return word, body, first


def decimals(text: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(values, fast): the floats of the tokens buf[lo[j]:hi[j]] of at most
    eight bytes of the form [+-]?D*.?D* with a digit; fast marks those tokens.

    Only the tokens of at most eight bytes are decoded, so a block of long
    values, all left to float(), costs little here.
    """
    short = np.flatnonzero(hi - lo <= 8)
    if short.size < lo.size:
        values, fast = np.zeros(lo.size), np.zeros(lo.size, bool)
        values[short], fast[short] = decimals(text, lo[short], hi[short])
        return values, fast
    word, body, first = _body(text, lo, hi)
    dot = _equal(word, ord("."))
    dotted = dot != 0
    fast = (_nondigits(word) == dot) & ((dot & (dot - _U(1))) == 0) & (body > dotted)
    # Shift the digits before the point up over it, and put a "0" in the byte this empties.
    point = dot >> _U(7)
    before = word & (point - _U(1))
    shift = dotted.astype(_U) << _U(3)
    before <<= shift
    shift *= _U(6)
    after = ~((point << _U(8)) - _U(1))
    word &= after
    word |= before
    word |= shift
    after &= _ONES
    after *= _ONES
    after >>= _U(56)  # the digits after the point
    after += (first == ord("-")) * _U(8)
    return _combine(word) / _SCALE.take(after.view(np.int64)), fast


def integers(text: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(values, fast): the int64s of the tokens buf[lo[j]:hi[j]] of at most
    eight bytes of the form +?D+; fast marks those tokens."""
    word, _, first = _body(text, lo, hi)
    fast = (_nondigits(word) == 0) & (hi - lo <= 8) & (first != ord("-"))
    return _combine(word).view(np.int64), fast


def digits_before(text: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The number spelled by the last 24 digits of the run of digits ending at each end."""
    value = np.zeros(ends.size, _U)
    todo = np.arange(ends.size)
    for scale in _EIGHT_DIGITS:
        word = _words_before(text, ends)
        other = _nondigits(word)
        keep = ~((_at_or_below_top(other) >> _U(7)) * _U(0xFF))  # the digits above the last other byte
        value[todo] += _combine(word & keep | _ZEROS & ~keep) * scale
        more = (other == 0) & (ends > 8)
        todo, ends = todo[more], ends[more] - 8
    return value


def last_of(text: np.ndarray, ends: np.ndarray, char: int, words: int):
    """The position of the last byte char before each end, searched ``words`` words back.

    Returns (found, todo, at): found is -1 where no char was found; the
    search stopped unfinished on the entries todo, whose unsearched bytes
    end at at.
    """
    found = np.full(ends.size, -1)
    todo = np.arange(ends.size)
    for _ in range(words):
        bits = _equal(_words_before(text, ends), char)
        hit = bits != 0
        top = ((_at_or_below_top(bits[hit]) >> _U(7)) * _ONES) >> _U(56)  # 1 + its byte
        found[todo[hit]] = ends[hit] - 9 + top.astype(np.intp)
        more = ~hit & (ends > 8)
        todo, ends = todo[more], ends[more] - 8
    return found, todo, ends
