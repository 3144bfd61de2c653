"""Dataset CSV ingestion, model serialization, and prediction export.

Feature files are plain CSV with header ``f0,f1,...,f{d-1},label``; the
label cell holds a class name or ``?`` for unlabeled rows; load_csv's
docstring says how they are read: its fast pass reads each chunk of lines
into one padded buffer, takes a cell's bytes as 8-byte words cut from the
buffer's aligned words (see _windows) and looks its label cells up as
bytes; its exact pass divides in long double, and tells a quotient halfway
between two doubles by the significand's bits below a double's 53, found
in a word probed once at import, or divides in doubles where no word is
found (see _wide_constants). Feature, prediction and ROC files hold
repr's text of each float, made for whole arrays by a pass that runs the
reader's exact conversion backwards (see _shortest_digits), and by repr
itself for the values that pass cannot decide; it takes its 17-digit
candidates without a read-back, since they always read back. Models are
stored as JSON documents whose floats round-trip bit-exactly (Python's
shortest-repr float rendering). No timestamps or environment data are
written, so identical models produce identical bytes.
"""

from __future__ import annotations

import array
import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .belief import Frame
from .errors import CorruptFieldError, DimensionMismatchError, EvidnetError, MalformedCsvError
from .model import (
    EvidentialModel,
    ModelConfig,
    _class_indices,
    _require_finite_features,
    decide,
    forward_batch,
)

FORMAT_VERSION = 1

UNLABELED = "?"

PREDICTIONS_HEADER = "row,m_pos,m_neg,m_omega,pl_pos,pl_neg,decision"


@dataclass
class FeatureDataset:
    """Feature matrix plus per-row optional class labels.

    labels holds indices into class_names; None marks an unlabeled row.
    The features have at least one column and the class names are
    distinct: load_csv could not read back what write_csv wrote otherwise.
    """

    features: np.ndarray
    labels: list[Optional[int]]
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise DimensionMismatchError(
                f"features must be a matrix, got shape {self.features.shape}"
            )
        if self.features.shape[1] == 0:
            raise DimensionMismatchError("features must have at least one column")
        _require_finite_features(self.features)
        self.labels = list(self.labels)
        if len(self.labels) != self.features.shape[0]:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {self.features.shape[0]} rows"
            )
        self.class_names = tuple(self.class_names)
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError(f"class names must be distinct, got {self.class_names}")
        _class_indices([lab for lab in self.labels if lab is not None], len(self.class_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    def fully_labeled(self) -> bool:
        return all(lab is not None for lab in self.labels)


def _expected_header(d: int) -> list[str]:
    return [f"f{j}" for j in range(d)] + ["label"]


def _check_cells(path: Path, rownum: int, cells: Sequence[str]) -> None:
    """Raise the error for the first faulty feature cell of a row, if any."""
    for j, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            raise MalformedCsvError(
                f"{path}: row {rownum}, column f{j}: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise MalformedCsvError(
                f"{path}: row {rownum}, column f{j}: non-finite value {cell!r}"
            )


def _records(fh, path: Path, skip: int = 0):
    """Cells of each record of a CSV file opened with newline="" and
    errors="surrogateescape", as csv.reader reads them, after its first
    skip lines; csv errors, such as a field past csv's size limit, raise
    MalformedCsvError naming the file."""
    try:
        for _ in itertools.islice(fh, skip):
            pass
        yield from csv.reader(fh)
    except csv.Error as exc:
        raise MalformedCsvError(f"{path}: {exc}") from None


# Bytes that are not UTF-8, as the surrogateescape error handler decodes them.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _not_utf8(cells: Sequence[str]) -> bool:
    """Whether a record's cells hold bytes that are not UTF-8."""
    text = "".join(cells)
    return not text.isascii() and _ESCAPED_BYTE.search(text) is not None


def _names_index(fixed_names: tuple[str, ...] | None) -> dict[str, int]:
    """Class index of each fixed name."""
    return {name: i for i, name in enumerate(fixed_names or ())}


def _label_index(index: dict[str, int], fixed_names, label: str) -> Optional[int]:
    """Class index of a label cell; None for an unlabeled row.

    A name not in index is added to it when no names are fixed, and raises
    KeyError otherwise.
    """
    if label == UNLABELED:
        return None
    if fixed_names is None:
        return index.setdefault(label, len(index))
    return index[label]


# The fast pass reads a feature file in chunks of whole lines of about this
# many bytes, so that the temporaries of a chunk stay in cache.
CHUNK_BYTES = 1 << 17

# A cell [-]digits[.digits][(e|E)[+|-]digits] is the integer M of its digits
# over 10**f. When M and 10**f are exact in the wide type, one division (a
# multiplication when f < 0) rounds M / 10**f once, and rounding that to a
# double gives float(cell), unless the wide quotient lies exactly halfway
# between two doubles, where the exact value may lie on either side (Clinger
# 1990, "How to Read Floating Point Numbers Accurately"). A nonzero quotient
# lies in [10**-f, 2**64 * 10**f], where a double holds 53 bits, so it is
# such a midpoint exactly when its significand's bits below a double's 53
# read a 1, then zeros. An x87 or binary128 long double holds every 19-digit
# M and 10**27, and keeps those bits in one 64-bit word of its bytes; where
# the long double is anything else (binary64, double-double), or no word is
# found, the wide type is the double itself, which rounds once, holds M up
# to 2**53 and 10**22, and leaves more cells to float().
def _midpoint_word(below: int):
    """The byte offset, in a long double, of the native 64-bit word whose
    low below bits are the significand's last, or None.

    The exact midpoint 1 + 2**-53 reads a 1 and then zeros there, and the
    next wide value above it a 1 and then zeros and a 1. Words are read at
    every byte offset through a view strided by the value's size, so a
    12-byte long double is probed as well as a 16-byte one.
    """
    probe = np.ones(2, dtype=np.longdouble)
    probe += np.longdouble(2.0 ** -53)
    probe[1] = np.nextafter(probe[0], np.longdouble(2))
    half = 1 << (below - 1)
    for offset in range(probe.itemsize - 7):
        words = np.ndarray(2, np.uint64, probe, offset, (probe.itemsize,))
        if (words & _U((1 << below) - 1)).tolist() == [half, half + 1]:
            return offset
    return None


def _wide_constants(bits: int) -> dict:
    """Every constant the decimal pass derives from its wide type, by name,
    for a long double of a bits-bit mantissa (53: the double itself):
    the mantissa width the pass runs at, its wide type, the largest scale f
    and mantissa M that type holds exactly, 10**0 .. 10**f in it, and the
    offset of the word holding a quotient's bits below a double's 53 (None
    where the wide type is the double, whose quotients are no midpoints)."""
    word = _midpoint_word(bits - 53) if bits in (64, 113) else None
    if word is None:
        bits = 53
    wide = np.longdouble if bits > 53 else np.float64
    max_scale = max(k for k in range(64) if 5 ** k < 2 ** bits)
    pow10 = np.array([1] + [10] * max_scale, dtype=wide).cumprod()  # each product exact
    return {"_WIDE_BITS": bits, "_WIDE": wide, "_MAX_SCALE": max_scale,
            "_MAX_MANTISSA": min(2 ** 64 - 1, 2 ** bits), "_POW10": pow10,
            "_MIDPOINT_WORD": word}


_U = np.uint64
_LONG_BITS = np.finfo(np.longdouble).nmant + 1
_WIDE_BITS, _WIDE, _MAX_SCALE, _MAX_MANTISSA, _POW10, _MIDPOINT_WORD = \
    _wide_constants(_LONG_BITS).values()

# A cell's characters before its exponent are read right-aligned into a
# window of up to three little-endian 8-byte words: column c of the window
# is byte c % 8 of word c // 8. The _WINDOW bytes put before a chunk give
# the window of its first cell somewhere to start.
_WINDOW = 24
_PAD = b"0" * _WINDOW
_EVERY_BYTE = _U(0x0101010101010101)
_ZEROS = _EVERY_BYTE * _U(ord("0"))
_LOW7 = _EVERY_BYTE * _U(0x7F)
_HIGH = _EVERY_BYTE * _U(0x80)
_PAST_NINE = _EVERY_BYTE * _U(0x80 - 10)
_MOVEMASK = _U(0x0102040810204080)  # the high bit of byte j into bit j of the top byte
# _BEFORE[i, k]: the bytes of word i in the window's columns below k
_BEFORE = np.array([[(1 << 8 * min(max(k - 8 * i, 0), 8)) - 1 for k in range(_WINDOW + 1)]
                    for i in range(_WINDOW // 8)], dtype=np.uint64)


def _not_digits(w):
    """The high bit of each byte of w that is not a digit value 0 to 9."""
    return (((w & _LOW7) + _PAST_NINE) | w) & _HIGH


def _eight_digits(w):
    """The number of each word of eight digit values, the first in byte 0."""
    w = w * _U(10) + (w >> _U(8))
    return (((w & _U(0x000000FF000000FF)) * _U(100 + (1000000 << 32)))
            + (((w >> _U(16)) & _U(0x000000FF000000FF)) * _U(1 + (10000 << 32)))) >> _U(32)


def _decimal_cells(text: bytes, starts, ends):
    """Values of the cells text[starts[i]:ends[i]], and a mask of those
    that equal float() of the cell.

    text holds at least _WINDOW bytes before the first cell and 8 after
    the last, and the cells are disjoint and in order. Its bytes are read
    as numbers through the array of its aligned 8-byte words, which numpy
    makes without a copy; a cell's windows are cut from the words they
    straddle (see _windows), so np.take gathers from a contiguous, aligned
    array and never copies the text first. The mask holds the cells that
    read [-]digits[.digits][(e|E)[+|-]digits] with a digit before the
    exponent, at most _WINDOW characters before it, at most 19 significant
    digits and at most 3 exponent digits, whose scale f is at most
    _MAX_SCALE in size, and whose wide quotient is not a midpoint between
    two doubles; the values of other cells are meaningless.
    """
    a = np.frombuffer(text, dtype=np.uint8)
    words = np.frombuffer(text, "<u8", len(text) // 8)
    ok = np.ones(starts.size, dtype=bool)
    mantissa_end, scale = _exponents(a, words, starts, ends, ok)
    negative = np.take(a, starts) == ord("-")
    mantissa, fraction = _mantissas(a, words, mantissa_end - starts, mantissa_end, negative, ok)
    x = _quotients(mantissa, scale + fraction, ok)
    x.view(np.uint64)[...] |= negative.astype(np.uint64) << _U(63)
    return x, ok


def _windows(words, p, n):
    """The n little-endian 8-byte words at bytes p, p + 8, ... of the text
    whose aligned words are words, one row per word and one column per
    offset in p: each is cut from the two aligned words it straddles. At
    an aligned offset the upper word is shifted by 64 bits, which numpy
    gives as 0."""
    shift = ((p & 7) << 3).astype(np.uint64)
    w = np.take(words, (p >> 3) + np.arange(n + 1)[:, None])
    out = w[:-1] >> shift
    out |= w[1:] << (_U(64) - shift)
    return out


def _exponents(a, words, starts, ends, ok):
    """Where each cell's mantissa ends, at its e or E if it has one, and
    minus its exponent; clears ok for a cell with two exponents or one
    without 1 to 3 digits after its sign."""
    scale = np.zeros(starts.size, dtype=np.int64)
    e_at = np.flatnonzero((a | 0x20) == ord("e"))
    cell = np.searchsorted(ends, e_at, side="right")
    inside = cell < starts.size
    inside[inside] = np.take(starts, cell[inside]) <= e_at[inside]
    e_at, cell = e_at[inside], cell[inside]
    if not cell.size:
        return ends, scale
    ok[cell[1:][cell[1:] == cell[:-1]]] = False
    mantissa_end = ends.copy()
    mantissa_end[cell] = e_at
    cell_end = np.take(ends, cell)
    sign = np.take(a, e_at + 1)
    n_digits = cell_end - e_at - 1 - ((sign == ord("-")) | (sign == ord("+")))
    w = _windows(words, cell_end - 8, 1)[0] ^ _ZEROS
    # n_digits >= 0, so an index is at most 8, and "clip" only sends one
    # below 0 (more than 8 digits) to 0
    w &= ~np.take(_BEFORE[0], 8 - n_digits, mode="clip")
    ok[cell[(n_digits < 1) | (n_digits > 3) | (_not_digits(w) != 0)]] = False
    exponent = _eight_digits(w).astype(np.int64)
    scale[cell] = np.where(sign == ord("-"), exponent, -exponent)
    return mantissa_end, scale


def _mantissas(a, words, length, mantissa_end, negative, ok):
    """The integer of each mantissa's digits, and how many follow its dot;
    clears ok for a mantissa that is not [-]digits[.digits] with a digit,
    or is longer than the window, or has more than 19 significant digits
    (or more than the wide type holds exactly)."""
    n_words = min(max(-(-int(length.max()) // 8), 1), _WINDOW // 8)
    width = 8 * n_words
    ok &= length <= width
    # the digit values, right-aligned; columns before the mantissa read 0
    g = _windows(words, mantissa_end - width, n_words)
    g ^= _ZEROS
    # a mantissa that starts with "-" has a length of at least 1, so an
    # index is at most width, and "clip" only sends one below 0 (a mantissa
    # longer than the window) to 0
    g &= ~np.take(_BEFORE[:n_words], width - length + negative, axis=1, mode="clip")
    # the one column that may hold no digit holds the dot
    others = _columns(_not_digits(g))
    ok &= (others & (others - _U(1))) == 0
    dot_column = np.frexp(others)[1]  # that column counted from 1, or 0
    has_dot = others != 0
    # a cell with no such column reads, and ignores, the byte before its
    # window: at most one byte before the text, which "clip" sends to 0
    at = mantissa_end - (width + 1)
    at += dot_column
    ok &= has_dot <= (np.take(a, at, mode="clip") == ord("."))  # has_dot implies a dot
    # drop the dot: each column up to it takes the digit on its left
    shifted = g << _U(8)
    shifted[1:] |= g[:-1] >> _U(56)
    shifted ^= g
    shifted &= np.take(_BEFORE[:n_words], dot_column, axis=1)
    g ^= shifted
    ok &= length - negative - has_dot >= 1
    digits = _eight_digits(g)
    mantissa = digits[0]
    if n_words == 3:
        ok &= mantissa < 1000
    for i in range(1, n_words):
        mantissa = mantissa * _U(10 ** 8) + digits[i]
    if _MAX_MANTISSA < 2 ** 64 - 1:
        ok &= mantissa <= _MAX_MANTISSA
    return mantissa, (width - dot_column) * has_dot


def _columns(high):
    """Per cell, bit c set where the byte in column c of its window, in
    high, has its high bit set."""
    flags = ((high >> _U(7)) * _MOVEMASK) >> _U(56)
    columns = flags[0]
    for i in range(1, len(flags)):
        columns |= flags[i] << _U(8 * i)
    return columns


def _quotients(mantissa, scale, ok):
    """mantissa / 10**scale rounded to doubles through the wide type;
    clears ok where the scale is out of range or the wide quotient is a
    midpoint between two doubles: where its significand's bits below a
    double's 53, read through a uint64 view of the word _wide_constants
    found, are a 1, then zeros. A double quotient is no midpoint."""
    size = np.abs(scale)
    ok &= size <= _MAX_SCALE
    size[~ok] = 0
    up = scale < 0
    quotient = mantissa.astype(_WIDE)
    product = quotient[up] * _POW10[size[up]]
    quotient /= _POW10[size]
    quotient[up] = product
    if _MIDPOINT_WORD is not None:
        below = np.ndarray(quotient.shape, np.uint64, quotient, _MIDPOINT_WORD,
                           (quotient.itemsize,))
        ok &= (below & _U(2 ** (_WIDE_BITS - 53) - 1)) != _U(2 ** (_WIDE_BITS - 54))
    return quotient.astype(np.float64)


# Printing runs the parser backwards. repr gives the fewest significant
# digits that read back as x, and of those the nearest to x (Steele and
# White 1990, "How to Print Floating-Point Numbers Accurately"). y, x
# scaled by 10**s into [10**16, 10**17) by one exact power of ten in the
# wide type, is rounded once, so with its error bound it gives x correctly
# rounded to 17, 16 and 15 digits, unless y is within that bound of a tie.
# A 15- or 16-digit candidate is kept only when _quotients reads it back
# as x. Round trips are monotone in the digit count, so the printed digits
# are
#   - the 15-digit candidate, when it reads back: no other 15-digit decimal
#     lies within half a gap of x, so every shorter one that reads back is
#     it with trailing zeros;
#   - else the 16-digit one, when it reads back and the 15-digit one surely
#     does not;
#   - else the 17-digit one, when the 16-digit one surely does not read
#     back, x is no power of two and y is not within its bound of a tie.
#     At a power of two the gap below x is half the gap above, and a
#     farther 16-digit decimal may read back where the nearest does not.
#     This candidate is not read back: x correctly rounded to 17 digits
#     always reads back, as 10**16 > 2**53 (Matula 1968, "In-and-out
#     conversions").
# Zeros are written directly. Everything else goes to repr: non-finite
# values, x whose scales the wide type does not hold exactly, ties within
# the error bound, 15- and 16-digit candidates _quotients cannot decide,
# powers of two that need 17 digits, and every value where the wide type
# is the double itself.
# what precedes a value's digits, right-aligned in a word of NULs: its
# sign, then "0." and zeros where the point precedes them; by lead + 5 * minus
_PREFIXES = np.frombuffer(b"".join(
    (sign + lead).rjust(8, b"\0") for sign in (b"", b"-")
    for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")), dtype="<u8")


def _scaled(a, s):
    """a * 10**s in the wide type, rounded once (|s| <= _MAX_SCALE)."""
    y = a.astype(_WIDE)
    y *= _POW10[np.maximum(s, 0)]
    down = s < 0
    if down.any():
        y[down] /= _POW10[-s[down]]
    return y


def _rounded(r, f, unit: int, err: float):
    """(r + f) / unit rounded to an integer, for integers r and |f| <= 1/2,
    and where r + f is within err of a tie."""
    q = r // _U(unit)
    rest = (r - q * _U(unit)).astype(np.int64) - unit // 2
    return q + ((rest > 0) | ((rest == 0) & (f > 0))), (rest == 0) & (np.abs(f) <= err)


def _reads_back(digits, scale, a):
    """Where digits / 10**scale reads back as a, and where it surely reads
    as another double; both are False where _quotients cannot tell."""
    ok = np.ones(a.size, dtype=bool)
    same = _quotients(digits, scale, ok) == a
    return ok & same, ok & ~same


def _shortest_digits(x):
    """repr's digits of each value of x (1-D float64): a 17-digit integer
    whose significant digits they are, decpt (the value is 0.d1d2... ×
    10**decpt), and the mask of values decided; the rest are meaningless.
    The 15- and 16-digit candidates are read back through _quotients; the
    17-digit one is not, since x correctly rounded to 17 digits always
    reads back (see the comment above)."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 16 - np.floor(np.log10(a))  # nan or ±inf for zero and non-finite values
    decided = (s >= 3 - _MAX_SCALE) & (s <= _MAX_SCALE - 1) & (_WIDE_BITS > 53)
    s = np.where(decided, s, 16).astype(np.int64)
    a = np.where(decided, a, 1.0)
    y = _scaled(a, s)
    # log10 can miss the decade by one near a power of ten
    low, high = y < _POW10[16], y >= _POW10[17]
    off = np.flatnonzero(low | high)
    if off.size:
        s[off] += np.where(low[off], 1, -1)
        y[off] = _scaled(a[off], s[off])
    r = np.rint(y)
    # exact for an x87 long double, where y >= 2**53 is a multiple of 2**-10;
    # rounding a binary128 f keeps its sign and its zeros, and flags more ties
    f = (y - r).astype(np.float64)
    r = r.astype(np.uint64)
    err = 2.0 ** (56 - _WIDE_BITS)  # half an ulp of y < 2**57
    c16, tie16 = _rounded(r, f, 10, err)
    c15, _ = _rounded(r, f, 100, err)  # a tie here is far from x, and reads back as nothing
    took16, not16 = _reads_back(c16, s - 1, a)
    took15, not15 = np.zeros_like(decided), np.zeros_like(decided)
    i = np.flatnonzero(took16 | tie16)
    took15[i], not15[i] = _reads_back(c15[i], s[i] - 2, a[i])
    power_of_two = (x.view(np.uint64) & _U(2 ** 52 - 1)) == 0
    took17 = not16 & ~tie16 & ~power_of_two & (np.abs(f) < 0.5 - err)
    took16 &= ~tie16 & not15
    decided &= took15 | took16 | took17
    digits = np.where(took15, c15 * _U(100), np.where(took16, c16 * _U(10), r))
    carry = digits == _U(10 ** 17)  # rounded up to the next power of ten
    digits[carry] = _U(10 ** 16)
    s -= carry
    zero = x == 0
    digits[zero] = 0
    s[zero] = 16
    return digits, 17 - s, decided | (zero & (_WIDE_BITS > 53))


def _eight_digit_bytes(v):
    """The digit values of each v < 10**8 as a word, the first digit in
    byte 0; _eight_digits inverted."""
    high = v // _U(10000)
    v = high | ((v - high * _U(10000)) << _U(32))
    hundreds = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    v = hundreds | ((v - hundreds * _U(100)) << _U(16))
    tens = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return tens | ((v - tens * _U(10)) << _U(8))


def _digit_words(digits, words):
    """Writes the 17 digit values of each 17-digit integer into the 3 rows
    of words, the first in byte 0 of row 0, then 7 zeros, and returns how
    many of the digits are significant (at least 1)."""
    head = digits // _U(10 ** 8)
    tail = _eight_digit_bytes(digits - head * _U(10 ** 8))
    first = head // _U(10 ** 8)
    middle = _eight_digit_bytes(head - first * _U(10 ** 8))
    words[0] = first | (middle << _U(8))
    words[1] = (middle >> _U(56)) | (tail << _U(8))
    words[2] = tail >> _U(56)
    # the significant digits end after the last nonzero byte
    nonzero = [np.frexp((w + _LOW7) & _HIGH)[1] // 8 for w in words[:2]]
    return np.where(words[2] != 0, 17,
                    np.where(nonzero[1] > 0, 8 + nonzero[1], np.maximum(nonzero[0], 1)))


# What the spliced digit values of a value are ORed with, in column point *
# _WINDOW + length: in each window column c, "0" before length, "." at the
# point (none at or past length: _WINDOW, in the lead case), the separator
# "," at length, then NULs
_point, _length, _c = np.ogrid[:_WINDOW + 1, :_WINDOW, :_WINDOW]
_TEXT = np.select([_c == _length, (_c == _point) & (_point < _length), _c < _length],
                  [ord(","), ord("."), ord("0")]).astype(np.uint8).reshape(-1, _WINDOW)
_TEXT = _TEXT.view("<u8").T.copy()
del _point, _length, _c
# what turns the separator at column k into an LF
_NEWLINES = (_BEFORE[:, 1:] ^ _BEFORE[:, :-1]) & (_EVERY_BYTE * _U(ord(",") ^ ord("\n")))


def _float_lines(values) -> bytes:
    """repr(float(v)) of each value v of a float64 matrix, the values of a
    row joined by commas and each row ended by an LF.

    Each value's text is laid out in 4 words, with NULs where it has no
    byte: the sign and any "0." and zeros before the digits, right-aligned
    in the first word, then the digits with the point and the separator
    spliced in by one pass, then the exponent. Deleting the NULs joins the
    texts.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    digits, decpt, decided = _shortest_digits(x)
    cells = np.empty((4, x.size), dtype="<u8")  # word k of each value's text, byte 0 first
    words = cells[1:]
    count = _digit_words(digits, words)
    # repr's layout: fixed when -4 < decpt <= 16, else d.ddde±XX
    fixed = (decpt > -4) & (decpt <= 16)
    lead = fixed & (decpt < 1)
    length = np.where(fixed, np.where(lead, count, decpt + 1 + np.maximum(count - decpt, 1)),
                      count + (count > 1) + 4)
    del digits, count  # before the splice, which sets the peak of a chunk
    point = np.where(fixed, np.where(lead, _WINDOW, decpt), 1)
    cells[0] = np.take(_PREFIXES, (1 - decpt) * lead + 5 * (np.signbit(x) & decided))
    # the splice: columns before the point keep their digit value, later ones
    # take the value on their left, and _TEXT makes it text; "clip" sends
    # point + 1 past _WINDOW to _WINDOW and lets np.take fill out unbuffered
    shifted = words << _U(8)
    shifted[1:] |= words[:-1] >> _U(56)
    mask = np.take(_BEFORE, point + 1, axis=1, mode="clip")
    shifted &= np.invert(mask, out=mask)
    words &= np.take(_BEFORE, point, axis=1, out=mask, mode="clip")
    words |= shifted
    words |= np.take(_TEXT, point * _WINDOW + length, axis=1, out=mask, mode="clip")
    del shifted, mask, point
    d = values.shape[1]
    words[:, d - 1::d] ^= np.take(_NEWLINES, length[d - 1::d], axis=1)  # LF ends each row
    e = np.flatnonzero(~fixed & decided)
    if e.size:  # "e", a sign and two digits of decpt - 1 end the text
        power = decpt[e] - 1
        marks = np.stack([np.full(e.size, ord("e")), np.where(power < 0, ord("-"), ord("+")),
                          ord("0") + np.abs(power) // 10, ord("0") + np.abs(power) % 10], axis=1)
        columns = 4 + length[e, None] + np.arange(4)  # text column c: byte c % 8 of row c // 8
        cells.view(np.uint8)[columns // 8, 8 * e[:, None] + columns % 8] = marks
    rest = np.flatnonzero(~decided)
    if rest.size:  # repr's own text and the separator
        texts = ((repr(v) + ("\n" if i % d == d - 1 else ",")).encode().ljust(32, b"\0")
                 for v, i in zip(x[rest].tolist(), rest.tolist()))
        cells[:, rest] = np.frombuffer(b"".join(texts), dtype="<u8").reshape(-1, 4).T
    return cells.T.tobytes().translate(None, b"\0")


# Values are formatted this many at a time: the temporaries of a chunk,
# at most about 125 traced bytes a value (1 MB), stay in a 2 MB L2 cache,
# and its fixed cost, 0.2 ms for a chunk of one value, is spread thin.
_FORMAT_CELLS = 1 << 13


def _float_rows(values):
    """The texts of the rows of a float64 matrix, _FORMAT_CELLS values or
    one row at a time: a list of bytes per chunk of rows, each holding
    repr(float(v)) of the row's values v joined by commas."""
    step = max(1, _FORMAT_CELLS // values.shape[1])
    for i in range(0, len(values), step):
        yield _float_lines(values[i:i + step]).split(b"\n")[:-1]


class _NotPlain(Exception):
    """The rest of the file is left to the row walk, which gives its result
    or error."""


def _chunk_rows(chunk: bytes, d: int):
    """Feature values and label cells, as bytes, of a chunk of whole LF
    lines padded as _read_lines pads it.

    Raises _NotPlain when the chunk holds a quote or a CR, a line does not
    have d commas, a cell is longer in bytes than csv's field size limit,
    or a feature cell is one float() refuses, a non-finite value or not
    UTF-8.
    """
    if b'"' in chunk or b"\r" in chunk:
        raise _NotPlain
    a = np.frombuffer(chunk, dtype=np.uint8)
    cuts = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
    nl = a[cuts] == ord("\n")  # every LF is a cut; the padding holds no comma or LF
    rows = np.count_nonzero(nl)
    if cuts.size != rows * (d + 1) or not nl[d::d + 1].all():
        raise _NotPlain
    starts = np.concatenate(([_WINDOW], cuts[:-1] + 1))
    starts, ends = starts.reshape(rows, d + 1), cuts.reshape(rows, d + 1)
    # csv counts characters, so the walk decides a cell long in bytes
    if (ends - starts > csv.field_size_limit()).any():
        raise _NotPlain
    cell_starts, cell_ends = starts[:, :d].ravel(), ends[:, :d].ravel()
    values, exact = _decimal_cells(chunk, cell_starts, cell_ends)
    try:
        for i in np.flatnonzero(~exact).tolist():
            values[i] = float(chunk[cell_starts[i]:cell_ends[i]].decode("utf-8"))
            if not math.isfinite(values[i]):
                raise _NotPlain
    except ValueError:  # a cell float() refuses, or bad UTF-8
        raise _NotPlain from None
    return values, [chunk[s:e] for s, e in zip(starts[:, d].tolist(), ends[:, d].tolist())]


def _read_lines(fh, size: int) -> bytes:
    """About size bytes of whole lines of a file opened binary, the last
    line of the file ending in an LF, after _PAD and before 8 NUL bytes,
    which the decimal pass reads around the cells; b"" at the end of the
    file. The pad and the lines are joined in one copy.

    Raises _NotPlain at a CR in the line read on past size bytes, where
    csv.reader would end the line, so that a file of CR line ends is never
    read whole.
    """
    parts = [_PAD, fh.read(size)]
    while not parts[-1].endswith(b"\n"):
        part = fh.readline(CHUNK_BYTES)
        if not part:  # the end of the file
            if parts == [_PAD, b""]:
                return b""
            part = b"\n"
        elif b"\r" in part:
            raise _NotPlain
        parts.append(part)
    parts.append(bytes(8))
    return b"".join(parts)


def _load_plain(fh, fixed_names):
    """The fast pass over a feature file opened binary: the header, then
    chunks of whole lines, each checked in full before the next is read.

    Returns (d, features, labels, index) of the rows read, and whether
    they are the whole file. At the first chunk that holds an anomaly (see
    _chunk_rows, or a label that is not a class name or not UTF-8) the
    pass stops with the rows before that chunk, and the walk goes on from
    there. Raises _NotPlain when the header is not plain or no data row
    follows it.

    Label cells are looked up as bytes in one dict of the fixed names,
    with UNLABELED put in last, so that a class named UNLABELED still
    marks an unlabeled row; a cell not yet in it is decoded and indexed
    once.
    """
    header = _read_lines(fh, 0)[len(_PAD):-8]
    names = header.decode("utf-8", "replace").rstrip("\n").split(",")
    d = len(names) - 1
    if d < 1 or names != _expected_header(d):  # also a header holding a quote
        raise _NotPlain
    index = _names_index(fixed_names)
    keys: dict[bytes, Optional[int]] = {name.encode(): i for name, i in index.items()}
    keys[UNLABELED.encode()] = None
    features = array.array("d")
    labels: list[Optional[int]] = []
    while True:
        try:
            chunk = _read_lines(fh, CHUNK_BYTES)
            if not chunk:
                break
            values, cells = _chunk_rows(chunk, d)
            for cell in cells:
                if cell not in keys:
                    # a KeyError adds no name: names are added only when none are fixed
                    keys[cell] = _label_index(index, fixed_names, cell.decode("utf-8"))
            chunk_labels = [keys[cell] for cell in cells]
        except (_NotPlain, KeyError, UnicodeDecodeError):
            return (d, features, labels, index), False
        features.frombytes(memoryview(values).cast("B"))
        labels += chunk_labels
    if not labels:  # a header-only file
        raise _NotPlain
    return (d, features, labels, index), True


def _walk(fh, path: Path, fixed_names, read=None):
    """(d, features, labels, index) of any file, read one row at a time;
    the first faulty row in file order raises. A record holding bytes that
    are not UTF-8 is faulty, and is refused before any other check of it.

    read, when given, is what the fast pass returned for the header and
    the rows before its first anomaly: the walk skips their lines and goes
    on from the next row.
    """
    if read is None:
        reader = _records(fh, path)
        header = next(reader, None)
        if header is None:
            raise MalformedCsvError(f"{path}: no content")
        if _not_utf8(header):
            raise MalformedCsvError(f"{path}: not valid UTF-8 in the header")
        if len(header) < 2 or header != _expected_header(len(header) - 1):
            raise MalformedCsvError(
                f"{path}: header must be f0,...,f{{d-1}},label, got {','.join(header)}"
            )
        d = len(header) - 1
        features, labels, index = array.array("d"), [], _names_index(fixed_names)
    else:
        d, features, labels, index = read
        reader = _records(fh, path, skip=1 + len(labels))
    for rownum, row in enumerate(reader, start=len(labels) + 1):
        if _not_utf8(row):
            raise MalformedCsvError(f"{path}: not valid UTF-8 in row {rownum}")
        if len(row) != d + 1:
            raise MalformedCsvError(
                f"{path}: row {rownum} has {len(row)} cells, expected {d + 1}"
            )
        label = row.pop()
        try:
            values = list(map(float, row))
        except ValueError:
            values = None
        # A finite sum means every value is finite; a non-finite one means
        # a bad cell or finite values that overflow, which the walk tells apart.
        if values is None or not math.isfinite(sum(values)):
            _check_cells(path, rownum, row)
        features.extend(values)
        try:
            labels.append(_label_index(index, fixed_names, label))
        except KeyError:
            raise MalformedCsvError(
                f"{path}: row {rownum}: label {label!r} not among {fixed_names}"
            ) from None
    return d, features, labels, index


def load_csv(path, class_names: Sequence[str] | None = None) -> FeatureDataset:
    """Parse a feature CSV; row numbers in errors are 1-based data rows.

    With class_names given, labels must come from that list (order
    defines the index mapping); otherwise names are collected in order
    of first appearance. The fast pass reads the file in chunks of whole
    LF lines. It converts a feature cell by one division of its digits by
    a power of ten, both exact in long double, which rounds once, so that
    rounding the quotient to a double gives float()'s result unless the
    quotient is a midpoint between two doubles; such cells and cells of
    any other form go to float() itself. Where the long double is no
    wider than a double, the division is done in doubles for the cells
    whose digits and power a double holds, and more cells go to float().
    From the first chunk holding a quote, a CR, a ragged line, a cell
    longer than csv's field size limit, a bad cell or label or bad UTF-8,
    and for any file whose header the pass does not read, the row walk
    reads the file one row at a time through csv.reader, and the first
    faulty row in file order raises. So csv's field size limit binds on
    every record: a cell past it raises MalformedCsvError. Either way the
    file is streamed, never held whole in memory.
    """
    path = Path(path)
    fixed_names = tuple(class_names) if class_names is not None else None
    with open(path, "rb") as fh:
        try:
            read, whole = _load_plain(fh, fixed_names)
        except _NotPlain:
            read, whole = None, False
    if not whole:
        # bytes that are not UTF-8 decode to lone surrogates, which the walk
        # refuses at the record that holds them
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            read = _walk(fh, path, fixed_names, read)
    d, features, labels, index = read
    return FeatureDataset(
        features=np.frombuffer(features, dtype=float).reshape(-1, d),
        labels=labels,
        class_names=fixed_names if fixed_names is not None else tuple(index),
    )


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it after another cell of a row.

    Minimal quoting: a cell holding a comma, a quote, a CR or an LF is
    quoted, with its quotes doubled; any other cell, the empty one too, is
    written bare. csv.writer quotes the characters of its line terminator,
    so the terminator here is CRLF, which is then stripped.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(("", text))
    return buf.getvalue()[1:-2]


def write_csv(dataset: FeatureDataset, path) -> None:
    """Inverse of load_csv; floats are written as repr writes them.

    Rows are formatted and written a chunk at a time (see _float_rows), so
    memory stays flat in the row count. The bytes are those csv.writer
    writes for the same cells. Raises ValueError, before writing, when a
    row is labelled with a class named UNLABELED, which load_csv would
    read back as unlabeled.
    """
    path = Path(path)
    names = dataset.class_names
    if UNLABELED in names and names.index(UNLABELED) in dataset.labels:
        raise ValueError(f"class {UNLABELED!r} cannot be written: it marks an unlabeled row")
    # the last entry serves unlabeled rows, whose label is None
    label_cells = [f",{_csv_cell(name)}\n".encode() for name in (*names, UNLABELED)]
    labels = (label_cells[-1 if lab is None else lab] for lab in dataset.labels)
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(_expected_header(dataset.d_in)) + "\n").encode())
            for rows in _float_rows(dataset.features):
                fh.write(b"".join(itertools.chain.from_iterable(zip(rows, labels))))
    except OSError as exc:
        raise EvidnetError(f"{path}: {exc}") from exc


def _model_document(model: EvidentialModel, training_meta: dict | None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "config": {
            "d_in": model.config.d_in,
            "r": model.config.r,
            "h": model.config.h,
            "k": model.config.k,
        },
        "class_names": list(model.class_names),
        "w": model.w.tolist(),
        "b": model.b.tolist(),
        "prototypes": [
            {
                "center": model.centers[i].tolist(),
                "beta": model.beta[i].tolist(),
                "xi": float(model.xi[i]),
                "eta": float(model.eta[i]),
            }
            for i in range(model.config.r)
        ],
    }
    if training_meta is not None:
        doc["training_meta"] = training_meta
    return doc


def save_model(model: EvidentialModel, path, training_meta: dict | None = None) -> None:
    """Write the model as a deterministic JSON document.

    Floats go through Python's shortest round-trip repr, so save →
    load reproduces every parameter bit-exactly and identical models
    yield byte-identical files.
    """
    path = Path(path)
    doc = _model_document(model, training_meta)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise EvidnetError(f"{path}: {exc}") from exc


def load_model(path) -> EvidentialModel:
    """Load a model document written by save_model."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptFieldError(f"{path}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptFieldError(f"{path}: not valid UTF-8: {exc.reason}") from None
    if not isinstance(doc, dict):
        raise CorruptFieldError(f"{path}: expected a JSON object")

    def require(obj, key: str):
        if not isinstance(obj, dict):
            raise CorruptFieldError(
                f"{path}: expected an object holding {key!r}, got {type(obj).__name__}"
            )
        if key not in obj:
            raise CorruptFieldError(f"{path}: missing field {key!r}")
        return obj[key]

    version = require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise CorruptFieldError(
            f"{path}: format_version {version!r}, supported: {FORMAT_VERSION}"
        )
    raw_cfg = require(doc, "config")
    sizes = {key: require(raw_cfg, key) for key in ("d_in", "r", "h", "k")}
    try:
        config = ModelConfig(**sizes)
    except ValueError as exc:
        raise CorruptFieldError(f"{path}: bad config: {exc}") from exc
    protos = require(doc, "prototypes")
    if not isinstance(protos, list):
        raise CorruptFieldError(f"{path}: prototypes must be a list")
    if len(protos) != config.r:
        raise CorruptFieldError(
            f"{path}: expected {config.r} prototypes, found {len(protos)}"
        )
    def block(values, name):
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CorruptFieldError(f"{path}: bad field {name!r}: {exc}") from exc
        # asarray also converts "1.5", true and null; a parameter is a
        # JSON number (bool is an int subclass, and not a number here)
        cells = [values] if arr.ndim == 0 else values
        for _ in range(arr.ndim - 1):
            cells = itertools.chain.from_iterable(cells)
        wrong = set(map(type, cells)) - {int, float}
        if wrong:
            kinds = ", ".join(sorted(kind.__name__ for kind in wrong))
            raise CorruptFieldError(f"{path}: bad field {name!r}: holds {kinds}, not numbers")
        return arr
    w = block(require(doc, "w"), "w")
    b = block(require(doc, "b"), "b")
    centers = block([require(p, "center") for p in protos], "center")
    beta = block([require(p, "beta") for p in protos], "beta")
    xi = block([require(p, "xi") for p in protos], "xi")
    eta = block([require(p, "eta") for p in protos], "eta")
    if centers.ndim != 2 or centers.shape[1] != config.h:
        raise CorruptFieldError(
            f"{path}: prototype centers have shape {centers.shape}, expected (r, {config.h})"
        )
    class_names = require(doc, "class_names")
    if not isinstance(class_names, list):
        raise CorruptFieldError(f"{path}: class_names must be a list")
    try:
        Frame(class_names)
    except ValueError as exc:
        raise CorruptFieldError(f"{path}: bad class_names: {exc}") from exc
    try:
        return EvidentialModel(
            config=config,
            class_names=class_names,
            w=w,
            b=b,
            centers=centers,
            beta=beta,
            xi=xi,
            eta=eta,
        )
    except EvidnetError as exc:
        raise CorruptFieldError(f"{path}: {exc}") from exc


def export_predictions(model: EvidentialModel, dataset: FeatureDataset, path) -> int:
    """Write per-row masses, plausibilities and decisions; returns row count.

    Output header: ``row,m_pos,m_neg,m_omega,pl_pos,pl_neg,decision``
    with 0-based row indices in input order. The floats are repr's text
    (see _float_rows), nan for a row whose masses are NaN.
    """
    if model.config.k != 2:
        raise EvidnetError(
            f"prediction export is defined for binary models, got {model.config.k} classes"
        )
    if dataset.d_in != model.config.d_in:
        raise DimensionMismatchError(
            f"dataset has {dataset.d_in} features, model expects {model.config.d_in}"
        )
    lines = [PREDICTIONS_HEADER.encode() + b"\n"]
    if dataset.n:
        m, m_omega, pl = forward_batch(model, dataset.features)
        names = [_csv_cell(name).encode() for name in model.class_names]
        rows = itertools.chain.from_iterable(_float_rows(np.column_stack((m, m_omega, pl))))
        lines += [b"%d,%s,%s\n" % (i, row, names[win])
                  for i, (row, win) in enumerate(zip(rows, decide(pl).tolist()))]
    try:
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
    except OSError as exc:
        raise EvidnetError(f"{path}: {exc}") from exc
    return dataset.n
