"""CSV cells as `%.17g` writes them, rendered a block at a time with numpy:
the formatter behind cli._write_csv, and private to it.

`%.17g` writes the 17 significant digits D = round_half_even(|x| 10^(16-X)),
X = floor(log10 |x|) the decimal exponent, with trailing zeros and a bare
point dropped: in fixed notation for -4 <= X < 17, else as d.ddde+XX with at
least two exponent digits.  format_cells computes the same text for a
whole block with numpy:
- X comes from log10, corrected once where the scaled value falls outside
  [1e16, 1e17).  A value that rounds up to 10^17 at X is scaled at X + 1,
  where it reads within 0.05 below 10^16 and rounds to 10^16: the carry.
- 10^(16-X) is a double-double hi + lo, built exactly from integers; |x| hi
  is taken exactly as a double (an integer, since it is above 2^53) plus its
  rounding error (Dekker's product with Veltkamp's split: numpy has no fused
  multiply-add), and |x| lo is added to the error.  The scaled value is then
  within about 4e-15 of the exact one, so its rounding is exact unless it
  lies within _TIE_MARGIN of a half.
- The text is a row of _CELL_WIDTH bytes taken from a table of layouts,
  indexed by sign, class of X (each fixed-notation X, two or three exponent
  digits, zero, infinity, empty) and the number of significant digits.  A
  layout holds its constant bytes, 0xff where the cell's digits and exponent
  go (filled by a bitwise and with them) and zeros, which are dropped.
A cell the fast path cannot decide (near a half, scaled to less than
10^16 - 0.05 at its X, or with |x| outside [_FAST_MIN, _FAST_MAX), such as a
subnormal) is rendered by `%` on its own and spliced into its row.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = ["format_cells"]

# 10^(16-X) is tabled for X in [_X_MIN, _X_MAX] (10^k for k in [-270, 300]):
# a cell with |x| in [_FAST_MIN, _FAST_MAX) has X in [-282, 283], and neither
# log10's estimate nor its correction is more than one off
_X_MIN, _X_MAX = -284, 286
_FAST_MIN, _FAST_MAX = 1e-282, 1e284
_TIE_MARGIN = 2.0 ** -30
_VELTKAMP = 2.0 ** 27 + 1.0

# a cell's bytes: 0 sign; 1-5 "0.000" of the fixed notation for X < 0 ("0"
# for a zero, "inf" for an infinity); from 6 the 17 digits, each followed by
# a point; 40 "e", 41-44 the exponent's sign and three digits; 47 the
# separator.  0xff marks the bytes filled per cell.
_CELL_TEMPLATE = b"-0.000" + b"\xff." * 17 + b"e\xff\xff\xff\xff\0\0\xff"
_CELL_WIDTH = len(_CELL_TEMPLATE)
# layout classes: 0-20 fixed notation, X = class - 4; then two and three
# exponent digits, zero, infinity, and empty (NaN, and the cells rendered by %)
_EXP2, _EXP3, _ZERO, _INF, _EMPTY = range(21, 26)
_CLASSES = 26


class _CellTables(NamedTuple):
    hi: np.ndarray        # [X - _X_MIN] 10^(16-X) rounded to a double
    hi_split: np.ndarray  # its upper 26 bits (Veltkamp)
    lo: np.ndarray        # 10^(16-X) - hi, rounded
    cls: np.ndarray       # [X - _X_MIN] layout class of X
    exponent: np.ndarray  # [X - _X_MIN] uint64 word of bytes 40-47: sign and digits of X
    lead: np.ndarray      # [d] uint64 word of bytes 0-7: lead digit d and its point
    four: np.ndarray      # [g] uint64 word of 4 digits of g, each with its point
    last: np.ndarray      # [j, g] digits through the last nonzero one of g as
                          # the j-th group of four after the lead, at least 1
    layout: np.ndarray    # [(sign * _CLASSES + class) * 17 + digits - 1] row of bytes


@functools.lru_cache(maxsize=1)
def _cell_tables() -> _CellTables:
    """The tables of format_cells, built on the first write (about 1.5 ms),
    not when the module is imported."""
    hi, lo = [], []
    p = 10 ** (16 - _X_MIN)
    for _ in range(_X_MIN, 17):  # 10^(16-X) = p, an integer
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p //= 10
    q = 10
    for _ in range(17, _X_MAX + 1):  # 10^(16-X) = 1 / q
        h = 1 / q  # correctly rounded, as every int / int is
        n, d = h.as_integer_ratio()  # h = n / d, d a power of two
        hi.append(h)
        lo.append(math.ldexp((d - n * q) / q, 1 - d.bit_length()))
        q *= 10
    hi = np.array(hi)
    c = hi * _VELTKAMP
    xs = np.arange(_X_MIN, _X_MAX + 1)
    cls = np.select([(xs >= -4) & (xs < 17), np.abs(xs) < 100], [xs + 4, _EXP2], _EXP3)
    exponent = np.full((len(xs), 8), 0xFF, np.uint8)
    exponent[:, 1] = np.where(xs < 0, ord("-"), ord("+"))
    exponent[:, 2:5] = np.stack([abs(xs) // 100, abs(xs) // 10 % 10, abs(xs) % 10], axis=1) + 48
    lead = np.full((10, 8), 0xFF, np.uint8)
    lead[:, 6] = np.arange(10) + 48

    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # [j, g] digit j of g
    four = np.full((10 ** 4, 8), ord("."), np.uint8)
    four[:, ::2] = digits.T + 48
    through = np.max((digits > 0) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0)
    last = np.where(through > 0, np.arange(1, 17, 4, dtype=np.uint8)[:, None] + through, 1)

    k = np.arange(_CLASSES)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    b = np.arange(_CELL_WIDTH)
    x = np.where(k < _EXP2, k - 4, 0)  # the point follows digit x
    number = k <= _EXP3
    small = number & (x < 0)
    shown = np.where(x > 0, np.maximum(x + 1, nd), nd)  # digits shown
    keep = (number & (b >= 6) & (b < 6 + 2 * shown) & (b % 2 == 0)
            | number & ~small & (b == 7 + 2 * x) & (nd > x + 1)
            | small & (b >= 1) & (b < 2 - x)
            | (k >= _EXP2) & number & (b >= 40) & (b <= 44) & ((b != 42) | (k == _EXP3))
            | (k == _ZERO) & (b == 1) | (k == _INF) & (b >= 1) & (b <= 3)
            | (b == _CELL_WIDTH - 1))
    layout = np.where(keep, np.frombuffer(_CELL_TEMPLATE, np.uint8), 0).astype(np.uint8)
    layout[_INF, :, 1:4] = np.frombuffer(b"inf", np.uint8)
    layout = np.stack([layout, layout])
    layout[1, :_EMPTY, :, 0] = ord("-")
    return _CellTables(hi, c - (c - hi), np.array(lo), cls, exponent.view(np.uint64).ravel(),
                       lead.view(np.uint64).ravel(), four.view(np.uint64).ravel(),
                       last, layout.reshape(-1, _CELL_WIDTH))


def format_cells(block: np.ndarray) -> bytes:
    """The CSV text of a (rows, columns) float array: each cell as `%.17g`
    renders it (NaN as an empty cell), cells joined by "," and each row ended
    by a newline."""
    return _cell_text(block, _cell_tables()).tobytes().translate(None, b"\0")


def _cell_text(block: np.ndarray, t: _CellTables) -> np.ndarray:
    """One row of _CELL_WIDTH bytes per cell of block: its text and separator
    with zero bytes between.  Apart from format_cells, so that its
    temporaries are freed before the rows are copied into bytes."""
    x = block.ravel()
    i, d, fast = _decimal(np.abs(x), t)
    top = d // 10 ** 8
    d -= top * 10 ** 8  # the last eight digits
    lead = top // 10 ** 8
    top -= lead * 10 ** 8  # the eight after the lead
    groups = np.empty((4, len(d)), np.intp)  # the 16 digits after the lead, by four
    for j, part in ((0, top), (2, d)):
        np.floor_divide(part, 10 ** 4, out=groups[j])
        np.subtract(part, groups[j] * 10 ** 4, out=groups[j + 1])
    del top, d
    nd = t.last[0].take(groups[0])
    for j in (1, 2, 3):
        np.maximum(nd, t.last[j].take(groups[j]), out=nd)

    cls = np.where(fast, t.cls.take(i), _EMPTY - 2 * (x == 0) - np.isinf(x))
    text = t.layout.take((cls + _CLASSES * np.signbit(x)) * 17 + nd - 1, axis=0)
    words = text.view(np.uint64)
    words[:, 0] &= t.lead.take(lead, mode="clip")  # only a fast cell shows it
    for j in range(4):
        words[:, 1 + j] &= t.four.take(groups[j])
    words[:, 5] &= t.exponent.take(i)
    separators = np.full(block.shape[1], ord(","), np.uint8)
    separators[-1] = ord("\n")
    text.reshape(block.shape + (_CELL_WIDTH,))[:, :, -1] &= separators
    for k in np.flatnonzero(~fast & np.isfinite(x) & (x != 0)):
        cell = b"%.17g" % x[k]
        text[k, :len(cell)] = np.frombuffer(cell, np.uint8)
    return text


def _decimal(a: np.ndarray, t: _CellTables):
    """(i, d, fast) of the values a >= 0 (overwritten): i = X - _X_MIN, d
    the 17 digits as an integer, and where the fast path decides them."""
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0  # any value in range: the layout of such a cell shows no digits
    i = np.floor(np.log10(a)).astype(np.intp) - _X_MIN
    h = a * t.hi.take(i)
    i += h >= 1e17
    i -= h < 1e16
    hi = t.hi.take(i)
    np.multiply(a, hi, out=h)
    lo = _product_error(a, hi, t.hi_split.take(i))
    lo += a * t.lo.take(i)
    r = np.rint(lo)
    d = h.astype(np.int64) + r.astype(np.int64)
    fast &= ((np.abs(lo - r) < 0.5 - _TIE_MARGIN)
             & ((h - 1e16) + lo >= _TIE_MARGIN - 0.05) & (d < 10 ** 17))
    return i, d, fast


def _product_error(a: np.ndarray, b: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """a b - fl(a b), exactly (Dekker's product), given the upper half b_hi
    of b's significand (Veltkamp's split).  In place where it can be, to keep
    few temporaries alive."""
    a_hi = a * _VELTKAMP
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_lo = b - b_hi
    err = a * b
    err -= a_hi * b_hi
    err -= a_lo * b_hi
    err -= a_hi * b_lo
    a_lo *= b_lo
    return np.subtract(a_lo, err, out=err)
