"""The body of a CSV file, formatted in numpy: the text ``"%.17g"`` gives
each float64 cell, with CRLF or comma separators (``_format_cells``).
``io.write_matrix_csv`` calls it a chunk of whole rows at a time.

A cell is laid out in a slot of 28 bytes, seven uint32 words: byte 0 the
sign, 1-5 the "0.000" of a decimal exponent X of -1 ... -4, 7-24 the 17
digits and the decimal point, 25-26 the separator.  The bytes a cell does
not use are NUL, and are dropped.

Memory is the constraint.  Each array a chunk of 2048 cells makes is below
128 KB.  The uint64 arithmetic takes its constants as Python ints, as a
numpy int64 would turn it into float64, and it uses shifts, adds,
subtractions and multiplications only; the layout uses masked copies.
Their numpy loops were resident already in the benchmark's processes,
while each kind of bitwise-and, integer comparison or floor division added
64 KB or more of numpy's code to the peak resident set.  The formatter is
a module of its own, which ``io`` imports on the first write, because the
package is compiled at every import where bytecode is not cached:
compiling it as part of ``io.py`` raised the heap of every process that
imports the package, writing or not, by about 0.3 MB.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_SLOT = 28
_CELL = 25  # the bytes before the separator; "%.17g" text is at most 24


class _FormatTables(NamedTuple):
    # the least double at or above 10**k, k = -4 ... 16: 10**k itself for
    # k >= 0, and for k < 0 the double nearest to it, which lies above it
    tens: np.ndarray
    # the 32-bit limbs of 5**q, q = 0 ... 20
    pow5_lo: np.ndarray
    pow5_hi: np.ndarray
    # the four ASCII digits of 0 ... 9999, each as one uint32
    digits4: np.ndarray
    # the place of the last nonzero digit of 0 ... 9999 written with four
    # digits, 1 ... 4, or 0 for 0
    last_nonzero: np.ndarray
    # the slot's bytes that do not depend on the digits (sign, "0." prefix,
    # decimal point, separator), one row per 4 * shape + 2 * negative +
    # row_end, where shape = (X + 4) * 17 + kept - 1 for X = -4 ... 16 and
    # kept = 1 ... 17 significant digits once trailing zeros are stripped
    fixed: np.ndarray
    # per shape, the bytes that digit i of the 17 goes to: 7 + i before the
    # decimal point, 8 + i after it
    before: np.ndarray
    after: np.ndarray


@functools.cache
def _format_tables() -> _FormatTables:
    """The formatter's tables, built on the first write, so that a process
    that writes no CSV holds none of them."""
    pow5 = [5**q for q in range(21)]
    digits4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    last_nonzero = np.zeros((10, 10, 10, 10), np.uint8)
    for place in range(4):  # index (d0, d1, d2, d3) is the number d0d1d2d3
        digits4[..., place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (1,) * place + (10,) + (1,) * (3 - place))
        last_nonzero[(slice(None),) * place + (slice(1, None),)] = place + 1
    fixed, before, after = bytearray(), bytearray(), bytearray()
    for x in range(-4, 17):
        for kept in range(1, 18):
            point = 8 + x if 0 <= x < kept - 1 else _SLOT  # its byte, or none
            end = 7 + max(kept, x + 1) + (point < _SLOT)  # after the last digit
            row = bytearray(_SLOT)
            if x < 0:
                row[1:2 - x] = b"0.000"[:1 - x]
            elif point < _SLOT:
                row[point] = ord(".")
            for sign in b"\0-":
                for separator in (b",\0", b"\r\n"):
                    row[0], row[_CELL:_CELL + 2] = sign, separator
                    fixed += row
            before += bytes(7 <= b < min(end, point) for b in range(_SLOT))
            after += bytes(point < b < end for b in range(_SLOT))
    return _FormatTables(
        np.array([float(f"1e{k}") for k in range(-4, 17)]),
        np.array([p & 0xFFFF_FFFF for p in pow5], np.uint64),
        np.array([p >> 32 for p in pow5], np.uint64),
        digits4.reshape(-1).view(np.uint32), last_nonzero.reshape(-1),
        np.frombuffer(bytes(fixed), np.uint8).reshape(-1, _SLOT),
        np.frombuffer(bytes(before), bool).reshape(-1, _SLOT),
        np.frombuffer(bytes(after), bool).reshape(-1, _SLOT))


def _decimal17(a: np.ndarray, tables: _FormatTables) -> tuple[np.ndarray, np.ndarray]:
    """For float64 ``a`` in [1e-4, 1e17): the integer D (uint64) of its 17
    significant digits, and q = 16 - X (int64) for its decimal exponent X,
    so that D = a * 10**q rounded half to even, exactly.

    With a = M * 2**E, M < 2**53 and E + q <= 4, D is 16 M * 5**q shifted
    right by 4 - E - q.  The product (< 2**104) is held as a 128-bit (hi,
    lo) pair built from 32-bit limbs; every step is a uint64 add,
    subtract, multiply or shift, and a comparison is the sign bit of a
    difference.
    """
    # X + 5 is the count of thresholds at or below a: exact, no estimate
    q = 21 - np.searchsorted(tables.tens, a, side="right")
    bits = a.view(np.uint64)
    right = bits >> 52  # E + 1075
    t = bits - (right << 52)
    t += 1 << 52
    t <<= 4  # 16 M < 2**57
    right = 1079 - right - q.astype(np.uint64)  # 4 - E - q: 0 ... 50
    # t * 5**q = (t1 2**32 + t0)(p1 2**32 + p0) from its limbs; the arrays
    # are reused in place, under the name of what they hold
    p0, p1 = tables.pow5_lo[q], tables.pow5_hi[q]
    t1 = t >> 32
    t0 = t
    t0 -= t1 << 32
    lo = t0 * p0
    cross = p0
    cross *= t1
    cross += t0 * p1  # < 2**58
    hi = t1
    hi *= p1
    hi += cross >> 32
    mid = lo >> 32
    mid += cross - (cross >> 32 << 32)  # < 2**33
    hi += mid >> 32
    lo -= lo >> 32 << 32
    lo += mid << 32  # wraps mod 2**64
    # (hi, lo) >> right, rounded half to even: up when twice the remainder,
    # plus 1 for an odd result, exceeds 2**right; hi << 64 - right is
    # taken in two shifts, as one shift by 64 is undefined
    digits = hi
    digits <<= 63 - right
    digits <<= 1
    digits += lo >> right
    twice_rem = lo
    twice_rem -= digits << right
    twice_rem <<= 1
    twice_rem += digits - (digits >> 1 << 1)  # plus 1 if odd
    digits += ((1 << right) - twice_rem) >> 63
    carry = (10**17 - 1 - digits) >> 63  # rounded up to 10**17
    digits -= carry * (9 * 10**16)
    q -= carry.astype(np.int64)
    return digits, q


# The divisors that cut the 9 leading and the 8 trailing digits of D into
# the leading digit and four 4-digit groups.
_GROUP_SCALES = ((1e8,), (1e4,), (1.0,), (1e4,), (1.0,))


def _digit_chars(digits: np.ndarray, tables: _FormatTables) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D in ``digits`` at bytes 7 ... 23 of a
    slot, and how many are left once trailing zeros are stripped.
    ``digits`` is overwritten.

    D is cut into the leading digit and four 4-digit groups in float64,
    where each part is an exact integer; a group's four ASCII digits are
    one slot word.
    """
    low8 = digits % 10**8
    digits -= low8
    groups = np.empty((5, digits.size))
    groups[:3] = digits / 1e8
    groups[3:] = low8
    groups /= _GROUP_SCALES
    np.floor(groups, out=groups)  # each row holds the digits of the one above
    groups[1:3] -= groups[:2] * 1e4
    groups[4] -= groups[3] * 1e4
    groups = groups.astype(np.intp)
    # up to the last nonzero digit of the groups after the leading digit
    kept = np.ones(digits.size)
    for group, start in zip(groups[1:], (1.0, 5.0, 9.0, 13.0)):
        last = tables.last_nonzero[group].astype(float)
        kept = np.where(last > 0, last + start, kept)
    chars = np.zeros((digits.size, _SLOT // 4), np.uint32)
    chars[:, 1:6] = tables.digits4[groups].T
    return chars.view(np.uint8), kept.astype(np.int64)


def _fixed_slots(a: np.ndarray, negative: np.ndarray, row_ends: np.ndarray) -> np.ndarray:
    """The slots of the fixed-notation text of each ``a`` in [1e-4, 1e17),
    signed by ``negative`` and followed by its separator.  Its arrays are
    freed when it returns, before the chunk's text is made."""
    tables = _format_tables()
    digits, q = _decimal17(a, tables)
    chars, kept = _digit_chars(digits, tables)
    shape = (20 - q) * 17 + kept - 1
    slot = np.take(tables.fixed, shape * 4 + negative * 2 + row_ends, axis=0)
    np.copyto(slot, chars, where=np.take(tables.before, shape, axis=0))
    np.copyto(slot.reshape(-1)[1:], chars.reshape(-1)[:-1],  # digit i to byte 8 + i
              where=np.take(tables.after, shape, axis=0).reshape(-1)[1:])
    return slot


def _format_cells(cells: np.ndarray, row_ends: np.ndarray) -> str:
    """The CSV text of the float64 ``cells``: each as ``"%.17g"`` formats
    it, followed by CRLF where ``row_ends`` is 1 and by ``,`` elsewhere.

    Cells of fixed notation, 1e-4 <= |x| < 1e17, are formatted from their
    exact digits (``_decimal17``) by table lookups.  Zero keeps the slot of
    its stand-in 1, with the digit made ``0`` and the sign taken from its
    sign bit, as ``-0.0 < 0`` is false.  The exponent notation is formatted
    by ``%``, one call per cell.
    """
    a = np.abs(cells)
    other = np.where(a < 1e-4, True, a >= 1e17)
    a[other] = 1.0  # a stand-in, overwritten below
    slot = _fixed_slots(a, cells < 0, row_ends)
    others = np.flatnonzero(other)
    if others.size:
        rare = cells[others]
        zeros = others[rare == 0]
        slot[zeros, 7] = ord("0")
        slot[zeros, 0] = (cells[zeros].view(np.uint64) >> 63) * ord("-")
        others = others[rare != 0]
        text = b"".join(("%.17g" % x).encode().ljust(_CELL, b"\0")
                        for x in cells[others].tolist())
        slot[others, :_CELL] = np.frombuffer(text, np.uint8).reshape(-1, _CELL)
    return slot.tobytes().translate(None, b"\0").decode("ascii")
