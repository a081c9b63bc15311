"""CSV text of float columns, each value written as Python's ``repr``.

``repr`` of a float is the shortest decimal that reads back to the same
double, and the closest such decimal to it (Gay 1990, the algorithm
behind CPython's ``repr``). ``csv_bytes`` writes exactly those bytes, but
computes them with numpy a block of ``_BLOCK_ROWS`` rows at a time, not
one ``repr`` call per value. Its domain is repr's fixed notation: ±0.0
and finite 1e-4 <= |v| < 1e14, where every power of ten the arithmetic
needs is an exact double. Every other value (NaN, ±inf, exponent form)
and every value whose 15- or 16-digit candidate lands within 2**-40 of
a decision's boundary goes through ``repr`` itself, one at a time.
"""

from __future__ import annotations

import numpy as np

# Rows per block. At 1024 rows the per-block numpy calls made the two KM
# CSVs of a 2x50k-row input take 22 ms against 15 ms; 8192 rows took 6%
# less time than 4096, but raised the export's allocation peak from 0.96
# to 1.64 MiB.
_BLOCK_ROWS = 4096
_POW10 = np.array([float(10**k) for k in range(22)])  # exact doubles
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_NEAR = 2.0**-40  # a decision this close to its boundary goes to repr


def _veltkamp(a):
    """Split doubles into two halves of at most 26 significant bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)
# k for x of each biased exponent e: 16 - floor(log10 2**e), so that
# |x| * 10**k < 1e18; one too big for some x, which is then corrected.
# (e * 78913) >> 18 is floor(e * log10 2) for |e| < 1650.
_K_OF_EXP = np.minimum(16 - (((np.arange(2048) - 1023) * 78913) >> 18), 21).astype(np.int8)
# The four ASCII digits of 0..9999 as one uint32 each, and the number of
# trailing zero digits of each (99 for 0000, so it never marks a last digit);
# both are indexed by the four digits before they are flattened.
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
_DIGITS4[..., 0] = _DIGIT[:, None, None, None]
_DIGITS4[..., 1] = _DIGIT[:, None, None]
_DIGITS4[..., 2] = _DIGIT[:, None]
_DIGITS4[..., 3] = _DIGIT
_ZEROS4 = np.zeros((10, 10, 10, 10), np.int8)
_ZEROS4[:, :, :, 0] = 1
_ZEROS4[:, :, 0, 0] = 2
_ZEROS4[:, 0, 0, 0] = 3
_ZEROS4[0, 0, 0, 0] = 99
_DIGITS4, _ZEROS4 = _DIGITS4.view(np.uint32).ravel(), _ZEROS4.ravel()
# Row m keeps the last m of 16 integer digits, or the first m of 20 fraction digits.
_KEEP_INT = (np.arange(17)[:, None] > np.arange(15, -1, -1)).astype(np.uint8)
_KEEP_FRAC = (np.arange(21)[:, None] > np.arange(20)).astype(np.uint8)


def _scaled(ax: np.ndarray, k: np.ndarray):
    """``(n, e)`` for T = ax * 10**k: n is T rounded half-even to an integer
    and e = T - n, both exact. T is held as ``hi + lo`` (Dekker's product,
    Numer. Math. 18, 1971); hi is an even integer when T >= 2**53, so
    rounding lo half-even rounds T half-even."""
    hi = ax * _POW10.take(k)
    a_high, a_low = _veltkamp(ax)
    p_high, p_low = _POW10_HIGH.take(k), _POW10_LOW.take(k)
    lo = a_high * p_high
    lo -= hi
    lo += a_high * p_low
    lo += a_low * p_high
    lo += a_low * p_low
    rounded = np.rint(lo)
    lo -= rounded
    return hi.astype(np.int64) + rounded.astype(np.int64), lo


def _shortest_digits(x: np.ndarray):
    """``(n, k, ok)``: ``repr(float(v))`` is the decimal n * 10**-k, trailing
    zeros dropped, wherever ``ok`` (the module's domain).

    k = 16 - floor(log10 |v|) puts T = |v| * 10**k in [1e16, 1e17), so n
    starts as T's 17-digit rounding, half-even on an exact tie as repr's
    last digit is (dtoa.c mode 0). A decimal closer to T than h, half an
    ulp of v at T's scale (an exact double), reads back as v; n always
    does. Of 16 digits, the one nearest T reads back if any does; of 15, at
    most one lies that close. So the 15-digit rounding of T is taken if it
    reads back, else the 16-digit one, else n: the shortest decimal that
    reads back, and the nearest of those. (Below a power of two the
    interval is half as wide, but the powers of two in the domain,
    2**-13 to 2**46, are decimals of at most 14 digits: T itself.)
    """
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 1e14)
    zero = ax == 0.0
    ax = np.where(ok, ax, 1.5)  # rows outside the domain compute on a stand-in
    k = _K_OF_EXP.take(ax.view(np.int64) >> 52)
    k -= ax * _POW10.take(k) >= 1e17
    n, e = _scaled(ax, k)
    ok &= (n < 10**17) & ((n > 10**16) | ((n == 10**16) & (e >= 0.0)))
    h = 0.5 * np.spacing(ax) * _POW10.take(k)
    shortest, tie = n, False
    for step in (10, 100):  # 16 digits, then 15
        q = n // step
        r = (n - q * step) + e  # T's distance past the candidate below
        d = np.minimum(np.abs(r), step - r)  # to the nearest candidate
        # a rounding tie matters only when the two tied candidates read back
        near = (np.abs(d - h) <= _NEAR) | ((np.abs(r - step / 2) <= _NEAR) & (d < h))
        tie = near | ((d >= h) & tie)
        shortest = np.where(d < h, (q + (r > step / 2)) * step, shortest)
    shortest[zero] = 0
    return shortest, k, (ok & ~tie) | zero


def _digit_words(n: np.ndarray, k: np.ndarray):
    """``(words, n_int, n_frac)`` for the decimals n * 10**-k: in each row
    of ``words``, four ASCII digits to a uint32, the integer digits end
    at column ``-5`` and the 20 fraction digits fill the last 5 columns.
    Each decimal has ``n_int`` integer digits and ``n_frac`` fraction
    digits through its last nonzero one, at least one of each."""
    n_int = np.maximum(17 + (n == 10**17) - k, 1)
    whole, frac = np.divmod(n, _INT_POW10.take(np.minimum(k, 18)))
    # the fraction left-aligned in 20 digits: the first 8 in top, the rest in low
    top, low = np.divmod(frac, _INT_POW10.take(np.maximum(k - 8, 0)))
    low *= _INT_POW10.take(20 - k)
    top *= _INT_POW10.take(np.maximum(8 - k, 0))
    point = (int(n_int.max()) + 3) // 4
    words = np.empty((n.size, point + 5), np.uint32)
    n_frac = np.ones(n.size, np.int8)
    for v, start, stop in ((whole, 0, point), (top, point, point + 2), (low, point + 2, point + 5)):
        for i in reversed(range(start, stop)):
            q = v // 10000
            group = v - q * 10000
            words[:, i] = _DIGITS4.take(group)
            if i >= point:
                np.maximum(n_frac, 4 * (i - point + 1) - _ZEROS4.take(group), out=n_frac)
            v = q
    return words, n_int, n_frac


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of each value as one row of a NUL-padded uint8
    array: a sign, the integer digits, ``.`` and the fraction digits in
    fixed columns as wide as the widest value needs, or repr's own text
    (at most 24 bytes) outside the module's domain."""
    n, k, ok = _shortest_digits(x)
    words, n_int, n_frac = _digit_words(n, k)
    wide_int, wide_frac = int(n_int.max()), int(n_frac.max())
    digits = words.view(np.uint8)[:, -20 - wide_int :]
    cells = np.empty((x.size, wide_int + wide_frac + 2), np.uint8)
    cells[:, 0] = np.signbit(x) * ord("-")
    cells[:, 1 : wide_int + 1] = digits[:, :wide_int] * _KEEP_INT.take(n_int, axis=0)[:, 16 - wide_int :]
    cells[:, wide_int + 1] = ord(".")
    cells[:, wide_int + 2 :] = digits[:, wide_int : wide_int + wide_frac] * _KEEP_FRAC.take(n_frac, axis=0)[:, :wide_frac]
    slow = np.flatnonzero(~ok)
    if slow.size:
        if cells.shape[1] < 24:
            cells = np.hstack([cells, np.zeros((x.size, 24 - cells.shape[1]), np.uint8)])
        cells[slow] = 0
        text = np.array([repr(v) for v in x[slow].tolist()], dtype="S24")
        cells[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    return cells


def csv_bytes(header: str, columns: tuple[np.ndarray, ...]) -> bytes:
    """``header`` and one line per row of the float64 ``columns``, each
    value as ``repr(float(v))``, joined by ``,``; every line ends in ``\\n``.
    A block's cells and separators are one uint8 array whose NULs are the
    cells' padding, deleted as the block becomes bytes."""
    parts = [header.encode("utf-8") + b"\n"]
    for start in range(0, columns[0].size, _BLOCK_ROWS):
        block = [_float_cells(column[start : start + _BLOCK_ROWS]) for column in columns]
        comma = np.full((len(block[0]), 1), ord(","), np.uint8)
        pieces = [piece for cells in block for piece in (cells, comma)]
        pieces[-1] = np.full_like(comma, ord("\n"))
        parts.append(np.hstack(pieces).tobytes().translate(None, b"\0"))
    return b"".join(parts)
