"""CSV rows of floats, byte for byte as `repr` writes them, for a whole block.

`repr` writes the shortest decimal that rounds back to the float, and of
several such the nearest (Steele & White, PLDI 1990; Adams's Ryu, PLDI 2018).
Between 1e-4 and 1e16 it writes that decimal in fixed notation.  This module
finds it for a whole array at once:

- x = m * 2**q (m a 53-bit integer) lies in [10**E, 10**(E+1)); E comes from
  the binary exponent and a table of the smallest doubles >= 10**E, so it is
  exact.
- X = x * 10**(16-E) lies in [1e16, 1e17).  10**(16-E) is an exact double, so
  Dekker's two-product gives X = H + lo exactly, H the integer nearest X (at
  a tie the even one, as repr rounds its last digit).
- Every real strictly inside X +- w, w = 2**(q-1) * 10**(16-E), rounds back to
  x.  w is an exact double in (0.55, 11.2), so each test of lo against a small
  integer offset +- w below is exact.  The ends are odd multiples of
  2**(q-1) * 10**(16-E), integers only where x is a whole number, so whether
  they round to x never matters.
- The interval is narrower than 100, so it holds at most one multiple of 100:
  if the one nearest X is inside, it is the shortest candidate, whatever its
  count of trailing zeros.  Otherwise the nearest multiple of 10 if inside, or
  else H, which always is (w > 0.5).

A value goes to `repr` on its own when it is outside [1e-4, 1e16), when it is
a whole number, or when two 16-digit candidates are equally near.  Two edge
cases need no test: every power of ten in range is a double or rounds up to
one, so no interval below 10**(E+1) reaches it; and a power of two, whose
interval is half as wide below it, is whole or 2**-k = 5**k / 10**k, k <= 13,
an exact decimal of at most 10 digits, its own shortest form.
"""

from __future__ import annotations

import math

import numpy as np

_E_MIN = -4
_CLASSES = 16 - _E_MIN  # decimal exponents E in [-4, 15]
_WIDTH = 25  # one field: up to 23 characters, NUL padding, then the comma
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _ceil_pow10(e: int) -> float:
    """The smallest double >= 10**e, compared in integers."""
    num, den = (d := float(f"1e{e}")).as_integer_ratio()
    return math.nextafter(d, math.inf) if num * 10 ** max(-e, 0) < den * 10 ** max(e, 0) else d


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: v = high + low, each with at most 26 significant bits."""
    t = v * _SPLIT
    high = t - (t - v)
    return high, v - high


#: the smallest double >= 10**E, for E in [-4, 16]
_CEIL_POW10 = np.array([_ceil_pow10(e) for e in range(_E_MIN, 17)])
_POW10 = 10.0 ** np.arange(17 - _E_MIN)  # exact up to 10**22
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _chunks() -> np.ndarray:
    """The ASCII of each 4-digit chunk as one uint32: entries 0-9999 with every
    digit, 10000-19999 with trailing zeros as NUL."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = digits + np.uint8(ord("0"))
    return np.concatenate([text, np.where(trailing, np.uint8(0), text)]).view(np.uint32).ravel()


_CHUNKS = _chunks()
#: '000' + d0 as one uint32, for d0 = 0-9
_LEAD = np.frombuffer(b"".join(b"000%d" % d for d in range(10)), np.uint32)
# A value's source row: three spare bytes, then Z = '0000' + d0..d16, the
# digits of its 17-digit integer D with trailing zeros as NUL (six aligned
# words: spare bytes and '0', '000' + d0, then d1..d16 as four chunks).
_Z = 3
_SOURCE_WIDTH = _Z + 21


def _shortest(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, ok) for a in [10**E, 10**(E+1)): D the shortest digits as a 17-digit
    integer; ok is False where repr must decide."""
    bits = a.view(np.uint64)
    s = 16 - E
    scale = np.take(_POW10, s)
    # Dekker's two-product: X = a * 10**s = hi + lo exactly
    hi = a * scale
    ah, al = _split(a)
    ph, pl = np.take(_POW10_HIGH, s), np.take(_POW10_LOW, s)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    # hi is an even integer; move the integer nearest X into H, so |lo| <= 1/2
    # (np.rint breaks a tie to the even one, as repr does)
    nearest = np.rint(lo)
    H = hi.astype(np.int64) + nearest.astype(np.int64)
    lo -= nearest
    # half the rounding interval, 2**(q-1) * 10**s, from the exponent bits
    w = ((bits >> np.uint64(52)) - np.uint64(53) << np.uint64(52)).view(np.float64) * scale

    def inside(j):
        return (lo > j - w) & (lo < j + w)

    def round_to(step):
        # offset from H of the multiple of `step` nearest X, and whether X is halfway
        r = (H - H // step * step).astype(np.float64)
        return (lo > step / 2 - r) * step - r, lo == step / 2 - r

    j15, _ = round_to(100)  # a multiple of 100 50 away is outside the interval
    j16, tie16 = round_to(10)
    # the multiple of 100, if inside, is also the multiple of 10 nearest X
    in15, in16 = inside(j15), inside(j16)
    D = H + (in16 * (j16 + in15 * (j15 - j16))).astype(np.int64)
    return D, ~(in16 & ~in15 & tie16)


def _cells(a: np.ndarray, rows: slice, start: int, length: int) -> np.ndarray:
    """`length` bytes from `start` in each of `rows` of a 2-D uint8 array, as one
    void item per row, so that a copy moves each row's run at once."""
    return a[rows, start : start + length].view(f"V{length}")


def csv_rows(values: np.ndarray, line_end: str) -> bytes:
    """The bytes of `((values.shape[1] * '%r,' + line_end) * len(values)) %
    tuple(values.ravel().tolist())`, for a 2-D float64 array."""
    rows, cols = values.shape
    x = values.ravel()
    a = np.abs(x)
    bits = a.view(np.uint64)
    fast = (a >= _CEIL_POW10[0]) & (a < 1e16) & (np.rint(a) != a)
    np.putmask(a, ~fast, 1.5)  # values outside the range never enter the arithmetic
    # E is floor(e2 * log10(2)) or one more, e2 the binary exponent; the
    # product is floor(e2 * 78913 / 2**18) for every exponent here
    E = ((bits >> np.uint64(52)).astype(np.int64) - 1023) * 78913 >> 18
    E += a >= np.take(_CEIL_POW10, E + (1 - _E_MIN))
    # sorted by (sign, E), each class is one run, laid out by slice copies
    key = np.signbit(x).view(np.uint8) * np.uint8(_CLASSES) + (E - _E_MIN).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    D, ok = _shortest(a[order], E[order])
    fast = fast[order] & ok
    # D = d0 c1 c2 c3 c4 in 4-digit chunks; a chunk's trailing zeros are NUL
    # when every later chunk is 0 (floor division by a constant is the fast one,
    # and both halves of the 10**8 split fit the faster int32)
    top = D // 10**8
    rest = (D - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    high, low = top // 10_000, rest // 10_000
    d0 = high // 10_000
    c1, c2, c4 = high - d0 * 10_000, top - high * 10_000, rest - low * 10_000
    source = np.empty((len(x), _SOURCE_WIDTH), np.uint8)
    chunks = source.view(np.uint32)
    chunks[:, 0] = _LEAD[0]
    chunks[:, 1] = np.take(_LEAD, d0)
    chunks[:, 2] = np.take(_CHUNKS, c1 + 10_000 * ((rest == 0) & (c2 == 0)))
    chunks[:, 3] = np.take(_CHUNKS, c2 + 10_000 * (rest == 0))
    chunks[:, 4] = np.take(_CHUNKS, low + 10_000 * (c4 == 0))
    chunks[:, 5] = np.take(_CHUNKS, c4 + 10_000)
    text = np.zeros((len(x), _WIDTH), np.uint8)
    counts = np.bincount(key, minlength=2 * _CLASSES)
    stop = 0
    for k in np.flatnonzero(counts).tolist():
        run = slice(stop, stop + counts[k])
        stop = run.stop
        # '-'? + Z[z:z+ip] + '.' + Z[z+ip:], ip digits before the point
        neg, decpt = k // _CLASSES, k % _CLASSES + _E_MIN + 1
        ip = max(decpt, 1)
        z = _Z + 4 + decpt - ip
        point, frac = neg + ip, _SOURCE_WIDTH - z - ip
        _cells(text, run, neg, ip)[...] = _cells(source, run, z, ip)
        text[run, point] = ord(".")
        _cells(text, run, point + 1, frac)[...] = _cells(source, run, z + ip, frac)
        if neg:
            text[run, 0] = ord("-")
    slow = np.flatnonzero(~fast)
    if len(slow):
        reprs = np.array([repr(v) for v in x[order[slow]].tolist()], dtype=f"S{_WIDTH - 1}")
        text[slow, :-1] = reprs.view(np.uint8).reshape(len(slow), _WIDTH - 1)
    text[:, -1] = ord(",")
    # back into row order, with line_end (at most 25 characters) as one more
    # field of each row
    table = np.zeros((rows, cols + 1, _WIDTH), np.uint8)
    table[:, -1, : len(line_end)] = np.frombuffer(line_end.encode(), np.uint8)
    fields = table.reshape(-1).view(f"V{_WIDTH}")
    fields[order + order // cols] = text.reshape(-1).view(f"V{_WIDTH}")
    return table[table != 0].tobytes()
