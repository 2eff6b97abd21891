"""Exact vectorized scientific formatting of float arrays.

``format_e11_rows`` writes what Python's ``"%.11e"`` writes, the 12
significant digits the CSV artifacts carry, for a whole array at once.  It
exists for the trajectory table, whose tens of thousands of values would
otherwise cost one interpreted ``%`` each.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# 10**(11-e) for e = 33..-11 as a factor and a divisor, one of them 1: every
# power of ten up to 1e22 is an exact double
_MUL = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_DIV = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])


def format_e11_rows(values: np.ndarray) -> Iterator[list[str]]:
    """Yield ``["%.11e" % v for v in row]`` for each row of the 2-D ``values``.

    With e = floor(log10|v|), the 12-digit mantissa is |v|*10**(11-e) rounded
    to the nearest integer.  For |11-e| <= 22 the power of ten is exact, so
    the one product (or quotient) s is the exact value correctly rounded:
    below 1e12 < 2**40 it is off by at most 2**-14.  Its nearest integer is
    then the exact one's unless s lies within 1e-3 of a tie, and the digits
    are taken from that integer by integer arithmetic.  Every other value
    goes through Python's ``%``: nan, +-inf and +-0 (no finite logarithm),
    |11-e| > 22 (which also covers the 3-digit exponents), s outside
    [1e11, 1e12) or rounding to 1e12 (a misjudged e, or a carry into the
    next decade), and the near-ties.

    The digits of all rows are computed at once; the strings of a row are
    made only when it is yielded, so only one row of them is held at a time.
    """
    rows, n = values.shape
    v = values.ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        k = 11.0 - e
        ok = np.abs(k) <= 22.0
        k = np.where(ok, k, 0.0).astype(np.intp) + 22
        s = a * _MUL[k] / _DIV[k]
        m = np.rint(s)
        ok &= (np.abs(s - m) < 0.499) & (s >= 1e11) & (m < 1e12)
        mant = np.where(ok, m, 1e11).astype(np.int64)
        e = np.where(ok, e, 0.0)
    # one row per character of "d.ddddddddddde+XX" and the separator
    ch = np.empty((18, v.size), np.uint8)
    for j in range(12, 1, -1):
        mant, digit = np.divmod(mant, 10)
        ch[j] = digit + ord("0")
    ch[0] = mant + ord("0")
    ch[1] = ord(".")
    ch[13] = ord("e")
    ch[14] = ord("+")
    ch[14, e < 0.0] = ord("-")
    e = np.abs(e)
    tens = np.floor(e / 10.0)
    ch[15] = tens + ord("0")
    ch[16] = e - 10.0 * tens + ord("0")
    ch[17] = ord("\n")
    text = ch.T.tobytes()
    fixes: list[list[int]] = [[] for _ in range(rows)]
    for i in np.flatnonzero(~ok | np.signbit(v)).tolist():
        fixes[i // n].append(i)
    for r in range(rows):
        out = text[18 * n * r:18 * n * (r + 1)].decode("ascii").split("\n")[:-1]
        for i in fixes[r]:
            out[i - r * n] = "-" + out[i - r * n] if ok[i] else "%.11e" % v[i]
        yield out
