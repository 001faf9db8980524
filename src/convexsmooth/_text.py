"""Exact decimal text of float and integer arrays, for the mesh exports.

Every float is written as ``repr`` writes it (and so as ``json.dumps``
does): the shortest digit string that reads back to the same double,
the closest to it among strings of that length. The digits come from
exact integer arithmetic, vectorized over the array.

For |x| in [1e-4, 1e16), where ``repr`` uses fixed notation, x * 10^s
with s = 16 - floor(log10 |x|) lies in [1e16, 1e17). 10^s is an exact
double (s <= 20), and Dekker's product (Dekker, "A floating-point
technique for extending the available precision", 1971) gives x * 10^s
exactly as an int64 n plus a fraction f in [0, 1). The correctly rounded
15-, 16- and 17-digit candidates come from (n, f), rounding halfway
cases to even as ``repr`` does, and the shortest one within half an ulp
of x is ``repr``'s. At most one 15-digit decimal fits in that interval,
and the 17-digit candidate always does. Every value this cannot certify
goes through ``repr``: zeros, values outside the range, powers of two
(their rounding interval is asymmetric) and candidates at exactly half
an ulp.

Text is assembled on a uint8 canvas, one fixed-width cell per value and
the literal separators between them, and compressed with one mask.
"""

from __future__ import annotations

import numpy as np

_POW10 = 10.0 ** np.arange(21)  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# four ASCII digits of every integer below 10^4, one little-endian uint32 each
_CHUNK = (
    (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view("<u4")[:, 0]
)

# A float cell: sign, the "0." and up to three zeros of |x| < 1, then each
# of the 17 digits followed by a '.' slot (kept after the units digit).
FLOAT_WIDTH = 40
_FLOAT_PREFIX = np.frombuffer(b"-0.000", np.uint8)


def _float_keep_table() -> np.ndarray:
    """Kept bytes of a fast-path float cell, one row per (sign, exponent of
    the leading digit, index of the last digit written)."""
    neg, e, last = (
        a.reshape(-1, 1)
        for a in np.meshgrid([0, 1], np.arange(-4, 16), np.arange(17), indexing="ij")
    )
    keep = np.zeros((len(neg), FLOAT_WIDTH), bool)
    keep[:, :1] = neg == 1
    keep[:, 1:3] = e < 0
    keep[:, 3:6] = np.arange(3) < -1 - e
    keep[:, 6::2] = np.arange(17) <= last
    keep[:, 7::2] = np.arange(17) == e
    return keep


_FLOAT_KEEP = _float_keep_table()


def _scaled(ax: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ax * 10^s = n + f exactly, with int64 n and f in [0, 1)."""
    p = ax * _POW10[s]
    t = _SPLIT * ax
    ah = t - (t - ax)
    al = ax - ah
    bh, bl = _POW10_HI[s], _POW10_LO[s]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    fe = np.floor(e)
    return p.astype(np.int64) + fe.astype(np.int64), e - fe


def _round_to(n: np.ndarray, f: np.ndarray, unit: int) -> np.ndarray:
    """n + f rounded half-even to a multiple of unit."""
    q = n // unit
    r = n - q * unit
    half = unit // 2
    up = (r > half) | ((r == half) & ((f > 0) | (q & 1 == 1)))
    return (q + up) * unit


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s digits of every float: |x| = c * 10^-s, c in [1e16, 1e17).

    ``fast`` marks the values whose c is certified; c's trailing zeros are
    the ones ``repr`` drops. Elsewhere c = 10^16 and s = 16.
    """
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16) & (np.frexp(ax)[0] != 0.5)
    ax = np.where(fast, ax, 1.0)
    s = np.clip(16 - np.floor(np.log10(ax)), 1, 20).astype(np.int64)
    n, f = _scaled(ax, s)
    # floor(log10) can be one off next to a power of ten
    fix = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if len(fix):
        s[fix] = np.clip(s[fix] + np.where(n[fix] < 10**16, 1, -1), 1, 20)
        n[fix], f[fix] = _scaled(ax[fix], s[fix])
        fast[fix] &= (n[fix] >= 10**16) & (n[fix] < 10**17)
    half_ulp = 0.5 * np.spacing(ax) * _POW10[s]
    c15 = _round_to(n, f, 100)
    c16 = _round_to(n, f, 10)
    c17 = n + ((f > 0.5) | ((f == 0.5) & (n & 1 == 1)))
    # |candidate - x| rounds monotonically, so it is certified unless it
    # rounds to half an ulp exactly
    err15 = np.abs((c15 - n) - f)
    err16 = np.abs((c16 - n) - f)
    fast &= (err15 != half_ulp) & (err16 != half_ulp)
    # No candidate is 10^17: it would be 10^(e + 1) within half an ulp of
    # x < 10^(e + 1), yet the double nearest 10^(e + 1) is not below it
    # for e + 1 in [-3, 16].
    c = np.where(err15 < half_ulp, c15, np.where(err16 < half_ulp, c16, c17))
    return np.where(fast, c, 10**16), np.where(fast, s, 16), fast


def _chunks(v: np.ndarray, count: int) -> np.ndarray:
    """Base-10^4 digits of nonnegative v, most significant first."""
    out = np.empty(v.shape + (count,), np.int64)
    for j in range(count - 1, 0, -1):
        q = v // 10_000
        out[..., j] = v - q * 10_000
        v = q
    out[..., 0] = v
    return out


def float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII cells of finite floats and the mask of their text's bytes.

    Both have shape x.shape + (FLOAT_WIDTH,); the kept bytes of a cell,
    in order, are ``repr`` of its value.
    """
    x = np.asarray(x, dtype=float)
    c, s, fast = shortest_digits(x)
    digits = _CHUNK[_chunks(c, 5)].view(np.uint8)[..., 3:]
    e = 16 - s
    last = 16 - np.argmax(digits[..., ::-1] != ord("0"), axis=-1)
    code = (np.signbit(x) * 20 + e + 4) * 17 + np.maximum(last, e + 1)
    chars = np.empty(x.shape + (FLOAT_WIDTH,), np.uint8)
    chars[..., :6] = _FLOAT_PREFIX
    # each digit in the low byte of a uint16 whose high byte is '.'
    chars[..., 6:].view("<u2")[...] = digits | np.uint16(ord(".") << 8)
    keep = np.take(_FLOAT_KEEP, code, axis=0)
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = [repr(v) for v in x.ravel()[slow].tolist()]
        slow_chars = np.array(text, dtype=f"S{FLOAT_WIDTH}").view(np.uint8).reshape(len(slow), -1)
        chars.reshape(-1, FLOAT_WIDTH)[slow] = slow_chars
        keep.reshape(-1, FLOAT_WIDTH)[slow] = slow_chars != 0
    return chars, keep


def int_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII cells of integers in [0, 10^16) and the mask of their digits.

    Both have shape v.shape + (width,), width a multiple of four that
    holds the largest value.
    """
    v = np.asarray(v, dtype=np.int64)
    width = 4 * -(-len(str(int(v.max(initial=0)))) // 4)
    chars = _CHUNK[_chunks(v, width // 4)].view(np.uint8)
    digit_count = np.searchsorted(10 ** np.arange(1, width), v, side="right") + 1
    keeps = np.arange(width) >= width - np.arange(width + 1)[:, None]
    return chars, keeps[digit_count]


def table_text(cells: tuple[np.ndarray, np.ndarray], literals) -> str:
    """Text of a table of cells of shape (rows, cols, width), row by row.

    Each row reads literals[0], cell 0, literals[1], ..., cell cols - 1,
    literals[cols].
    """
    chars, keep = cells
    rows, cols = chars.shape[:2]
    char_parts, keep_parts = [], []
    for j, literal in enumerate(literals):
        text = np.frombuffer(literal.encode("ascii"), np.uint8)
        char_parts.append(np.broadcast_to(text, (rows, len(text))))
        keep_parts.append(np.ones((rows, len(text)), bool))
        if j < cols:
            char_parts.append(chars[:, j])
            keep_parts.append(keep[:, j])
    canvas = np.concatenate(char_parts, axis=1).ravel()
    kept = np.flatnonzero(np.concatenate(keep_parts, axis=1))
    return canvas[kept].tobytes().decode("ascii")
