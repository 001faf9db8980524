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

A value's text is a fixed-width uint8 cell: its ASCII bytes in order,
with NUL in every byte the text drops. A float cell is the template of
its sign and exponent OR'd with the digits of c, taken from a table
that writes c's trailing zeros as NUL; an integer cell's digits come
from a table that writes its leading zeros as NUL. A table is written a
block of rows at a time: the literal separators and the cells go into
one ``(rows, row_width)`` canvas, which ``bytes.translate`` compresses
by deleting every NUL. Each block's temporaries are a few hundred
kilobytes, and :func:`table_blocks` hands out each block's bytes as soon
as they are formatted. The CLI writes each block to its mesh file, so it
never holds the text: its export memory is bounded by one block.
"""

from __future__ import annotations

import numpy as np

_POW10 = 10.0 ** np.arange(21)  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digit_forms() -> np.ndarray:
    """ASCII of the four digits of every integer v below 10^4, one row
    each: row v has all four, row 10^4 + v has v's leading zeros as NUL
    and row 2 * 10^4 + v its trailing zeros (all four NUL for v = 0)."""
    v = np.arange(10_000, dtype=np.int32)[:, None]
    place = np.array([1000, 100, 10, 1], np.int32)
    ascii = v // place % 10 + ord("0")
    leading = v < place
    trailing = v % (10 * place) == 0
    return np.concatenate([ascii, np.where(leading, 0, ascii), np.where(trailing, 0, ascii)])


_FORMS = _digit_forms()
# the digit forms as four bytes, one little-endian uint32 each
_CHUNK = _FORMS.astype(np.uint8).view("<u4")[:, 0]
# the digit forms in the low bytes of four little-endian uint16, one
# uint64 each: the digits of four (digit, '.' slot) pairs of a float cell
_DIGITS = _FORMS.astype("<u2").view("<u8")[:, 0]

# rows of a table formatted at a time, so that a block's cells and canvas
# stay cache-sized and a streamed export holds one block; the mesh kernels
# of ``measure`` take their rows in blocks of the same size
_BLOCK_ROWS = 4096

# A float cell: sign, the "0." and up to three zeros of |x| < 1, then each
# of the 17 digits followed by a '.' slot (written after the units digit);
# as uint64 words, the prefix and the first digit pair fill word 0 and
# each later word holds four digit pairs.
FLOAT_WIDTH = 40


def _float_template_table() -> np.ndarray:
    """Fast-path float cells without their digits, as uint64 words, one row
    per (sign, exponent of the leading digit): the sign, "0.", zeros and
    '.' that ``repr`` writes, '0' in each digit slot up to the one after
    the units digit (written even when zero), NUL elsewhere."""
    neg, e = (a.reshape(-1, 1) for a in np.meshgrid([0, 1], np.arange(-4, 16), indexing="ij"))
    template = np.zeros((len(neg), FLOAT_WIDTH), np.uint8)
    template[:, :1] = np.where(neg == 1, ord("-"), 0)
    template[:, 1:3] = np.where(e < 0, np.frombuffer(b"0.", np.uint8), 0)
    template[:, 3:6] = np.where(np.arange(3) < -1 - e, ord("0"), 0)
    template[:, 6::2] = np.where(np.arange(17) <= e + 1, ord("0"), 0)
    template[:, 7::2] = np.where(np.arange(17) == e, ord("."), 0)
    return template.view("<u8")


_FLOAT_TEMPLATE = _float_template_table()


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


def float_cells(x: np.ndarray) -> np.ndarray:
    """NUL-padded uint8 cells of finite floats, shape x.shape + (FLOAT_WIDTH,).

    The non-NUL bytes of a cell, in order, are ``repr`` of its value.
    """
    x = np.asarray(x, dtype=float)
    c, s, fast = shortest_digits(x)
    # c's base-10^4 chunks index _DIGITS: the leading one, a single digit,
    # in its leading-zero form, and one followed only by zero chunks in its
    # trailing-zero form, since repr drops c's trailing zeros
    index = np.empty(x.shape + (5,), np.int64)
    tail = np.full(x.shape, 20_000)
    for j in range(4, 0, -1):
        q = c // 10_000
        r = c - q * 10_000
        index[..., j] = r + tail
        tail *= r == 0
        c = q
    index[..., 0] = c + 10_000
    words = np.take(_FLOAT_TEMPLATE, np.signbit(x) * 20 + 20 - s, axis=0)
    words |= _DIGITS[index]
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = [repr(v) for v in x.ravel()[slow].tolist()]
        cells.reshape(-1, FLOAT_WIDTH)[slow] = (
            np.array(text, dtype=f"S{FLOAT_WIDTH}").view(np.uint8).reshape(len(slow), -1)
        )
    return cells


def int_cells(v: np.ndarray) -> np.ndarray:
    """NUL-padded uint8 cells of nonnegative integers, shape
    v.shape + (width,), width a multiple of four that holds the largest
    value.

    The non-NUL bytes of a cell, in order, are ``str`` of its value.
    """
    v = np.asarray(v, dtype=np.int64)
    if v.size and v.min() < 0:
        raise ValueError("int_cells writes nonnegative integers")
    count = -(-len(str(int(v.max(initial=0)))) // 4)
    index = _chunks(v, count)
    # the chunks before the first nonzero one, and that one's leading
    # zeros, are NUL
    lead = np.full(v.shape, 10_000)
    for j in range(count):
        zero = index[..., j] == 0
        index[..., j] += lead
        lead *= zero
    cells = _CHUNK[index].view(np.uint8)
    cells[v == 0, -1] = ord("0")
    return cells


def table_text(cells: np.ndarray, literals) -> bytes:
    """ASCII text of a table of NUL-padded cells of shape (rows, cols,
    width), row by row.

    Each row reads literals[0], cell 0, literals[1], ..., cell cols - 1,
    literals[cols]. Rows are laid out on one (rows, row_width) canvas whose
    NUL bytes are then deleted, so the literals must hold no NUL.
    """
    rows, cols, width = cells.shape
    encoded = [literal.encode("ascii") for literal in literals]
    canvas = np.empty((rows, sum(map(len, encoded)) + cols * width), np.uint8)
    at = 0
    for j, literal in enumerate(encoded):
        canvas[:, at : at + len(literal)] = np.frombuffer(literal, np.uint8)
        at += len(literal)
        if j < cols:
            canvas[:, at : at + width] = cells[:, j]
            at += width
    return canvas.tobytes().translate(None, b"\0")


def table_blocks(values: np.ndarray, cells, literals):
    """``table_text(cells(values), literals)`` in pieces, one per block of
    ``_BLOCK_ROWS`` rows, each yielded as soon as it is formatted; a
    block's temporaries are freed before the next is formatted."""
    for start in range(0, len(values), _BLOCK_ROWS):
        yield table_text(cells(values[start : start + _BLOCK_ROWS]), literals)
