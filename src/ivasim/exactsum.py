"""Exact sums of float arrays in a few numpy passes, equal to ``math.fsum``.

Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008): for
n addends r_i, M = ceil(log2(n + 2)) and sigma a power of two with
sigma >= 2^M * max|r_i|, every q_i = (sigma + r_i) - sigma and r_i - q_i is
exact, the q_i are multiples of 2^-53 * sigma, and every partial sum of them
is a float below sigma, so ``np.sum(q)`` is exact in any order.  Repeating on
the remainders until they vanish splits the exact sum into a few floats.  Their
correctly rounded total is the correctly rounded exact sum, which is what
``math.fsum`` returns.

``exact_sum`` hands the few partial sums, ``exact_parts``, to ``math.fsum``;
over the parts of several arrays ``math.fsum`` gives ``exact_sum`` of their
concatenation.  So an array is extracted ``_CHUNK`` elements at a time and its
parts are those of its chunks: the scratch is a few chunk-length arrays
whatever its length.  ``chunk_parts`` takes the chunks from a function, so a
caller can sum values it forms a chunk at a time, such as weighted products,
without ever holding them whole.

``row_sums`` extracts every row of a block of ``_ROW_BLOCK`` rows at once (one
sigma per row), turns each row's parts into a non-overlapping expansion with
TwoSum, and rounds it the way ``math.fsum`` rounds its partials, half-way
correction included, so no row needs Python floats unless it is non-finite,
near overflow, or spans more binades than ``_ROW_PASSES`` extractions cover.
Those rows, and short 1-D arrays, go to ``math.fsum`` itself, so results and
exceptions match it there by construction.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_SHORT = 384  # 1-D arrays up to this long are summed as a list: a numpy pass costs more
_CHUNK = 1 << 14  # elements extracted at a time; bounds the scratch arrays
_ROW_BLOCK = 2048  # rows extracted at once; bounds the scratch matrices
_ROW_PASSES = 4  # extractions per row before the row goes to math.fsum
_MAX_EXPONENT = 1020  # sigma = 2^(M + e) stays this far below overflow
_NEG_ZERO_SUM = math.fsum([-0.0])  # the interpreter's sum of negative zeros


def exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` for a 1-D float array, bit for bit."""
    return math.fsum(exact_parts(x))


def exact_parts(x: np.ndarray) -> list[float]:
    """Floats with the exact sum of a 1-D float array (see ``chunk_parts``)."""
    x = np.asarray(x, dtype=float)
    return chunk_parts(len(x), x.__getitem__)


def chunk_parts(n: int, chunk: Callable[[slice], np.ndarray]) -> list[float]:
    """Floats with the exact sum of n floats that ``chunk`` gives a slice at a time.

    ``chunk(s)`` returns the float64 values at the positions in slice ``s``
    of range(n); it is asked for ``_CHUNK`` positions at a time, in order.
    The parts are each chunk's extraction partials, or one signed zero for an
    all-zero chunk.  If n is short, or any value is non-finite or near
    overflow, they are the values themselves, asked for all at once, so
    ``math.fsum`` of them is ``math.fsum`` of the values, exceptions
    included.  Otherwise every partial sum of the values, in any order, is
    below 2^_MAX_EXPONENT (the bound is set by n, not by a chunk's length),
    so neither sum overflows and both round the same exact total.
    """
    if n <= _SHORT:
        return chunk(slice(0, n)).tolist()
    limit = 2.0 ** (_MAX_EXPONENT - (n + 1).bit_length())
    parts = []
    for start in range(0, n, _CHUNK):
        x = chunk(slice(start, start + _CHUNK))
        m = np.abs(x).max()
        if not m < limit:  # non-finite or near overflow
            return chunk(slice(0, n)).tolist()
        parts += _extract(x, m)
    return parts


def _extract(x: np.ndarray, m: float) -> list[float]:
    """The extraction partials of ``x``, whose largest magnitude is m."""
    if m == 0:
        return [-0.0 if np.signbit(x).all() else 0.0]
    M = (len(x) + 1).bit_length()
    parts = []
    r, q = x, np.empty_like(x)
    while m:
        sigma = math.ldexp(1.0, M + math.frexp(m)[1])
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        r = np.subtract(r, q, out=None if r is x else r)
        m = np.abs(r, out=q).max()
    return parts


def row_sums(matrix: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of a 2-D float array, bit for bit."""
    matrix = np.asarray(matrix, dtype=float)
    out = np.zeros(len(matrix))
    if matrix.shape[1]:
        for start in range(0, len(matrix), _ROW_BLOCK):
            block = matrix[start:start + _ROW_BLOCK]
            out[start:start + len(block)] = _block_sums(block)
    return out


def _block_sums(block: np.ndarray) -> np.ndarray:
    r = np.array(block)  # a copy, reduced in place
    scratch = np.abs(r)
    m = scratch.max(axis=1)
    M = (r.shape[1] + 1).bit_length()
    fallback = ~(m < 2.0 ** (_MAX_EXPONENT - M))  # non-finite or near overflow
    if fallback.any():
        r[fallback] = 0.0
        m[fallback] = 0.0
    zero_rows = np.flatnonzero(m == 0)
    negative_zeros = zero_rows[np.signbit(r[zero_rows]).all(axis=1)]
    parts = []
    while m.any() and len(parts) < _ROW_PASSES:
        sigma = np.ldexp(1.0, M + np.frexp(m)[1])[:, None]
        q = np.add(r, sigma, out=scratch)
        q -= sigma
        parts.append(q.sum(axis=1))
        r -= q
        m = np.abs(r, out=scratch).max(axis=1)
    fallback |= m > 0  # more binades than the passes cover
    out = _round_expansion(_expansion(parts)) if parts else np.zeros(len(r))
    out[negative_zeros] = _NEG_ZERO_SUM
    for i in np.flatnonzero(fallback):
        out[i] = math.fsum(block[i].tolist())
    return out


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the exact error a + b - s (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _expansion(parts: list[np.ndarray]) -> list[np.ndarray]:
    """Shewchuk's Grow-Expansion on every row: components of the same exact sum,
    non-overlapping and ordered by increasing magnitude, with zeros anywhere."""
    expansion = parts[:1]
    for part in parts[1:]:
        grown = []
        for component in expansion:
            part, low = _two_sum(part, component)
            grown.append(low)
        expansion = grown + [part]
    return expansion


def _round_expansion(expansion: list[np.ndarray]) -> np.ndarray:
    """The correctly rounded sum of every row's expansion, as ``math.fsum``
    rounds its partials: add from the top while the sum stays exact; then, if
    the first rounding error is exactly half a step and the next nonzero
    partial below has its sign, the exact sum lies past the half-way point,
    so step the result once in that direction."""
    hi = expansion[-1]
    lo = np.zeros_like(hi)
    exact = np.ones(len(hi), dtype=bool)  # every addition so far was exact
    seeking = np.zeros(len(hi), dtype=bool)  # inexact, next partial below not met yet
    below = np.zeros_like(hi)  # that partial
    for y in reversed(expansion[:-1]):
        found = seeking & (y != 0)
        below[found] = y[found]
        seeking &= ~found
        s, err = _two_sum(hi, y)
        hi = np.where(exact, s, hi)
        lo = np.where(exact, err, lo)
        inexact = exact & (err != 0)
        seeking |= inexact
        exact &= ~inexact
    halfway = ((lo < 0) & (below < 0)) | ((lo > 0) & (below > 0))
    if halfway.any():
        y = lo * 2.0
        x = hi + y
        hi = np.where(halfway & (x - hi == y), x, hi)
    return hi
