"""The body of a households CSV in the layout ``microdata.write_population`` writes.

That layout, "plain", holds only digits, ",", "-", "." and LF after a header
line ended by LF: k cells a row, at most one "." a cell and none in an
integer column.  It is read in blocks of whole lines without a float parser:
the dot-free text of a block parses as int64 significands, and each float
cell's significand is scaled by its count of fractional digits to the
correctly rounded double, exactly what ``float`` gives (``_decimal_values``;
the few cells it cannot settle, such as exact rounding ties, go to
``float``).  A body that is not plain throughout (quotes, exponents, CR,
spaces, blank lines) is not read here: ``microdata`` parses that file whole
with one structured ``np.loadtxt``.  The header line and the counting pass
catch most such files (CR line ends, exponents, text) before any block is
parsed; the first block that is not plain ends the block reading of the
rest.

``microdata`` imports this module only when it reads a file: a run on a
synthetic population does not load it.
"""

from __future__ import annotations

import io
from functools import cache

import numpy as np

_BLOCK_BYTES = 1 << 19  # bytes read at a time; a block is the whole lines they hold
_HEADER_BYTES = 1 << 16  # a longer header line leaves the file to np.loadtxt
_COMMA, _LF, _DOT, _MINUS, _ZERO, _NINE = b",\n.-09"


def body_start(fh) -> int | None:
    """Offset just past the header line's LF, or None if that line holds a CR or no LF."""
    line = fh.readline(_HEADER_BYTES)
    return len(line) if line.endswith(b"\n") and b"\r" not in line else None


def count_rows(fh) -> int | None:
    """The lines left, or None for a body seen not to be plain while counting.

    A byte above "9" (an exponent, "nan", a letter, non-ASCII text) or a blank
    last line is never plain, so such a file goes to ``np.loadtxt`` before
    any block is parsed.
    """
    ends, tail = 0, b""
    while chunk := fh.read(_BLOCK_BYTES):
        buf = np.frombuffer(chunk, np.uint8)
        if buf.max() > _NINE:
            return None
        ends += np.count_nonzero(buf == _LF)
        tail = (tail + chunk[-2:])[-2:]
    if tail == b"\n\n":
        return None
    return ends + (tail[-1:] not in (b"", b"\n"))  # an unended last line


def blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, each ending in LF.

    An unended last line gets an LF.
    """
    pending = bytearray()
    while chunk := fh.read(_BLOCK_BYTES):
        pending += chunk
        cut = pending.rfind(b"\n") + 1
        if cut:
            yield pending[:cut]
            del pending[:cut]
    if pending:
        yield pending + b"\n"


def plain_columns(
    block: bytearray, k: int, int_columns: tuple[int, ...]
) -> list[np.ndarray] | None:
    """The k columns of a plain block, or None if the block is not plain.

    Columns in ``int_columns`` are the int64 significands themselves.  The
    bytes after each dot give a float cell's number of fractional digits, and
    a "-" starting a cell its sign, so "-0.0" keeps it.  Cells
    ``_decimal_values`` leaves unsettled are parsed by ``float``.  A block
    whose int64 parse fails (an empty cell, a lone sign, a significand beyond
    64 bits) is not plain either.
    """
    buf = np.frombuffer(block, np.uint8)
    # of the plain bytes, all but the digits sort below "0"
    marks = np.flatnonzero(buf < _ZERO)
    kinds = buf[marks]
    other = (kinds != _LF) & ((kinds < _COMMA) | (kinds > _DOT))
    if (buf > _NINE).any() or other.any():
        return None  # not a plain byte
    is_minus = kinds == _MINUS
    minus = marks[is_minus]
    if minus.size:  # from here on, marks are the separators and dots in byte order
        marks, kinds = marks[~is_minus], kinds[~is_minus]
    is_dot = kinds == _DOT
    dots = np.flatnonzero(is_dot)  # the block ends in LF, so dots + 1 is in range
    # mark j is separator j - (dots before it); row i must end at separator (i + 1) k - 1
    lf = np.flatnonzero(kinds == _LF)
    rows = len(lf)
    ends = lf - np.searchsorted(dots, lf)
    if len(marks) - len(dots) != rows * k or np.any(ends != np.arange(k - 1, rows * k, k)):
        return None  # a blank line, or a row without k cells
    if is_dot[dots + 1].any():
        return None  # two dots in a cell
    digits = np.full(rows * k, -1)
    digits[dots - np.arange(len(dots))] = marks[dots + 1] - marks[dots] - 1
    digits = digits.reshape(rows, k)
    if (digits[:, int_columns] >= 0).any():
        return None  # a dot in an integer column
    before = buf[minus - 1]  # the block ends in LF, so a "-" at 0 sees one
    if not ((before == _COMMA) | (before == _LF)).all():
        return None  # a "-" inside a cell, as in ".-5"
    try:
        significands = np.loadtxt(io.StringIO(block.replace(b".", b"").decode("ascii")),
                                  dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    floats = [i for i in range(k) if i not in int_columns]
    place = np.full(k, -1)  # a column's place among the float columns
    place[floats] = range(len(floats))
    magnitudes = significands[:, floats]
    np.abs(magnitudes, out=magnitudes)  # |int64 min| wraps to itself, 2**63 as uint64
    values = _decimal_values(magnitudes.view(np.uint64).ravel(),
                             np.maximum(digits[:, floats], 0).ravel())
    unsettled = np.flatnonzero(np.isnan(values))
    if minus.size or unsettled.size:
        seps = marks[~is_dot]  # seps[i] ends cell i, counted over all k columns
        cells = np.searchsorted(seps, minus)  # the cell each "-" starts
        column = place[cells % k]  # -1 for an integer column, whose sign is parsed
        negative = (cells // k * len(floats) + column)[column >= 0]
        values[negative] = np.copysign(values[negative], -1.0)
        for i in unsettled.tolist():
            cell = i // len(floats) * k + floats[i % len(floats)]
            values[i] = float(block[seps[cell - 1] + 1 if cell else 0:seps[cell]])
    values = values.reshape(rows, len(floats))
    return [significands[:, i] if i in int_columns else values[:, place[i]] for i in range(k)]


# -- decimal significands to doubles ------------------------------------------

_EXACT_DIGITS = 22  # 10**22 is the largest power of ten a double holds exactly
_SCALED_DIGITS = 46  # up to 10**46, 10**d - fl(10**d) is a double too
_SPLITTER = 2.0**27 + 1  # Veltkamp's constant: splits a double into 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """For d <= _SCALED_DIGITS: fl(10**d), its Veltkamp halves, and 10**d - fl(10**d)."""
    hi = np.array([float(10**d) for d in range(_SCALED_DIGITS + 1)])
    lo = np.array([float(10**d - int(h)) for d, h in enumerate(hi.tolist())])
    return (hi, *_split(hi), lo)


def _decimal_values(significand: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """``significand * 10**-digits`` correctly rounded, NaN where left unsettled.

    ``significand`` is uint64, ``digits`` the non-negative count of fractional
    digits.  Every settled value equals ``float`` of the decimal bit for bit.
    Left unsettled are the decimals within about 2**-40 ulp of a rounding
    boundary, exact ties included, and those with more than
    ``_SCALED_DIGITS`` digits.

    Fast path (Clinger, PLDI 1990): m < 2**53 and d <= 22 make m and 10**d
    exact doubles, so one correctly rounded division is the answer.

    Otherwise, with u = 2**-53 and x = m / P, P = 10**d = p + lam where
    p = fl(P) and lam is exact (|lam| <= u p):

    1. m = mh + ml exactly: the two 32-bit halves are exact doubles and
       Fast2Sum adds them, so mh = fl(m) and |ml| <= u mh.
    2. q = fl(mh / p), and q p = ph + pl exactly (Dekker's two-product over
       Veltkamp halves).  ph is within 3u of mh, so mh - ph is exact
       (Sterbenz), and m - q P = (mh - ph) + ml - pl - q lam exactly.  Each
       term is at most 2.01 u mh, so the computed remainder is within
       23 u**2 mh of it, and c = fl(remainder / p) is within 35 u**2 x of
       x - q.
    3. r = fl(q + c); q - r is exact (Sterbenz), so t = fl((q - r) + c) is
       within u spacing(r) of q + c - r.  As u x < 1.01 spacing(r),
       |(x - r) - t| < 37 u spacing(r) < 2**-47 spacing(r).
    4. r's rounding interval is (r - below/2, r + spacing(r)/2), with below
       the gap under r (half of spacing(r) at a power of two).  If |t| is
       short of the half gap on its side by more than 2**-39 of it (at least
       2**-41 spacing(r)), x - r lies strictly inside the interval too, so r
       is x rounded to nearest.  Otherwise the cell is left unsettled.

    x lies in [1e-46, 2**64], so no step overflows or leaves the normal range.
    """
    hi, hi_hi, hi_lo, lo = _powers_of_ten()
    # right on the fast path; a zero is zero whatever the digits; the rest is redone
    values = significand.astype(float) / np.take(hi, digits, mode="clip")
    scaled = np.flatnonzero(
        ((significand >= 2**53) | (digits > _EXACT_DIGITS)) & (significand != 0)
    )
    if not scaled.size:
        return values
    m, d = significand[scaled], digits[scaled]
    high = (m >> 32).astype(float) * 2.0**32
    low = (m & 0xFFFFFFFF).astype(float)
    mh = high + low
    ml = (high - mh) + low
    p, p_hi, p_lo, lam = (np.take(a, d, mode="clip") for a in (hi, hi_hi, hi_lo, lo))
    q = mh / p
    ph = q * p
    q_hi, q_lo = _split(q)
    pl = ((q_hi * p_hi - ph) + q_hi * p_lo + q_lo * p_hi) + q_lo * p_lo
    c = (((mh - ph) + ml) - (pl + q * lam)) / p
    r = q + c
    t = (q - r) + c
    up = np.spacing(r)
    # half the gap on t's side of r; below a power of two the gap is up / 2
    half = np.where(t < 0, np.spacing(r - up / 2), up) / 2
    settled = (np.abs(t) < half * (1 - 2.0**-39)) & (d <= _SCALED_DIGITS)
    values[scaled] = np.where(settled, r, np.nan)
    return values
