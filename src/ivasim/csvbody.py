"""The body of a households CSV in the layout ``microdata.write_population`` writes.

That layout, "plain", holds only digits, ",", "-", "." and LF after a header
line ended by LF: k cells a row, at most one "." a cell and none in an
integer column.  It is read in blocks of whole lines without a float parser:
the dot-free text of a block parses as int64 significands, and each float
cell's significand is scaled by its count of fractional digits to the
correctly rounded double, exactly what ``float`` gives (``_decimal_values``;
the few cells it cannot settle, such as exact rounding ties, go to
``float``).  Each block is parsed on its own and dropped, so a read holds
the columns being filled plus about 3 MB of scratch, some eleven times
``_BLOCK_BYTES`` (the block, its dot-free text for ``np.loadtxt``, the index
arrays and the scaling of its float cells), whatever the file's size.  A body
that is not plain throughout (quotes, exponents, CR, spaces, blank lines) is
not read here: ``microdata`` parses that file whole with one structured
``np.loadtxt``.  The header line and the counting pass catch most such files
(CR line ends, exponents, text) before any block is parsed; the first block
that is not plain ends the block reading of the rest.

It is written in blocks of rows too (``text_blocks``), each float as
``repr`` spells it: the shortest decimal that reads back as the same double.
Those digits are found with the reader's tools run backwards: x scaled
exactly to its nearest 17-digit integer, then rounded to fewer digits while
``_decimal_values`` still reads the result back as x.  The few cells that
``repr`` writes with an exponent, or whose digits need a tie broken, are
left to ``repr`` itself, as the reader leaves its unsettled cells to
``float``.

``microdata`` imports this module only when it reads or writes a file: a run
on a synthetic population does not load it.
"""

from __future__ import annotations

import io
from functools import cache

import numpy as np

_BLOCK_BYTES = 1 << 18  # bytes read at a time; a block is the whole lines they hold
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
    """The rest of the seekable ``fh`` in blocks of whole lines, each ending in LF.

    A block is the whole lines of the next ``_BLOCK_BYTES`` (more for a
    longer line); the partial line after them is read again with the next
    block, so while a block is parsed nothing else of the file is held.  An
    unended last line gets an LF.
    """
    while block := fh.read(_BLOCK_BYTES):
        while b"\n" not in block and (more := fh.read(_BLOCK_BYTES)):
            block += more
        cut = block.rfind(b"\n") + 1
        if not cut:
            block += b"\n"
        elif cut < len(block):
            fh.seek(cut - len(block), io.SEEK_CUR)
            block = block[:cut]
        yield block


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


# -- rows to text ---------------------------------------------------------------
#
# A block of rows is rendered as uint32 words of 4 text bytes each: an
# integer cell takes _INT_WORDS words, a float cell _FLOAT_WORDS (the places
# before the dot, a "." word, the places after it), and each cell a
# separator word.  Places a cell leaves unused hold NUL, which one
# ``bytes.translate`` a block deletes.

_WRITE_CELLS = 1 << 15  # cells formatted at a time; bounds the block's buffers
_INT_WORDS = 5  # 20 places: any int64, its sign included
_WHOLE_WORDS, _FRACTION_WORDS = 4, 5  # 16 places before the dot, 20 after it
_FLOAT_WORDS = _WHOLE_WORDS + 1 + _FRACTION_WORDS  # 40 bytes: room for any float's repr
_CHUNK = 10**4  # the digits of one word
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MANTISSA = np.uint64(2**52 - 1)


def text_blocks(columns: list[np.ndarray], int_columns: tuple[int, ...]):
    """The plain body of ``columns`` as bytes, in blocks of whole lines.

    Row i holds cell i of each column.  A column in ``int_columns`` (int64)
    is written as ``str`` writes it, any other (float64) as ``repr`` does:
    the shortest decimal that reads back as the same double, and of those
    the nearest.
    """
    k = len(columns)
    groups = [(_int_words, [i for i in range(k) if i in int_columns]),
              (_float_words, [i for i in range(k) if i not in int_columns])]
    step = max(_WRITE_CELLS // k, 1)
    for start in range(0, len(columns[0]), step):
        block = slice(start, start + step)
        rows = len(columns[0][block])
        cells = {}
        for render, group in groups:
            if group:
                words = render(np.column_stack([columns[i][block] for i in group]).ravel())
                cells.update(zip(group, words.reshape(rows, len(group), -1).transpose(1, 0, 2)))
        comma, lf = (np.broadcast_to(_word(text), (rows, 1)) for text in (b",", b"\n"))
        line = [part for i in range(k) for part in (cells[i], comma if i < k - 1 else lf)]
        yield np.concatenate(line, axis=1).tobytes().translate(None, b"\0")


def _int_words(v: np.ndarray) -> np.ndarray:
    """(n, _INT_WORDS): each int64 as ``str`` writes it, NUL-padded."""
    words = _whole(np.maximum(v, 0), _INT_WORDS)
    negative = np.flatnonzero(v < 0)
    if negative.size:
        words[negative] = _texts(map(str, v[negative].tolist()), _INT_WORDS)
    return words


def _float_words(x: np.ndarray) -> np.ndarray:
    """(n, _FLOAT_WORDS): each double as ``repr`` writes it, NUL-padded.

    0.0 and the doubles ``repr`` writes without an exponent, [1e-4, 1e16),
    are rendered from ``_shortest``'s digits.  ``repr`` itself formats the
    rest, as the reader leaves its unsettled cells to ``float``: -0.0, the
    exponent forms, the exact powers of two (whose rounding interval is
    lopsided, so the nearest short decimal need not be one that reads back)
    and the cells ``_shortest`` leaves unsettled.
    """
    bits = x.view(np.uint64)
    fixed = np.flatnonzero((x >= 1e-4) & (x < 1e16) & (bits & _MANTISSA != 0))
    digits, exponent, settled = _shortest(x[fixed])
    fixed, digits, exponent = fixed[settled], digits[settled], exponent[settled]
    # repr's decimal as whole + fraction / 10**places; past 18 places the
    # digits (< 10**17) are all fraction
    places = np.maximum(-exponent, 0)
    digits *= _POW10[np.maximum(exponent, 0)]
    below = _POW10[np.minimum(places, 18)]
    whole = np.zeros(len(x), np.int64)
    whole[fixed] = digits // below
    fraction = digits - whole[fixed] * below
    # the 20 places after the dot, as their first 16 and their last 4
    shift = np.maximum(places - 16, 0)
    high = fraction // _POW10[shift]
    first, last = np.zeros(len(x), np.int64), np.zeros(len(x), np.int64)
    first[fixed] = high * _POW10[np.maximum(16 - places, 0)]
    last[fixed] = (fraction - high * _POW10[shift]) * _POW10[4 - shift]
    words = np.concatenate([_whole(whole, _WHOLE_WORDS),
                            np.broadcast_to(_word(b"."), (len(x), 1)),
                            _fraction(first, last)], axis=1)
    rest = np.ones(len(x), bool)
    rest[fixed] = False
    rest = np.flatnonzero(rest & (bits != 0))  # 0.0 is rendered as "0" "." "0"
    if rest.size:
        words[rest] = _texts(map(repr, x[rest].tolist()), _FLOAT_WORDS)
    return words


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s digits of each x in [1e-4, 1e16) that is no power of two.

    Returns int64 (digits, exponent) and bool settled: where settled,
    digits * 10**exponent is the decimal ``repr`` writes, the shortest that
    reads back as x and of those the nearest to x.  Left unsettled are the
    cells that would need a tie broken or a decimal read that
    ``_decimal_values`` leaves unsettled.

    1. With d chosen so that x 10**d lies in [1e16, 1e17), ``_scaled`` gives
       it exactly as m + f: m is the nearest 17-digit integer, and as half an
       ulp of x is more than 0.55 in these units, m reads back as x.
    2. For p = 16, 15, ..., m is rounded to p digits (an exact half of the
       dropped part rounds as f's sign says) while the result still reads
       back as x.  The nearest (p+1)-digit decimal is never farther from x
       than the nearest p-digit one, and away from a power of two x's
       rounding interval is symmetric, so the last decimal that reads back
       is the shortest, and the nearest of that length.  A dropped part of
       exactly half with f = 0 is a tie: if the candidate reads back, so does
       its twin, and ``repr`` breaks the tie.
    """
    d = 16 - np.floor(np.log10(x)).astype(np.int64)
    m, f = _scaled(x, d)
    off = np.flatnonzero((m < 10**16) | (m >= 10**17))  # log10 is off by one next to a power of ten
    d[off] += np.where(m[off] < 10**16, 1, -1)
    m[off], f[off] = _scaled(x[off], d[off])
    settled = (m >= 10**16) & (m < 10**17)
    digits, length = m.copy(), np.full(len(x), 17)
    # the cells still shortening, and their m, f, d and x
    active = np.flatnonzero(settled)
    ma, fa, da, xa = m[active], f[active], d[active], x[active]
    unit = 1
    for p in range(16, 0, -1):
        if not active.size:
            break
        unit *= 10
        candidate = ma // unit
        dropped = ma - candidate * unit
        half = dropped == unit // 2
        candidate += (dropped > unit // 2) | (half & (fa > 0))
        exponent = 17 - p - da  # the candidate is candidate * 10**exponent
        value = _decimal_values((candidate * _POW10[np.maximum(exponent, 0)]).view(np.uint64),
                                np.maximum(-exponent, 0))
        reads = value == xa
        tie = half & (fa == 0)
        settled[active[np.isnan(value) | (tie & reads)]] = False
        keep = np.flatnonzero(reads & ~tie)
        active, ma, fa, da, xa = active[keep], ma[keep], fa[keep], da[keep], xa[keep]
        digits[active], length[active] = candidate[keep], p
    settled &= (length < 17) | (np.abs(f) != 0.5)  # a tie between two 17-digit decimals
    return digits, 17 - length - d, settled


def _scaled(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, f): x * 10**d == m + f exactly, m the nearest int64 and |f| <= 1/2.

    10**d (0 <= d <= 22) is a double, so Dekker's two-product over Veltkamp
    halves gives x 10**d exactly as ph + pl.  Exact where x 10**d >= 2**53,
    which makes ph an integer.
    """
    hi, hi_hi, hi_lo, _ = _powers_of_ten()
    p, p_hi, p_lo = hi[d], hi_hi[d], hi_lo[d]
    ph = x * p
    x_hi, x_lo = _split(x)
    pl = ((x_hi * p_hi - ph) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    near = np.rint(pl)
    return ph.astype(np.int64) + near.astype(np.int64), pl - near


def _whole(v: np.ndarray, words: int) -> np.ndarray:
    """(n, words): each v >= 0 in decimal, right-aligned, NUL for its leading zeros."""
    lead, units = _digit_words()[:2]
    out = np.empty((len(v), words), np.uint32)
    for w in range(words - 1, -1, -1):
        higher = v // _CHUNK
        table = units if w == words - 1 else lead
        out[:, w] = np.take(table, v - higher * _CHUNK + _CHUNK * (higher == 0))
        v = higher
    return out


def _fraction(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(n, _FRACTION_WORDS): 20 places after the dot, NUL for their trailing zeros.

    ``first`` holds the first 16 places and ``last`` the last 4; a fraction
    of 0 is written "0".
    """
    trail, tenths = _digit_words()[2:]
    out = np.empty((len(first), _FRACTION_WORDS), np.uint32)
    out[:, -1] = np.take(trail, last + _CHUNK)
    zeros_after = last == 0
    for w in range(_FRACTION_WORDS - 2, -1, -1):
        higher = first // _CHUNK
        chunk = first - higher * _CHUNK
        out[:, w] = np.take(tenths if w == 0 else trail, chunk + _CHUNK * zeros_after)
        zeros_after &= chunk == 0
        first = higher
    return out


@cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """Word tables for a chunk c of 4 digits: entry c is its digits, entry
    10**4 + c the same with its leading zeros (``lead``, ``units``) or its
    trailing zeros (``trail``, ``tenths``) as NUL.  ``units``, for the last
    word before the dot, and ``tenths``, for the first after it, keep one
    "0" of 0000."""
    plain = [f"{c:04d}" for c in range(_CHUNK)]

    def table(strip):
        return np.frombuffer("".join(plain + [strip(t) for t in plain]).encode(), np.uint32)

    return (table(lambda t: t.lstrip("0").rjust(4, "\0")),
            table(lambda t: (t.lstrip("0") or "0").rjust(4, "\0")),
            table(lambda t: t.rstrip("0").ljust(4, "\0")),
            table(lambda t: (t.rstrip("0") or "0").ljust(4, "\0")))


def _texts(texts, words: int) -> np.ndarray:
    """(n, words): each str, NUL-padded to 4 * words bytes."""
    padded = b"".join(t.encode().ljust(4 * words, b"\0") for t in texts)
    return np.frombuffer(padded, np.uint32).reshape(-1, words)


def _word(text: bytes) -> np.ndarray:
    """Up to 4 bytes of text as one word, NUL-padded."""
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)
