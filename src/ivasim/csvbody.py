"""The households CSV: its header check, its body readers and its writer.

The layout is fixed: ``id, weight, residents, income_pc, nonmonetary_total``
followed by one monetary-expenditure column per schedule category id.
UTF-8, "." decimal separator; numbers are plain ASCII decimal or scientific
notation, ids fit in 64 bits, "#" starts no comment and blank lines are
skipped.  ``read`` is strict: unknown or missing columns, non-numeric cells,
duplicate ids, invariant violations and bytes that are not UTF-8 are load
errors that cite the offending row.

A body in the layout ``write`` writes, "plain" (only digits, ",", "-", "."
and LF after a header line ended by LF; k cells a row, at most one "." a
cell and none in an integer column), is read in blocks of whole lines into
columns counted and allocated once, without a float parser: each block's
dot-free text parses as int64 significands (``plain_columns``), scaled
exactly to the doubles ``float`` gives (``_decimal_values``).  A body of two
lines or more is read as two halves, split at the first line start at or
after its middle, two at a time (``_in_pairs``): ``np.fromstring`` and the
numpy steps around it release the GIL.  The halves share nothing but the
columns, each filling its own rows, and the body goes to ``np.loadtxt`` if
either was not plain.  A block parse holds about three times
``_BLOCK_BYTES`` of scratch, so a read holds the columns plus about 2.3 MB,
some nine ``_BLOCK_BYTES`` with two blocks in flight, whatever the file's
size.  Any other body (quotes, exponents, CR, spaces, blank lines) is parsed
whole by one structured ``np.loadtxt``.  Only when the file is rejected does
the row reader (``_rows``), one csv record and one ``Household`` at a time,
walk it once to name the first bad row: it keeps no row, only the ids seen,
and the parsed columns are freed before it starts.

``write`` writes the header line, then the body in blocks of rows, each
float as ``repr`` spells it: the shortest decimal that reads back as the
same double, found with the reader's tools run backwards.  A block is
rendered as fixed-width words whose unused places are NUL, and one numpy
compaction drops them.  Most of a block's steps release the GIL, so the
blocks are rendered two at a time (``_in_pairs``) and written in order: the
bytes are those one thread writes.

``_in_pairs`` is the one place that starts a thread: where the process may
run on two CPUs, the calling thread works the first item of each pair while
a thread started for the pair works the second, and the thread is joined
before the pair's second result is yielded, so none is left running when a
read or write ends.  ``_lift_heap``, called by ``read`` and ``write``, keeps
the threads' block scratch in their malloc heaps.

``microdata.load_population`` and ``write_population`` import this module
when they run: a run on a synthetic population does not load it.
"""

from __future__ import annotations

import csv
import io
import os
import threading
import warnings
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .microdata import FIXED_COLUMNS, Household, MicrodataError, Population, Provenance
from .schedule import Schedule

_INT_COLUMNS = (0, 2)  # id and residents, in FIXED_COLUMNS
_BLOCK_BYTES = 1 << 18  # bytes read at a time; a block is the whole lines they hold
_HEADER_BYTES = 1 << 16  # a longer header line leaves the file to np.loadtxt
_COMMA, _LF, _DOT, _MINUS, _ZERO, _NINE = b",\n.-09"
_LF_TO_COMMA = bytes.maketrans(b"\n", b",")
_SAFE_DIGITS = 18  # any significand of up to 18 digits is an int64
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def read(path: str | Path, schedule: Schedule) -> Population:
    """The population in a households CSV, validated against the schedule's category set.

    On any rejection the row reader walks the file once to name the first
    bad row and cell; it holds no row, and the parsed columns are freed first.
    """
    _lift_heap()
    path = Path(path)
    if not path.exists():
        raise MicrodataError(f"household file not found: {path}")
    category_ids = schedule.category_ids()
    with _open_text(path) as fh:
        header = _header(_records(fh, path), category_ids, path)
    try:
        return _read_columns(path, header, category_ids)
    except (ValueError, Warning) as exc:
        message = f"{path}: {exc}"
    # leaving the except block freed the traceback, and the columns its frames held
    for _ in _rows(path, schedule):  # raises the first error in file order
        pass
    raise MicrodataError(message)


def write(population: Population, path: str | Path, schedule: Schedule) -> None:
    """Emit the documented CSV layout; numeric fields round-trip exactly.

    The body's blocks are rendered two at a time (``_in_pairs``), so at most
    two rendered blocks are held, and written in order.
    """
    _lift_heap()
    # fixed columns and category ids are tokens of [a-z0-9_], which csv never quotes
    header = ",".join([*FIXED_COLUMNS, *schedule.category_ids()]) + "\n"
    columns = [population.ids, population.weight, population.residents,
               population.income_per_capita, population.nonmonetary_total]
    columns += [population.spend[:, j] for j in population.column_index(schedule)]
    with Path(path).open("wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.writelines(_in_pairs(partial(_text_block, columns, _INT_COLUMNS), _row_blocks(columns)))


def _read_columns(path: Path, header: list[str], category_ids: tuple[str, ...]) -> Population:
    """Parse the body into columns: block by block if it is plain, else in one piece.

    Raises ValueError, or a warning as an error, on anything the row reader
    may reject.
    """
    # a category may share a fixed column's name; its column comes after them
    sources = list(range(len(FIXED_COLUMNS))) + [
        header.index(cid, len(FIXED_COLUMNS)) for cid in category_ids
    ]
    with warnings.catch_warnings():
        # numpy < 2 parses an integer via float, and stops np.fromstring at
        # unmatched text, with only a DeprecationWarning; an empty body is a
        # warning too
        warnings.simplefilter("error")
        columns = _read_plain(path, len(header), sources)
        if columns is None:
            columns = _read_structured(path, len(header), sources)
    return Population(Provenance("file", str(path)), category_ids, *columns)


def _read_plain(path: Path, k: int, sources: list[int]) -> list[np.ndarray] | None:
    """The five fixed columns and the spend matrix, or None if any block is not plain.

    The body is read as two halves, split at the first line start at or
    after its middle (a body of one line is one half), each from its own
    handle into its own rows of the columns, two at a time (``_in_pairs``).
    The halves share nothing but the columns: each reads to its end, or to
    its first block that is not plain, and says whether its rows were plain
    and as many as counted for it.
    """
    with path.open("rb") as fh:
        body = body_start(fh)
        if body is None:
            return None
        counted = count_rows(fh, (body + os.fstat(fh.fileno()).st_size) // 2)
    if counted is None or not counted[0]:
        return None  # not plain; an empty body is left to np.loadtxt, whose warning names it
    rows, split, first = counted
    fixed = [np.empty(rows, np.int64 if i in _INT_COLUMNS else float)
             for i in range(len(FIXED_COLUMNS))]
    spend = np.empty((rows, len(sources) - len(FIXED_COLUMNS)), order="F")
    targets = fixed + [spend[:, j] for j in range(spend.shape[1])]

    def fill(half: tuple[int, int | None, int, int]) -> bool:
        """Rows n to last of the columns, from the file's bytes from ``start``
        to ``end`` (to its end if None); whether they were plain and as many
        as counted."""
        start, end, n, last = half
        with path.open("rb") as fh:
            fh.seek(start)
            for block in blocks(fh, end):
                columns = plain_columns(block, k)
                if columns is None or n + len(columns[0]) > last:
                    return False  # not plain, or the file changed since it was counted
                for target, source in zip(targets, sources):
                    target[n:n + len(columns[0])] = columns[source]
                n += len(columns[0])
        return n == last  # else the file changed since it was counted

    halves = [(body, split, 0, first), (split, None, first, rows)]
    # both results are collected, so an error in either half reaches the caller
    plain = list(_in_pairs(fill, halves if first < rows else [(body, None, 0, rows)]))
    return [*fixed, spend] if all(plain) else None


def _read_structured(path: Path, k: int, sources: list[int]) -> list[np.ndarray]:
    """The five fixed columns and the spend matrix, from one structured ``np.loadtxt``."""
    # ids and residents parse as int64, so "1.0" is not an integer
    dtype = np.dtype([(f"f{i}", np.int64 if i in _INT_COLUMNS else float) for i in range(k)])
    table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                       skiprows=1, ndmin=1, encoding="utf-8")
    spend = np.empty((len(table), len(sources) - len(FIXED_COLUMNS)), order="F")
    for j, source in enumerate(sources[len(FIXED_COLUMNS):]):
        spend[:, j] = table[f"f{source}"]
    return [*(table[f"f{i}"] for i in sources[:len(FIXED_COLUMNS)]), spend]


def _in_pairs(work: Callable, items: Sequence) -> Iterator:
    """``work(item)`` of each of ``items``, in order, worked two at a time.

    For each pair one thread, started for it, works the second item while
    the calling thread works the first and yields its result; the thread is
    joined before the second result is yielded, or its exception raised, so
    at most two results are held.  The join is in a ``finally``, so a
    caller that raises or stops early still waits for the thread; one that
    keeps an unfinished generator keeps no thread past its one item, and the
    process can exit.  With fewer than two items, or fewer than two CPUs
    this process may run on, where a second thread only costs, it is
    ``map(work, items)`` and starts no thread.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if len(items) < 2 or (cpus or 1) < 2:
        yield from map(work, items)
        return
    for i in range(0, len(items) - 1, 2):
        second: dict = {}  # the thread's result, or the exception it raised

        def work_second() -> None:
            try:
                second["result"] = work(items[i + 1])
            except BaseException as exc:  # raised again by the calling thread
                second["error"] = exc

        thread = threading.Thread(target=work_second)
        thread.start()
        try:
            yield work(items[i])
        finally:
            thread.join()
        if "error" in second:
            raise second["error"]
        yield second["result"]
    if len(items) % 2:
        yield work(items[-1])


def _lift_heap() -> None:
    """Free an untouched array larger than any block's scratch.

    glibc malloc's mmap threshold follows the largest block freed, and its
    trim threshold is twice that: each thread's block scratch then stays in
    its heap from block to block instead of going back to the system and
    being faulted in again.  The thresholds hold for the whole process, and
    a thread started for the next pair takes over the heap the last one
    left, so a short-lived thread keeps its scratch too.  At 100k households
    a ``generate`` takes about 17K minor page faults rather than 80K or
    more, and a ``solve`` of its file about 7.7K rather than 16K.
    """
    np.empty(_SCRATCH_BYTES, np.uint8)


# -- the header line and the row reader ---------------------------------------


def _open_text(path: Path):
    # a byte that is not UTF-8 decodes to a lone surrogate, which _records reports
    return path.open(newline="", encoding="utf-8", errors="surrogateescape")


def _records(fh, path: Path) -> Iterator[list[str]]:
    """The csv records of ``fh``; one holding a byte that is not UTF-8 raises,
    naming its row as every row error does (the header is row 1)."""
    for row_number, row in enumerate(csv.reader(fh), start=1):
        text = ",".join(row)
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as e:
            byte = ord(text[e.start]) - 0xDC00
            raise MicrodataError(f"{path}: row {row_number}: byte 0x{byte:02x} is not UTF-8 text") from None
        yield row


def _header(reader, category_ids: tuple[str, ...], path: Path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise MicrodataError(f"{path}: empty file") from None
    _check_header(header, category_ids, path)
    return header


def _check_header(header: list[str], category_ids: tuple[str, ...], path: Path) -> None:
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise MicrodataError(
            f"{path}: header must start with {', '.join(FIXED_COLUMNS)}; got {header[:5]}"
        )
    got = header[len(FIXED_COLUMNS) :]
    dupes = {c for c in got if got.count(c) > 1}
    if dupes:
        raise MicrodataError(f"{path}: duplicate column(s): {sorted(dupes)}")
    missing = [c for c in category_ids if c not in got]
    extra = [c for c in got if c not in category_ids]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing category column(s) {missing}")
        if extra:
            parts.append(f"unknown column(s) {extra}")
        raise MicrodataError(f"{path}: " + "; ".join(parts))


def _rows(path: Path, schedule: Schedule) -> Iterator[Household]:
    """Each row's ``Household``, one csv record at a time, in file order.

    Raises the first error in file order, citing the row and column.  It
    holds no row it has yielded, only the set of ids seen, for the duplicate
    check, so ``read`` walks a rejected file in the memory of an accepted read.
    """
    category_ids = schedule.category_ids()
    with _open_text(path) as fh:
        reader = _records(fh, path)
        header = _header(reader, category_ids, path)
        cat_index = {cid: header.index(cid, len(FIXED_COLUMNS)) for cid in category_ids}
        seen: set[int] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MicrodataError(
                    f"{path}: row {lineno}: expected {len(header)} cells, got {len(row)}"
                )
            hid = _int_cell(row[0], "id", lineno, path)
            if hid in seen:
                raise MicrodataError(f"{path}: row {lineno}: duplicate household id {hid}")
            seen.add(hid)
            weight = _float_cell(row[1], "weight", lineno, path)
            residents = _int_cell(row[2], "residents", lineno, path)
            income = _float_cell(row[3], "income_pc", lineno, path)
            expenditures = {cid: _float_cell(row[cat_index[cid]], cid, lineno, path)
                            for cid in category_ids}
            nonmonetary = _float_cell(row[4], "nonmonetary_total", lineno, path)
            try:
                household = Household(id=hid, weight=weight, residents=residents,
                                      income_per_capita=income, expenditures=expenditures,
                                      nonmonetary_total=nonmonetary)
            except MicrodataError as e:
                raise MicrodataError(f"{path}: row {lineno}: {e}") from None
            yield household
    if not seen:
        raise MicrodataError(f"{path}: no data rows")


def _read_rows(path: Path, schedule: Schedule) -> Population:
    """Reference reader: the population of ``_rows``, which the tests compare ``read`` against."""
    return Population.from_households(_rows(path, schedule), Provenance("file", str(path)))


def _float_cell(cell: str, column: str, lineno: int, path: Path) -> float:
    try:
        if _ascii(cell):
            return float(cell.strip())
    except ValueError:
        pass
    raise MicrodataError(f"{path}: row {lineno}: column {column!r}: not a number: {cell!r}")


def _int_cell(cell: str, column: str, lineno: int, path: Path) -> int:
    try:
        value = int(cell.strip()) if _ascii(cell) else None
    except ValueError:
        value = None
    if value is None:
        raise MicrodataError(f"{path}: row {lineno}: column {column!r}: not an integer: {cell!r}")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise MicrodataError(
            f"{path}: row {lineno}: column {column!r}: outside the 64-bit integer range: {cell!r}"
        )
    return value


def _ascii(cell: str) -> bool:
    """A numeric cell is ASCII after its surrounding whitespace, without "_"
    separators: Python's float() and int() accept more, numpy's parser does not.

    The whitespace is what ``str.strip`` removes, and numpy's parser skips.
    ``float`` and ``int`` refuse four of those code points, the ASCII
    information separators U+001C to U+001F, so the cell parsers parse the
    stripped cell."""
    return cell.strip().isascii() and "_" not in cell


# -- the plain body in blocks -------------------------------------------------


def body_start(fh) -> int | None:
    """Offset just past the header line's LF, or None if that line holds a CR or no LF."""
    line = fh.readline(_HEADER_BYTES)
    return len(line) if line.endswith(b"\n") and b"\r" not in line else None


def count_rows(fh, middle: int) -> tuple[int, int, int] | None:
    """The lines left, the offset of the first line start at or after offset
    ``middle`` (the end of the file if there is none) and the lines before
    it; or None for a body seen not to be plain while counting.

    A byte above "9" (an exponent, "nan", a letter, non-ASCII text) or a blank
    last line is never plain, so such a file goes to ``np.loadtxt`` before
    any block is parsed.
    """
    ends, tail, offset, split = 0, b"", fh.tell(), None
    while chunk := fh.read(_BLOCK_BYTES):
        buf = np.frombuffer(chunk, np.uint8)
        if buf.max() > _NINE:
            return None
        if split is None and (cut := chunk.find(b"\n", max(middle - 1 - offset, 0)) + 1):
            split = offset + cut, ends + chunk.count(b"\n", 0, cut)
        ends += np.count_nonzero(buf == _LF)
        offset += len(chunk)
        tail = (tail + chunk[-2:])[-2:]
    if tail == b"\n\n":
        return None
    rows = ends + (tail[-1:] not in (b"", b"\n"))  # an unended last line
    return (rows, *(split or (offset, rows)))


def blocks(fh, end: int | None = None):
    """The seekable ``fh`` from where it stands to offset ``end`` (to its end
    if None) in blocks of whole lines, each ending in LF.

    A block is the whole lines of the next ``_BLOCK_BYTES`` (more for a
    longer line); the partial line after them is read again with the next
    block, so while a block is parsed nothing else of the file is held.  An
    unended last line gets an LF.
    """
    def read() -> bytes:
        return fh.read(_BLOCK_BYTES if end is None else min(_BLOCK_BYTES, end - fh.tell()))

    while block := read():
        while b"\n" not in block and (more := read()):
            block += more
        cut = block.rfind(b"\n") + 1
        if not cut:
            block += b"\n"
        elif cut < len(block):
            fh.seek(cut - len(block), io.SEEK_CUR)
            block = block[:cut]
        yield block


def plain_columns(block: bytes, k: int) -> list[np.ndarray] | None:
    """The k columns of a plain block, or None if the block is not plain.

    Columns in ``_INT_COLUMNS`` are the int64 significands themselves.  The
    bytes after each dot give a float cell's number of fractional digits, and
    a "-" starting a cell its sign, so "-0.0" keeps it.  Cells
    ``_decimal_values`` leaves unsettled are parsed by ``float``.

    ``np.fromstring`` is more lenient than a plain cell, so three checks
    keep a block it would misread from being plain: a cell without a digit
    ("", "-", "." or "-.", which it may read as 0) is refused before the
    parse, a parse that stops early returns fewer than rows * k values, and
    a cell of more than ``_SAFE_DIGITS`` digits (which it clamps at the
    int64 limits) is read again by ``int``, so a significand beyond 64 bits
    is not plain, nor one of more digits than ``int`` reads from text.

    Two blocks may be parsed at once, so a parse holds little: the offsets
    of every separator, dot and sign ``_layout`` checks are gone before it,
    the digit counts are int8, and the int64 significands are dropped once
    the columns the scaling needs are taken.  Its peak, the columns it
    returns included, is about three times the block's size.
    """
    layout = _layout(block, k)
    if layout is None:
        return None
    lines, digits, signs, long = layout
    try:  # a partial parse raises ValueError (numpy >= 2) or a warning made an error
        significands = np.fromstring(block.translate(_LF_TO_COMMA, b"."), np.int64, sep=",")
    except (ValueError, Warning):
        return None
    if significands.size != digits.size:
        return None  # a parse that stopped early
    for cell, start, end in long:  # the parse clamps what int64 cannot hold; int does not
        try:
            value = int(block[start:end].replace(b".", b""))
        except ValueError:
            return None  # more digits than int takes from text (sys.get_int_max_str_digits)
        if not _INT64_MIN <= value <= _INT64_MAX:
            return None  # a significand beyond 64 bits
        significands[cell] = value
    floats = [i for i in range(k) if i not in _INT_COLUMNS]
    place = np.full(k, -1)  # a column's place among the float columns
    place[floats] = range(len(floats))
    significands = significands.reshape(digits.shape)
    integers = np.take(significands, _INT_COLUMNS, axis=1)
    magnitudes = np.take(significands, floats, axis=1)
    del significands
    np.abs(magnitudes, out=magnitudes)  # |int64 min| wraps to itself, 2**63 as uint64
    values = _decimal_values(magnitudes.view(np.uint64).ravel(),
                             np.maximum(np.take(digits, floats, axis=1), 0).ravel())
    unsettled = np.flatnonzero(np.isnan(values))
    if signs.size or unsettled.size:
        column = place[signs % k]  # -1 for an integer column, whose sign is parsed
        negative = (signs // k * len(floats) + column)[column >= 0]
        values[negative] = np.copysign(values[negative], -1.0)
        for i in unsettled.tolist():
            row, j = divmod(i, len(floats))
            line = block[lines[row - 1] + 1 if row else 0:lines[row]]
            values[i] = float(line.split(b",")[floats[j]])
    values = values.reshape(len(integers), len(floats))
    return [integers[:, _INT_COLUMNS.index(i)] if i in _INT_COLUMNS else values[:, place[i]]
            for i in range(k)]


def _layout(
    block: bytes, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int]]] | None:
    """A plain block's structure, or None if the block is not plain.

    Returns the offset of each row's LF, each cell's count of fractional
    digits as (rows, k) int8 (-1 for a cell without a dot), the cells a "-"
    starts (cell i counted over all k columns) and ``_long_cells``.  A count
    past ``_SCALED_DIGITS`` is stored as ``_SCALED_DIGITS + 1``:
    ``_decimal_values`` leaves every such cell unsettled.
    """
    buf = np.frombuffer(block, np.uint8)
    if (buf > _NINE).any():
        return None  # not a plain byte
    # of the plain bytes, all but the digits sort below "0"
    marks = np.flatnonzero(buf < _ZERO)
    kinds = buf[marks]
    if ((kinds != _LF) & ((kinds < _COMMA) | (kinds > _DOT))).any():
        return None  # not a plain byte
    long = _long_cells(marks, kinds)
    if long is None:
        return None  # a cell without a digit: empty, "-", "." or "-."
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
    digits = np.full(rows * k, -1, np.int8)
    digits[dots - np.arange(len(dots))] = np.minimum(marks[dots + 1] - marks[dots] - 1,
                                                     _SCALED_DIGITS + 1)
    digits = digits.reshape(rows, k)
    if (digits[:, _INT_COLUMNS] >= 0).any():
        return None  # a dot in an integer column
    before = buf[minus - 1]  # the block ends in LF, so a "-" at 0 sees one
    if not ((before == _COMMA) | (before == _LF)).all():
        return None  # a "-" inside a cell, as in ".-5"
    # marks[~is_dot][i] is the separator ending cell i
    signs = np.searchsorted(marks[~is_dot], minus) if minus.size else minus
    return marks[lf], digits, signs, long


def _long_cells(marks: np.ndarray, kinds: np.ndarray) -> list[tuple[int, int, int]] | None:
    """(cell, start, end) of each cell of more than ``_SAFE_DIGITS`` digits,
    or None if a cell has no digit.

    ``marks`` are the offsets of a block's bytes below "0", ``kinds`` those
    bytes; cell i is ``block[start:end]``, counted over all k columns.
    """
    at = np.flatnonzero((kinds == _COMMA) | (kinds == _LF))
    digits = marks[at]
    digits -= at  # the digits before each separator: the bytes before it less the marks
    digits[1:] -= digits[:-1]  # numpy buffers the overlap: the digits of each cell
    if digits.min() < 1:
        return None
    cells = np.flatnonzero(digits > _SAFE_DIGITS)
    starts = np.where(cells > 0, marks[at[cells - 1]] + 1, 0)
    return list(zip(cells.tolist(), starts.tolist(), marks[at[cells]].tolist()))


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

    The reader runs this on two blocks at once, so each array of the scaled
    cells is written over in place or dropped once its step is done: about
    nine of them are held at a time.
    """
    hi, hi_hi, hi_lo, lo = _powers_of_ten()
    # right on the fast path; a zero is zero whatever the digits; the rest is redone
    values = significand.astype(float)
    values /= np.take(hi, digits, mode="clip")
    scaled = np.flatnonzero(
        ((significand >= 2**53) | (digits > _EXACT_DIGITS)) & (significand != 0)
    )
    if not scaled.size:
        return values
    m, d = significand[scaled], digits[scaled]
    high = (m >> 32).astype(float) * 2.0**32
    low = (m & 0xFFFFFFFF).astype(float)
    del m
    mh = high + low
    ml = high  # (high - mh) + low, in high's place
    ml -= mh
    ml += low
    del high, low
    p = np.take(hi, d, mode="clip")
    q = mh / p
    ph = q * p
    c = mh  # (((mh - ph) + ml) - (pl + q lam)) / p, in mh's place
    c -= ph
    c += ml
    del ml
    q_hi, q_lo = _split(q)
    # ((q_hi p_hi - ph) + q_hi p_lo + q_lo p_hi) + q_lo p_lo, a term at a time
    p_hi, p_lo = np.take(hi_hi, d, mode="clip"), np.take(hi_lo, d, mode="clip")
    pl = q_hi * p_hi
    pl -= ph
    del ph
    pl += q_hi * p_lo
    pl += q_lo * p_hi
    pl += q_lo * p_lo
    del q_hi, q_lo, p_hi, p_lo
    pl += q * np.take(lo, d, mode="clip")
    c -= pl
    c /= p
    del pl, p
    r = q + c
    t = q  # (q - r) + c, in q's place
    t -= r
    t += c
    del c
    up = np.spacing(r)
    # half the gap on t's side of r; below a power of two the gap is up / 2
    half = np.where(t < 0, np.spacing(r - up / 2), up) / 2
    del up
    settled = (np.abs(t) < half * (1 - 2.0**-39)) & (d <= _SCALED_DIGITS)
    values[scaled] = np.where(settled, r, np.nan)
    return values


# -- rows to text -------------------------------------------------------------
#
# A block of rows is rendered as uint32 words of 4 text bytes each: an
# integer cell takes _INT_WORDS words, a float cell _FLOAT_WORDS (the places
# before the dot, a "." word, the places after it), and each cell a
# separator word.  Places a cell leaves unused hold NUL, which one numpy
# compaction a block deletes.

_WRITE_CELLS = 1 << 15  # cells formatted at a time; bounds the block's buffers
_INT_WORDS = 5  # 20 places: any int64, its sign included
_WHOLE_WORDS, _FRACTION_WORDS = 4, 5  # 16 places before the dot, 20 after it
_FLOAT_WORDS = _WHOLE_WORDS + 1 + _FRACTION_WORDS  # 40 bytes: room for any float's repr
# above the peak of a block's render, 5.4 MB by tracemalloc at 1 << 15 float
# cells, random or of two decimals (numpy 2.4), and of a block's parse (see _lift_heap)
_SCRATCH_BYTES = 256 * _WRITE_CELLS
_CHUNK = 10**4  # the digits of one word
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MANTISSA = np.uint64(2**52 - 1)


def _row_blocks(columns: list[np.ndarray]) -> list[slice]:
    """The rows of each block: ``_WRITE_CELLS`` cells, at least one row."""
    step = max(_WRITE_CELLS // len(columns), 1)
    return [slice(start, start + step) for start in range(0, len(columns[0]), step)]


def _text_block(columns: list[np.ndarray], int_columns: tuple[int, ...], block: slice) -> bytes:
    """The plain lines of the rows ``block`` of ``columns``.

    Row i holds cell i of each column.  A column in ``int_columns`` (int64)
    is written as ``str`` writes it, any other (float64) as ``repr`` does:
    the shortest decimal that reads back as the same double, and of those
    the nearest.  The words become text by one numpy compaction that drops
    their NUL bytes.
    """
    k = len(columns)
    rows = len(columns[0][block])
    cells = {}
    for render, group in ((_int_words, [i for i in range(k) if i in int_columns]),
                          (_float_words, [i for i in range(k) if i not in int_columns])):
        if group:
            words = render(np.column_stack([columns[i][block] for i in group]).ravel())
            cells.update(zip(group, words.reshape(rows, len(group), -1).transpose(1, 0, 2)))
    comma, lf = (np.broadcast_to(_word(text), (rows, 1)) for text in (b",", b"\n"))
    line = [part for i in range(k) for part in (cells[i], comma if i < k - 1 else lf)]
    text = np.concatenate(line, axis=1).view(np.uint8)
    return text[text != 0].tobytes()


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
    digits, places, settled = _shortest(x[fixed])
    fixed, digits, places = fixed[settled], digits[settled], places[settled]
    # repr's decimal as whole + fraction / 10**places; past 18 places the
    # digits (<= 10**17) are all fraction
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
    """``repr``'s decimal of each x in [1e-4, 1e16) that is no power of two.

    Returns int64 (digits, places) and bool settled: where settled,
    digits * 10**-places is the decimal ``repr`` writes, the shortest that
    reads back as x and of those the nearest to x, as 17 digits (digits in
    [10**16, 10**17]) with 1 to 20 places after the dot.  Left unsettled are
    the cells that would need a tie broken or a decimal read that
    ``_decimal_values`` leaves unsettled.

    1. With d chosen so that x 10**d lies in [1e16, 1e17), ``_scaled`` gives
       it exactly as m + f: m is the nearest 17-digit integer, and as half an
       ulp of x is more than 0.55 in these units, m reads back as x.
    2. With 10**e <= x < 10**(e+1), half an ulp of x is below
       1.2 10**(e-15), and half the spacing of 15-digit decimals near x is
       5 10**(e-15): a decimal of at most 15 significant digits that reads
       back as x is the 15-digit rounding of x, trailing zeros added
       (``_fraction`` drops them).
       Failing that, the shortest decimal that reads back has 16 digits,
       and away from a power of two x's rounding interval is symmetric, so
       the nearest of those, the 16-digit rounding, reads back if any does;
       failing that too, it is m.  The 15-digit rounding reads back only if
       the 16-digit one does, so it is tried only there.  A rounding (an
       exact half of the dropped part rounds as f's sign says) whose dropped
       part is exactly half with f = 0 is a tie: if it reads back, so does
       its twin, and ``repr`` breaks the tie.
    """
    d = 16 - np.floor(np.log10(x)).astype(np.int64)
    m, f = _scaled(x, d)
    off = np.flatnonzero((m < 10**16) | (m >= 10**17))  # log10 is off by one next to a power of ten
    d[off] += np.where(m[off] < 10**16, 1, -1)
    m[off], f[off] = _scaled(x[off], d[off])
    settled = (m >= 10**16) & (m < 10**17)
    digits, shortened = m.copy(), np.zeros(len(x), bool)
    active = np.flatnonzero(settled)  # the cells whose last rounding read back
    for dropped_places in (1, 2):  # the 16-digit rounding, then the 15-digit one
        unit = 10**dropped_places
        ma, fa = m[active], f[active]
        candidate = ma // unit
        dropped = ma - candidate * unit
        half = dropped == unit // 2
        candidate += (dropped > unit // 2) | (half & (fa > 0))
        places = d[active] - dropped_places  # -1 only at 15 digits on [1e15, 1e16)
        value = _decimal_values((candidate * _POW10[np.maximum(-places, 0)]).view(np.uint64),
                                np.maximum(places, 0))
        reads = value == x[active]
        tie = half & (fa == 0)
        settled[active[np.isnan(value) | (tie & reads)]] = False
        keep = reads & ~tie
        active = active[keep]
        digits[active], shortened[active] = candidate[keep] * unit, True
    settled &= shortened | (np.abs(f) != 0.5)  # a tie between two 17-digit decimals
    return digits, d, settled


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
