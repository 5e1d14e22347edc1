"""Household records, strict CSV ingestion, and a synthetic survey generator.

The CSV layout is fixed: ``id, weight, residents, income_pc,
nonmonetary_total`` followed by one monetary-expenditure column per schedule
category id.  UTF-8, "." decimal separator; numbers are plain ASCII decimal
or scientific notation, ids fit in 64 bits, "#" starts no comment and blank
lines are skipped.  Ingestion is strict: unknown or missing columns,
non-numeric cells, duplicate ids, invariant violations and bytes that are
not UTF-8 are load errors that cite the offending row.

A body in the layout ``write_population`` writes is read in blocks of whole
lines (``ivasim.csvbody``: integer significands scaled exactly) straight into
the columns ``Population`` takes, counted and allocated once; any other body
is parsed whole by one structured ``np.loadtxt``.  Only when the file is
rejected does a row-at-a-time reader re-read it as ``Household`` records
(stacked by ``Population.from_households``) to name the first bad row.
``write_population`` writes that layout in blocks of rows through the same
module, each float spelled as ``repr`` spells it.

The synthetic generator stands in for expenditure-survey microdata, which
cannot be redistributed.  It draws per-capita expenditure log-normally and
tilts category budget shares along configured Engel gradients so that
staple-food shares fall with total expenditure while durable/excise shares
rise.  The gradients are illustrative fixture parameters, not survey
estimates.  Generation is a pure function of (seed, n, schedule fingerprint).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .exactsum import exact_sum, row_sums
from .schedule import Schedule, TreatmentKind

FIXED_COLUMNS = ("id", "weight", "residents", "income_pc", "nonmonetary_total")


class MicrodataError(ValueError):
    """Raised on ingestion or generation failures."""


@dataclass(frozen=True)
class Household:
    """One survey household at monthly frequency."""

    id: int
    weight: float  # survey expansion factor
    residents: int
    income_per_capita: float
    expenditures: Mapping[str, float]  # category id -> monetary expenditure
    nonmonetary_total: float

    def __post_init__(self) -> None:
        if self.weight <= 0 or not math.isfinite(self.weight):
            raise MicrodataError(f"household {self.id}: weight must be > 0, got {self.weight}")
        if self.residents < 1:
            raise MicrodataError(f"household {self.id}: residents must be >= 1, got {self.residents}")
        if self.income_per_capita < 0 or not math.isfinite(self.income_per_capita):
            raise MicrodataError(
                f"household {self.id}: income_pc must be >= 0, got {self.income_per_capita}"
            )
        if self.nonmonetary_total < 0 or not math.isfinite(self.nonmonetary_total):
            raise MicrodataError(
                f"household {self.id}: nonmonetary_total must be >= 0, got {self.nonmonetary_total}"
            )
        for cid, v in self.expenditures.items():
            if v < 0 or not math.isfinite(v):
                raise MicrodataError(f"household {self.id}: expenditure {cid!r} must be >= 0, got {v}")

    def monetary_total(self) -> float:
        return math.fsum(self.expenditures.values())

    def total_expenditure(self) -> float:
        """Monetary plus non-monetary consumption, the quintile ranking base."""
        return self.monetary_total() + self.nonmonetary_total

    def per_capita_total(self) -> float:
        return self.total_expenditure() / self.residents


@dataclass(frozen=True)
class Provenance:
    kind: str  # "file" | "synthetic"
    source: str  # path, or "seed:n"


class Population:
    """A household population stored as numpy columns, in ascending id order.

    ``ids`` and ``residents`` are int64; ``weight``, ``income_per_capita`` and
    ``nonmonetary_total`` are float64; ``spend`` is the n x k monetary
    spending matrix (Fortran order), columns in ``category_ids`` order.  The
    arrays are read-only.  Every row satisfies the ``Household`` invariants
    and ids are unique; both are checked in input order, so an error names
    the first bad row, before the rows are sorted by id.  The invariants are
    folded into one n-element mask a column at a time, so the check needs no
    n x k temporary.  ``from_households`` stacks ``Household`` records into
    these columns.  ``households`` and ``row`` give the rows as ``Household``
    views built from the arrays; the pipeline reads the arrays.  ``memo``
    keeps reductions derived from the arrays (column indexes, taxable-base
    totals, denominators), keyed by what they depend on.
    """

    def __init__(
        self,
        provenance: Provenance,
        category_ids: tuple[str, ...],
        ids: np.ndarray,
        weight: np.ndarray,
        residents: np.ndarray,
        income_per_capita: np.ndarray,
        nonmonetary_total: np.ndarray,
        spend: np.ndarray,
    ) -> None:
        self.provenance = provenance
        self.category_ids = tuple(category_ids)
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        self.weight = np.ascontiguousarray(weight, dtype=float)
        self.residents = np.ascontiguousarray(residents, dtype=np.int64)
        self.income_per_capita = np.ascontiguousarray(income_per_capita, dtype=float)
        self.nonmonetary_total = np.ascontiguousarray(nonmonetary_total, dtype=float)
        self.spend = np.asfortranarray(spend, dtype=float)
        if len(self.ids) == 0:
            raise MicrodataError("population must contain at least one household")
        order = _id_order(self.ids)
        self._check_rows()
        if order is not None:
            for name in _VECTORS:
                setattr(self, name, getattr(self, name)[order])
            # gathered a column at a time: row indexing of the whole matrix would
            # build a C-order copy before the F-order one
            spend = np.empty_like(self.spend, order="F")
            for j in range(spend.shape[1]):
                spend[:, j] = self.spend[:, j][order]
            self.spend = spend
        for name in _VECTORS + ("spend",):
            _read_only(getattr(self, name))
        self.memo: dict = {}

    @classmethod
    def from_households(cls, households: Iterable[Household], provenance: Provenance) -> Population:
        """The population of ``Household`` records, which must share one category set."""
        households = tuple(households)
        # an empty population reaches cls(), which refuses it
        category_ids = tuple(households[0].expenditures) if households else ()
        expected = set(category_ids)
        for h in households:
            mismatch = _category_mismatch(expected, set(h.expenditures))
            if mismatch:
                raise MicrodataError(f"household {h.id}: {mismatch}")
        spend = np.empty((len(households), len(category_ids)), order="F")
        for j, cid in enumerate(category_ids):
            spend[:, j] = [h.expenditures[cid] for h in households]
        try:
            ids = np.array([h.id for h in households], dtype=np.int64)
            residents = np.array([h.residents for h in households], dtype=np.int64)
        except OverflowError:
            raise MicrodataError("household ids and residents must fit in 64 bits") from None
        return cls(
            provenance, category_ids, ids,
            np.array([h.weight for h in households], dtype=float),
            residents,
            np.array([h.income_per_capita for h in households], dtype=float),
            np.array([h.nonmonetary_total for h in households], dtype=float),
            spend,
        )

    def _check_rows(self) -> None:
        """Raise the ``Household`` message of the first row that breaks an invariant."""
        ok = _positive(self.weight, strict=True) & (self.residents >= 1)
        for column in (self.income_per_capita, self.nonmonetary_total, *self.spend.T):
            ok &= _positive(column)
        if not ok.all():
            self.row(int(np.argmin(ok)))  # Household.__post_init__ names the invariant
            raise AssertionError("row check disagrees with Household")

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def households(self) -> tuple[Household, ...]:
        """Every household as a ``Household`` row view, in ascending id order."""
        cids = self.category_ids
        return tuple(
            Household(hid, w, r, inc, dict(zip(cids, cells)), nm)
            for hid, w, r, inc, nm, cells in zip(
                self.ids.tolist(), self.weight.tolist(), self.residents.tolist(),
                self.income_per_capita.tolist(), self.nonmonetary_total.tolist(),
                self.spend.tolist(),
            )
        )

    def row(self, i: int) -> Household:
        """The household at position ``i`` as a ``Household`` row view."""
        return Household(
            int(self.ids[i]), float(self.weight[i]), int(self.residents[i]),
            float(self.income_per_capita[i]),
            dict(zip(self.category_ids, self.spend[i].tolist())),
            float(self.nonmonetary_total[i]),
        )

    @cached_property
    def monetary(self) -> np.ndarray:
        """``Household.monetary_total`` of every household."""
        return row_sums(self.spend)

    def total_weight(self) -> float:
        return exact_sum(self.weight)

    def validate_against(self, schedule: Schedule) -> None:
        """Every household must carry exactly the schedule's categories."""
        mismatch = _category_mismatch(set(schedule.category_ids()), set(self.category_ids))
        if mismatch:
            raise MicrodataError(f"household {int(self.ids[0])}: {mismatch}")

    def column_index(self, schedule: Schedule) -> np.ndarray:
        """The ``spend`` column of each schedule category, in schedule order.

        The category set is validated once per category order.
        """
        key = ("column_index", schedule.category_ids())
        if key not in self.memo:
            self.validate_against(schedule)
            self.memo[key] = _read_only(
                np.array([self.category_ids.index(cid) for cid in key[1]], dtype=np.intp)
            )
        return self.memo[key]


_INT_COLUMNS = (0, 2)  # id and residents, in FIXED_COLUMNS
_VECTORS = ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _positive(a: np.ndarray, strict: bool = False) -> np.ndarray:
    """Finite and >= 0 (> 0 if ``strict``); NaN fails both comparisons."""
    return ((a > 0) if strict else (a >= 0)) & (a < np.inf)


def _id_order(ids: np.ndarray) -> np.ndarray | None:
    """Positions in ascending id order, or None if ``ids`` already ascend.

    Raises on a repeated id, naming the first repeat in input order.
    """
    if np.all(ids[1:] > ids[:-1]):
        return None
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        raise MicrodataError(f"duplicate household id {int(ids[repeats.min()])}")
    return order


def _category_mismatch(expected: set[str], got: set[str]) -> str:
    """'' if the sets agree, else what is missing from and extra in ``got``."""
    parts = []
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    if missing:
        parts.append(f"missing categories {missing}")
    if extra:
        parts.append(f"unknown categories {extra}")
    return "; ".join(parts)


# -- CSV ingestion -----------------------------------------------------------


def load_population(path: str | Path, schedule: Schedule) -> Population:
    """Read a household CSV validated against the schedule's category set.

    The body is parsed into columns (``_read_columns``) and checked on the
    arrays.  On any rejection the row reader re-reads the file to name the
    first bad row and cell.
    """
    path = Path(path)
    if not path.exists():
        raise MicrodataError(f"household file not found: {path}")
    category_ids = schedule.category_ids()
    with _open_text(path) as fh:
        header = _header(_records(fh, path), category_ids, path)
    try:
        return _read_columns(path, header, category_ids)
    except (ValueError, Warning) as exc:
        _read_rows(path, schedule)  # raises the first error in file order
        raise MicrodataError(f"{path}: {exc}") from None


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
    """The five fixed columns and the spend matrix, or None if the body is not plain.

    A first pass counts the lines; each block then fills its rows of columns
    allocated once, so the file is never held whole.  At the first block
    that is not plain the partial columns are dropped.
    """
    from . import csvbody  # imported here: runs on a synthetic population never load it

    with path.open("rb") as fh:
        body = csvbody.body_start(fh)
        rows = None if body is None else csvbody.count_rows(fh)
        if rows is None:
            return None
        fixed = [np.empty(rows, np.int64 if i in _INT_COLUMNS else float)
                 for i in range(len(FIXED_COLUMNS))]
        spend = np.empty((rows, len(sources) - len(FIXED_COLUMNS)), order="F")
        targets = fixed + [spend[:, j] for j in range(spend.shape[1])]
        fh.seek(body)
        n = 0
        for block in csvbody.blocks(fh):
            columns = csvbody.plain_columns(block, k, _INT_COLUMNS)
            if columns is None:
                return None
            end = n + len(columns[0])
            if end > rows:  # the file grew since it was counted
                return None
            for target, source in zip(targets, sources):
                target[n:end] = columns[source]
            n = end
    # an empty body is left to np.loadtxt, whose warning names it
    return [*fixed, spend] if 0 < n == rows else None


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


def _read_rows(path: Path, schedule: Schedule) -> Population:
    """Reference reader: one csv record and one ``Household`` at a time.

    ``load_population`` runs it only to explain a rejection: it raises the
    first error in file order, citing the row and column.
    """
    category_ids = schedule.category_ids()
    with _open_text(path) as fh:
        reader = _records(fh, path)
        header = _header(reader, category_ids, path)
        cat_index = {cid: header.index(cid, len(FIXED_COLUMNS)) for cid in category_ids}
        households: list[Household] = []
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
            try:
                households.append(
                    Household(
                        id=hid,
                        weight=_float_cell(row[1], "weight", lineno, path),
                        residents=_int_cell(row[2], "residents", lineno, path),
                        income_per_capita=_float_cell(row[3], "income_pc", lineno, path),
                        expenditures={
                            cid: _float_cell(row[cat_index[cid]], cid, lineno, path)
                            for cid in category_ids
                        },
                        nonmonetary_total=_float_cell(row[4], "nonmonetary_total", lineno, path),
                    )
                )
            except MicrodataError as e:
                if f"row {lineno}" in str(e):
                    raise
                raise MicrodataError(f"{path}: row {lineno}: {e}") from None
    if not households:
        raise MicrodataError(f"{path}: no data rows")
    return Population.from_households(households, Provenance("file", str(path)))


def write_population(population: Population, path: str | Path, schedule: Schedule) -> None:
    """Emit the documented CSV layout; numeric fields round-trip exactly."""
    from . import csvbody  # imported here: runs on a synthetic population never load it

    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow([*FIXED_COLUMNS, *schedule.category_ids()])
    columns = [population.ids, population.weight, population.residents,
               population.income_per_capita, population.nonmonetary_total]
    columns += [population.spend[:, j] for j in population.column_index(schedule)]
    with Path(path).open("wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        # each float as repr writes it: the shortest decimal that reads back exactly
        fh.writelines(csvbody.text_blocks(columns, _INT_COLUMNS))


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


# A numeric cell is plain ASCII after its surrounding whitespace, without "_"
# separators: Python's float() and int() accept more, numpy's parser does not.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _float_cell(cell: str, column: str, lineno: int, path: Path) -> float:
    try:
        if _plain(cell):
            return float(cell)
    except ValueError:
        pass
    raise MicrodataError(f"{path}: row {lineno}: column {column!r}: not a number: {cell!r}")


def _int_cell(cell: str, column: str, lineno: int, path: Path) -> int:
    try:
        value = int(cell) if _plain(cell) else None
    except ValueError:
        value = None
    if value is None:
        raise MicrodataError(f"{path}: row {lineno}: column {column!r}: not an integer: {cell!r}")
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise MicrodataError(
            f"{path}: row {lineno}: column {column!r}: outside the 64-bit integer range: {cell!r}"
        )
    return value


def _plain(cell: str) -> bool:
    return cell.strip().isascii() and "_" not in cell


# -- synthetic generation ----------------------------------------------------

# Illustrative Engel parameters per fixture category: (budget-share weight,
# gradient of log share in standardized log expenditure).  Negative gradients
# shrink with affluence (staples), positive ones grow (services, durables,
# excise goods).
_SHARE_PARAMS: dict[str, tuple[float, float]] = {
    "cesta_basica": (0.075, -0.45),
    "outros_aliquota_zero": (0.052, -0.30),
    "referencia_geral": (0.360, -0.05),
    "utilidades_residenciais": (0.055, -0.25),
    "telecomunicacoes": (0.045, -0.05),
    "reduzida_40": (0.138, 0.30),
    "reduzida_70": (0.008, 0.90),
    "aluguel_imovel": (0.120, 0.05),  # renters only; ~30% participation
    "gasolina": (0.040, 0.15),
    "refino_etanol": (0.015, 0.10),
    "servicos_financeiros": (0.030, 0.35),
    "bares_restaurantes": (0.030, 0.30),
    "hotelaria_turismo": (0.010, 0.60),
    "transporte_intermunicipal": (0.011, 0.05),
    "bebidas_alcoolicas": (0.025, 0.40),
    "produtos_fumigenos": (0.020, 0.20),
    "veiculos_embarcacoes": (0.035, 0.60),
    "bebidas_acucaradas": (0.010, 0.10),
    "apostas_loterias": (0.007, 0.50),
    "servicos_domesticos": (0.010, 0.70),
}

# Fallback gradients by treatment kind for categories the table above does
# not name (custom schedules).
_KIND_GRADIENT = {
    TreatmentKind.ZERO_RATE: -0.35,
    TreatmentKind.REFERENCE_RATE: -0.05,
    TreatmentKind.REDUCED_FRACTION: 0.30,
    TreatmentKind.RENT_REGIME: 0.05,
    TreatmentKind.SPECIFIC_REGIME: 0.20,
    TreatmentKind.SELECTIVE: 0.40,
    TreatmentKind.UNTAXED: 0.30,
}

_MEAN_LOG_PC_EXPENDITURE = math.log(600.0)
_SD_LOG_PC_EXPENDITURE = 0.75
_RENTER_SHARE = 0.30


def generate_synthetic(seed: int, n: int, schedule: Schedule) -> Population:
    """Draw a deterministic synthetic population of ``n`` households."""
    if n < 1:
        raise MicrodataError(f"synthetic population size must be >= 1, got {n}")
    # fold the schedule fingerprint into the stream so different policies get
    # independent draws
    rng = np.random.default_rng([int(seed), int(schedule.fingerprint(), 16)])

    residents = np.minimum(1 + rng.poisson(1.9, size=n), 12)
    z = rng.standard_normal(n)
    pc_expenditure = np.exp(_MEAN_LOG_PC_EXPENDITURE + _SD_LOG_PC_EXPENDITURE * z)
    total = pc_expenditure * residents
    nonmonetary_share = rng.beta(2.0, 8.0, size=n)
    monetary = total * (1.0 - nonmonetary_share)
    # income tracks expenditure with noise; some households dissave
    income_pc = pc_expenditure * np.exp(rng.normal(0.25, 0.35, size=n))
    weights = rng.uniform(50.0, 150.0, size=n)

    categories = schedule.categories
    k = len(categories)
    spending = np.empty((n, k), order="F")
    for j, c in enumerate(categories):
        base, gradient = _SHARE_PARAMS.get(
            c.id, (1.0 / k, _KIND_GRADIENT[c.treatment.kind])
        )
        noise = rng.normal(0.0, 0.25, size=n)
        spending[:, j] = base * np.exp(gradient * z + noise)
        if c.treatment.kind is TreatmentKind.RENT_REGIME:
            spending[:, j] *= rng.random(n) < _RENTER_SHARE
    # shares, then spending, in place: the draws' matrix is the returned one
    spending /= _row_totals(spending)[:, None]
    spending *= monetary[:, None]

    return Population(
        Provenance("synthetic", f"{seed}:{n}"), schedule.category_ids(),
        np.arange(1, n + 1), weights, residents, income_pc, total - monetary, spending,
    )


_TOTAL_ROWS = 2048  # rows summed at a time by _row_totals; bounds its C-order copy


def _row_totals(matrix: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(matrix).sum(axis=1)``, bit for bit, in any layout.

    Each block of ``_TOTAL_ROWS`` rows is copied to C order and summed along
    its contiguous rows, as numpy sums the rows of a C-order matrix: the
    rounding of a row sum depends on that order, and the synthetic shares
    keep the bits they had when the draws were a C-order matrix.
    """
    out = np.empty(len(matrix))
    for start in range(0, len(matrix), _TOTAL_ROWS):
        block = np.ascontiguousarray(matrix[start:start + _TOTAL_ROWS])
        out[start:start + len(block)] = block.sum(axis=1)
    return out
