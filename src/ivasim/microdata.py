"""Household records, strict CSV ingestion, and a synthetic survey generator.

The CSV layout is fixed: ``id, weight, residents, income_pc,
nonmonetary_total`` followed by one monetary-expenditure column per schedule
category id.  UTF-8, "." decimal separator.  Ingestion is strict: unknown or
missing columns, non-numeric cells, duplicate ids and invariant violations
are load errors that cite the offending row.

The synthetic generator stands in for expenditure-survey microdata, which
cannot be redistributed.  It draws per-capita expenditure log-normally and
tilts category budget shares along configured Engel gradients so that
staple-food shares fall with total expenditure while durable/excise shares
rise.  The gradients are illustrative fixture parameters, not survey
estimates.  Generation is a pure function of (seed, n, schedule fingerprint).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

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


class Columns:
    """Id-sorted numpy columns of a population, spending in one category order.

    ``spend`` is n x k and filled one column at a time, so building it never
    holds a second n x k copy.  ``memo`` keeps reductions derived from these
    columns (category totals, the denominator), keyed by the schedule
    parameters they depend on.  Like the households they come from, the
    columns are read-only once built.
    """

    def __init__(self, households: Iterable[Household], category_ids: tuple[str, ...]) -> None:
        self.households = tuple(sorted(households, key=lambda h: h.id))
        n = len(self.households)
        self.weight = self._column(lambda h: h.weight)
        self.income_per_capita = self._column(lambda h: h.income_per_capita)
        self.spend = np.empty((n, len(category_ids)), order="F")
        for j, cid in enumerate(category_ids):
            self.spend[:, j] = self._column(lambda h: h.expenditures[cid])
        self.memo: dict = {}

    def _column(self, value) -> np.ndarray:
        return np.fromiter(map(value, self.households), float, len(self.households))

    @cached_property
    def residents(self) -> np.ndarray:
        return self._column(lambda h: h.residents)

    @cached_property
    def monetary(self) -> np.ndarray:
        """``Household.monetary_total`` of every household."""
        return self._column(Household.monetary_total)

    @cached_property
    def total(self) -> np.ndarray:
        """``Household.total_expenditure`` of every household."""
        return self.monetary + self._column(lambda h: h.nonmonetary_total)


@dataclass(frozen=True)
class Provenance:
    kind: str  # "file" | "synthetic"
    source: str  # path, or "seed:n"


@dataclass(frozen=True)
class Population:
    households: tuple[Household, ...]
    provenance: Provenance
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "households", tuple(self.households))
        if not self.households:
            raise MicrodataError("population must contain at least one household")
        seen: set[int] = set()
        for h in self.households:
            if h.id in seen:
                raise MicrodataError(f"duplicate household id {h.id}")
            seen.add(h.id)

    def __len__(self) -> int:
        return len(self.households)

    def total_weight(self) -> float:
        return math.fsum(h.weight for h in self.households)

    def validate_against(self, schedule: Schedule) -> None:
        """Every household must carry exactly the schedule's categories."""
        expected = set(schedule.category_ids())
        for h in self.households:
            got = set(h.expenditures)
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                parts = []
                if missing:
                    parts.append(f"missing categories {missing}")
                if extra:
                    parts.append(f"unknown categories {extra}")
                raise MicrodataError(f"household {h.id}: " + "; ".join(parts))

    def columns(self, schedule: Schedule) -> Columns:
        """Columns in the schedule's category order; validated and built once per order."""
        key = schedule.category_ids()
        if key not in self._columns:
            self.validate_against(schedule)
            self._columns[key] = Columns(self.households, key)
        return self._columns[key]


# -- CSV ingestion -----------------------------------------------------------


def load_population(path: str | Path, schedule: Schedule) -> Population:
    """Read a household CSV validated against the schedule's category set."""
    path = Path(path)
    if not path.exists():
        raise MicrodataError(f"household file not found: {path}")
    category_ids = schedule.category_ids()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MicrodataError(f"{path}: empty file") from None
        _check_header(header, category_ids, path)
        cat_index = {cid: header.index(cid) for cid in category_ids}
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
    return Population(tuple(households), Provenance("file", str(path)))


def write_population(population: Population, path: str | Path, schedule: Schedule) -> None:
    """Emit the documented CSV layout; numeric fields round-trip exactly."""
    population.validate_against(schedule)
    category_ids = schedule.category_ids()
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(FIXED_COLUMNS) + list(category_ids))
        for h in population.households:
            writer.writerow(
                [
                    h.id,
                    _fmt(h.weight),
                    h.residents,
                    _fmt(h.income_per_capita),
                    _fmt(h.nonmonetary_total),
                ]
                + [_fmt(h.expenditures[cid]) for cid in category_ids]
            )


def _fmt(x: float) -> str:
    # repr of a float is the shortest string that round-trips exactly
    return repr(float(x))


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


def _float_cell(cell: str, column: str, lineno: int, path: Path) -> float:
    try:
        return float(cell)
    except ValueError:
        raise MicrodataError(
            f"{path}: row {lineno}: column {column!r}: not a number: {cell!r}"
        ) from None


def _int_cell(cell: str, column: str, lineno: int, path: Path) -> int:
    try:
        return int(cell)
    except ValueError:
        raise MicrodataError(
            f"{path}: row {lineno}: column {column!r}: not an integer: {cell!r}"
        ) from None


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
    raw = np.empty((n, k))
    for j, c in enumerate(categories):
        base, gradient = _SHARE_PARAMS.get(
            c.id, (1.0 / k, _KIND_GRADIENT[c.treatment.kind])
        )
        noise = rng.normal(0.0, 0.25, size=n)
        raw[:, j] = base * np.exp(gradient * z + noise)
        if c.treatment.kind is TreatmentKind.RENT_REGIME:
            raw[:, j] *= rng.random(n) < _RENTER_SHARE
    shares = raw / raw.sum(axis=1, keepdims=True)
    spending = shares * monetary[:, None]

    ids = tuple(c.id for c in categories)
    households = tuple(
        Household(
            id=i + 1,
            weight=float(weights[i]),
            residents=int(residents[i]),
            income_per_capita=float(income_pc[i]),
            expenditures={cid: float(spending[i, j]) for j, cid in enumerate(ids)},
            nonmonetary_total=float(total[i] - monetary[i]),
        )
        for i in range(n)
    )
    return Population(households, Provenance("synthetic", f"{seed}:{n}"))
