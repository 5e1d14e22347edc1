"""Household records, the population's columns, and a synthetic survey generator.

``load_population`` and ``write_population`` read and write a households
CSV; the module that does it is imported only when one of them runs.

The synthetic generator stands in for expenditure-survey microdata, which
cannot be redistributed.  It draws per-capita expenditure log-normally and
tilts category budget shares along configured Engel gradients so that
staple-food shares fall with total expenditure while durable/excise shares
rise.  The gradients are illustrative fixture parameters, not survey
estimates.  Generation is a pure function of (seed, n, schedule fingerprint).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .exactsum import ROW_BLOCK, exact_sum, row_sums
from .schedule import Schedule, TreatmentKind

FIXED_COLUMNS = ("id", "weight", "residents", "income_pc", "nonmonetary_total")
MIN_WEIGHT = sys.float_info.min  # the smallest normal double


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
        # a subnormal weight would hold a weighted product to a few digits
        if not MIN_WEIGHT <= self.weight < math.inf:
            raise MicrodataError(f"household {self.id}: weight must be a normal double > 0 "
                                 f"(at least {MIN_WEIGHT!r}), got {self.weight}")
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
        ok = _finite_from(self.weight, MIN_WEIGHT) & (self.residents >= 1)
        for column in (self.income_per_capita, self.nonmonetary_total, *self.spend.T):
            ok &= _finite_from(column, 0.0)
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
        """Every household's monetary spending: the exact sum of its ``spend`` row."""
        try:
            return row_sums(self.spend)
        except OverflowError:
            raise MicrodataError("a household's monetary spending overflows a double") from None

    def total_weight(self) -> float:
        """The exact sum of the weights; ``MicrodataError`` if it passes the largest double."""
        try:
            return exact_sum(self.weight)
        except OverflowError:
            raise MicrodataError("the total weight overflows a double") from None

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


_VECTORS = ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _finite_from(a: np.ndarray, low: float) -> np.ndarray:
    """Finite and >= ``low``; NaN fails both comparisons."""
    return (a >= low) & (a < np.inf)


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


# -- the households CSV ------------------------------------------------------


def load_population(path: str | Path, schedule: Schedule) -> Population:
    """Read a household CSV validated against the schedule's category set."""
    from . import csvbody  # imported here: runs on a synthetic population never load it

    return csvbody.read(path, schedule)


def write_population(population: Population, path: str | Path, schedule: Schedule) -> None:
    """Emit the documented CSV layout; numeric fields round-trip exactly."""
    from . import csvbody  # imported here: runs on a synthetic population never load it

    csvbody.write(population, path, schedule)


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
    monetary = total * (1.0 - rng.beta(2.0, 8.0, size=n))
    nonmonetary = total - monetary
    del total
    # income tracks expenditure with noise; some households dissave
    income_pc = pc_expenditure * np.exp(rng.normal(0.25, 0.35, size=n))
    del pc_expenditure
    weights = rng.uniform(50.0, 150.0, size=n)

    categories = schedule.categories
    k = len(categories)
    spending = np.empty((n, k), order="F")
    for j, c in enumerate(categories):
        base, gradient = _SHARE_PARAMS.get(
            c.id, (1.0 / k, _KIND_GRADIENT[c.treatment.kind])
        )
        noise = rng.normal(0.0, 0.25, size=n)
        # base * exp(gradient * z + noise), formed in the returned column: the
        # loop holds no n-length scratch but z, monetary and the noise
        column = spending[:, j]
        np.multiply(gradient, z, out=column)
        column += noise
        del noise
        np.exp(column, out=column)  # a contiguous column: the same exp loop, and bits, as out of place
        column *= base
        if c.treatment.kind is TreatmentKind.RENT_REGIME:
            column *= rng.random(n) < _RENTER_SHARE
    del z
    # shares, then spending, in place: the draws' matrix is the returned one
    spending /= _row_totals(spending)[:, None]
    spending *= monetary[:, None]

    return Population(
        Provenance("synthetic", f"{seed}:{n}"), schedule.category_ids(),
        np.arange(1, n + 1), weights, residents, income_pc, nonmonetary, spending,
    )


def _row_totals(matrix: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(matrix).sum(axis=1)``, bit for bit, in any layout.

    Each block of ``ROW_BLOCK`` rows is copied to C order and summed along its
    contiguous rows, as numpy sums the rows of a C-order matrix: the
    rounding of a row sum depends on that order, and the synthetic shares
    keep the bits they had when the draws were a C-order matrix.
    """
    out = np.empty(len(matrix))
    for start in range(0, len(matrix), ROW_BLOCK):
        block = np.ascontiguousarray(matrix[start:start + ROW_BLOCK])
        out[start:start + len(block)] = block.sum(axis=1)
    return out
