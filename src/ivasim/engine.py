"""Per-household tax, cashback, and transfer computation; weighted aggregation.

Expenditures are treated as tax-inclusive and fixed across scenarios (no
behavioral response or price re-equilibration), so every tax is expenditure
times an inside rate.  The rent-regime base reducer applies per household per
month against the rent category only; unused reducer is not refundable
against other spending.  Cashback eligibility is a hard threshold on income
per capita with no phase-out.

The per-household functions (``household_tax``, ``household_cashback``,
``baseline_tax``, ``aggregate``) are the reference semantics.  The columnar
path below computes the same quantities from the population's numpy
columns: per-household arrays as left folds over the categories in
ascending category id, ((0 + b_1*v_1) + b_2*v_2) + ..., a block of rows at
a time and without BLAS, so their bits depend on neither the BLAS build nor
the order of the population's columns or the schedule's categories
(``category_folds``: gross tax, cashback, baseline tax and, in ``analysis``,
table 1's group spending all follow this one rule); and
population totals from per-category sums, because tax is linear in spending
and every household faces the same rate vector.  Vectors over categories
are in schedule order; ``Population.column_index`` maps them onto ``spend``.

Each taxable-base column is reduced once per population: ``_base_totals``
and ``denominator_expenditure`` memoise their sums in ``Population.memo``,
keyed by the ``spend`` column positions ``Population.column_index`` gives,
so a schedule whose categories are permuted reuses them.  A build that
reduces a column forms one eligible-weight vector for every E_j it sums.

Every rate comes from ``schedule.inside_rate_function``, the one per-kind
rate rule: ``rate_vector`` evaluates it through ``effective_inside_rate``,
which range-checks each rate, and ``IncidenceCalculator`` evaluates the same
functions on plain floats, built once per calculator.

Every weighted total is the correctly rounded exact sum of per-household or
per-category products, so it is exact for its addends and therefore
independent of household order and of how a survey weight is split across
duplicate rows.  ``ivasim.exactsum`` computes it in a few numpy passes by
error-free extraction and returns what ``math.fsum`` returns, bit for bit.
A total of products >= 0 past the largest double is inf, without a numpy
warning; ``IncidenceCalculator`` refuses such a total, naming it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .exactsum import chunk_parts, row_sums
from .microdata import Household, MicrodataError, Population
from .rates import Rate
from .schedule import Schedule, TreatmentKind, effective_inside_rate, inside_rate_function


@dataclass(frozen=True)
class HouseholdIncidence:
    """Monthly tax position of one household under one policy state."""

    household_id: int
    gross_tax: float
    cashback: float
    transfer: float
    per_category_tax: Mapping[str, float]

    @property
    def net_tax(self) -> float:
        return self.gross_tax - self.cashback - self.transfer


@dataclass(frozen=True)
class AggregateIncidence:
    """Weight-expanded totals over a population."""

    total_gross: float
    total_cashback: float
    total_transfer: float
    total_net: float
    denominator_expenditure: float

    @property
    def net_burden(self) -> float:
        return self.total_net / self.denominator_expenditure


def taxable_base(household: Household, schedule: Schedule) -> dict[str, float]:
    """Per-category base: expenditure, less the rent regime's reducer."""
    out: dict[str, float] = {}
    for c in schedule.categories:
        spend = household.expenditures[c.id]
        if c.treatment.kind is TreatmentKind.RENT_REGIME:
            spend = max(0.0, spend - c.treatment.reducer)
        out[c.id] = spend
    return out


def _incidence(household: Household, per_cat: dict[str, float]) -> HouseholdIncidence:
    """The household's taxes by category, their fsum as its gross tax, no refund or transfer."""
    return HouseholdIncidence(household.id, math.fsum(per_cat.values()), 0.0, 0.0,
                              MappingProxyType(per_cat))


def household_tax(household: Household, schedule: Schedule, t_ref: Rate) -> HouseholdIncidence:
    """Gross reform tax by category at reference rate ``t_ref`` (outside)."""
    base = taxable_base(household, schedule)
    per_cat = {
        c.id: base[c.id] * effective_inside_rate(c, t_ref).value for c in schedule.categories
    }
    return _incidence(household, per_cat)


def household_cashback(
    household: Household, incidence: HouseholdIncidence, schedule: Schedule
) -> float:
    """Refund owed to the household given its per-category taxes."""
    if household.income_per_capita > schedule.eligibility_threshold:
        return 0.0
    return math.fsum(
        schedule.refund_share(c.cashback) * incidence.per_category_tax[c.id]
        for c in schedule.categories
    )


def with_cashback(
    household: Household, incidence: HouseholdIncidence, schedule: Schedule
) -> HouseholdIncidence:
    return replace(incidence, cashback=household_cashback(household, incidence, schedule))


def baseline_tax(household: Household, schedule: Schedule) -> HouseholdIncidence:
    """Pre-reform tax: expenditure times the configured effective inside rate."""
    per_cat = {
        c.id: household.expenditures[c.id] * c.baseline_effective.value
        for c in schedule.categories
    }
    return _incidence(household, per_cat)


def denominator_expenditure(population: Population, schedule: Schedule) -> float:
    """Weighted monetary consumption over the in-denominator categories (memoised).

    The categories' ``spend`` columns come from ``Population.column_index``,
    and the memo is keyed by them.  Each household's in-denominator spending
    is summed a chunk of rows at a time, unless every column is in the
    denominator and the population already holds its ``monetary`` column.
    """
    idx = population.column_index(schedule).tolist()
    columns = sorted(j for j, c in zip(idx, schedule.categories) if c.in_denominator)
    key = ("denominator", tuple(columns))
    if key not in population.memo:
        spend, weight = population.spend, population.weight
        if len(columns) == len(idx):
            columns = None  # every column is in: row_sums sums whole rows
        if columns is None and "monetary" in vars(population):  # the cached property is formed
            population.memo[key] = weighted_total(weight, population.monetary)
        else:
            try:
                population.memo[key] = sum_products(
                    len(weight), lambda s: weight[s] * row_sums(spend[s], columns))
            except OverflowError:  # from a row sum: the products are >= 0
                raise MicrodataError("a household's monetary spending overflows a double") from None
    return population.memo[key]


def aggregate(
    population: Population,
    incidences: Iterable[HouseholdIncidence],
    schedule: Schedule,
) -> AggregateIncidence:
    """Weight-expand per-household incidences into population totals."""
    by_id = {inc.household_id: inc for inc in incidences}
    ids = population.ids.tolist()
    if set(by_id) != set(ids):
        raise ValueError("need exactly one incidence per household")
    weights = population.weight.tolist()
    incs = [by_id[hid] for hid in ids]
    total_gross = math.fsum(w * i.gross_tax for w, i in zip(weights, incs))
    total_cashback = math.fsum(w * i.cashback for w, i in zip(weights, incs))
    total_transfer = math.fsum(w * i.transfer for w, i in zip(weights, incs))
    total_net = math.fsum(w * i.net_tax for w, i in zip(weights, incs))
    return AggregateIncidence(
        total_gross=total_gross,
        total_cashback=total_cashback,
        total_transfer=total_transfer,
        total_net=total_net,
        denominator_expenditure=denominator_expenditure(population, schedule),
    )


def universal_transfer_amount(extra_revenue: float, population: Population) -> float:
    """Flat per-person amount that exhausts ``extra_revenue``."""
    if extra_revenue < 0:
        raise ValueError(f"extra revenue must be >= 0, got {extra_revenue}")
    # every weight is a normal double > 0 and every household has a resident,
    # so persons > 0
    persons = weighted_total(population.weight, population.residents)
    if persons == math.inf:
        raise MicrodataError("the weighted number of persons overflows a double")
    return extra_revenue / persons


def cashback_eligible(population: Population, schedule: Schedule) -> np.ndarray:
    """Whether each household is eligible for cashback."""
    return population.income_per_capita <= schedule.eligibility_threshold


def weighted_total(weights: np.ndarray, values: np.ndarray) -> float:
    """fsum_i(w_i * x_i): the rounded products, summed without further rounding error.

    The products are formed one ``chunk_parts`` chunk at a time; a total
    past the largest double is inf (``sum_products``).
    """
    return sum_products(len(weights), lambda s: weights[s] * values[s])


def sum_products(n: int, products) -> float:
    """``math.fsum`` of the n products ``products`` forms a slice at a time.

    A product past the largest double is inf, without a warning, and so is a
    sum of products >= 0 past it (``math.fsum`` raises there): a caller
    refuses a total that is not finite, naming it.
    """
    with np.errstate(over="ignore"):
        parts = chunk_parts(n, products)
    try:
        return math.fsum(parts)
    except OverflowError:
        if min(parts) < 0.0:
            raise
        return math.inf


FOLD_ROWS = 8192  # rows formed at a time by a fold, or by another blocked pass over households


def _taxable(spend: np.ndarray, reducer: float | None) -> np.ndarray:
    """Taxable base of ``spend`` in one category: the spending, less the rent reducer if any."""
    return spend if reducer is None else np.maximum(0.0, spend - reducer)


def _base_totals(population: Population, schedule: Schedule) -> np.ndarray:
    """Rows W and E: W_j = fsum_i(w_i * b_ij) over all households, E_j over eligible ones.

    In schedule order.  Each (W_j, E_j) is memoised per population, keyed by
    the ``spend`` column, the reducer (None outside the rent regime) and the
    eligibility threshold.  On a miss the weights and the eligible weights
    (zero where a household is not eligible) are formed once for the build,
    and each total sums its products ``w_i * b_ij`` a chunk at a time.
    """
    memo = population.memo
    weights = None
    pairs = []
    for column, c in zip(population.column_index(schedule).tolist(), schedule.categories):
        reducer = c.treatment.reducer
        key = ("base_totals", column, reducer, schedule.eligibility_threshold)
        if key not in memo:
            if weights is None:
                weight = population.weight
                weights = (weight, np.where(cashback_eligible(population, schedule), weight, 0.0))
            spend = population.spend[:, column]
            memo[key] = tuple(sum_products(len(w), lambda s: w[s] * _taxable(spend[s], reducer))
                              for w in weights)
        pairs.append(memo[key])
    return np.array(pairs).T


def rate_vector(schedule: Schedule, t_ref: Rate) -> np.ndarray:
    """Effective inside rate of every category, in schedule order."""
    return np.array([effective_inside_rate(c, t_ref).value for c in schedule.categories])


def _refund_shares(schedule: Schedule) -> np.ndarray:
    return np.array([schedule.refund_share(c.cashback) for c in schedule.categories])


def category_folds(population: Population, schedule: Schedule, vectors,
                   taxable: bool = True) -> list[np.ndarray]:
    """Per household, the left fold ((0 + b_1*v_1) + b_2*v_2) + ... of each
    vector v of ``vectors`` (schedule order) over the categories in ascending
    id, leaving out a category whose coefficient is zero in every vector.

    b is the taxable base (``_taxable``), or the plain spending if not
    ``taxable``.  Leaving a category out changes no bit: each fold starts at
    +0.0, and every base and coefficient is >= 0, so b*0.0 is a zero and
    adding it leaves the fold as it is.  The folds run ``FOLD_ROWS`` rows at
    a time, never through BLAS, so their bits depend on neither the BLAS
    build nor the order of the population's columns or the schedule's
    categories.
    """
    idx = population.column_index(schedule)
    order = sorted((j for j in range(len(idx)) if any(v[j] for v in vectors)),
                   key=lambda j: schedule.categories[j].id)
    folds = [np.zeros(len(population)) for _ in vectors]
    for start in range(0, len(population), FOLD_ROWS):
        s = slice(start, start + FOLD_ROWS)
        for j in order:
            reducer = schedule.categories[j].treatment.reducer if taxable else None
            base = _taxable(population.spend[s, idx[j]], reducer)
            for fold, v in zip(folds, vectors):
                fold[s] += base * v[j]
    return folds


def household_taxes(population: Population, schedule: Schedule,
                    t_ref: Rate) -> tuple[np.ndarray, np.ndarray]:
    """Gross tax and cashback of every household, one ``category_folds`` pass.

    The columnar counterpart of ``household_tax`` + ``household_cashback``.
    Where every refund rate is zero, the cashback is +0.0 throughout, the
    bits its fold would give, and only the gross tax is folded.
    """
    rates = rate_vector(schedule, t_ref)
    refund_rates = rates * _refund_shares(schedule)
    if not refund_rates.any():
        return category_folds(population, schedule, (rates,))[0], np.zeros(len(population))
    gross, refund = category_folds(population, schedule, (rates, refund_rates))
    refund[~cashback_eligible(population, schedule)] = 0.0
    return gross, refund


def baseline_taxes(population: Population, schedule: Schedule) -> np.ndarray:
    """Pre-reform tax of every household (``baseline_tax``), by ``category_folds``."""
    rates = [c.baseline_effective.value for c in schedule.categories]
    return category_folds(population, schedule, (rates,), taxable=False)[0]


class IncidenceCalculator:
    """Population burden at a candidate rate in O(k), for repeated solves.

    Tax is linear in spending and the rate vector is shared by every household,
    so gross(t) = sum_j W_j * r_j(t) and cashback(t) = sum_j s_j * E_j * r_j(t),
    where W_j = fsum_i(w_i * b_ij) over all households and E_j the same over
    cashback-eligible ones (b is the taxable base), memoised per population, so
    a build sums over households only for a new rent reducer or threshold.

    ``inside_rates`` gives r(t) on plain floats, from each category's
    ``inside_rate_function``, built once per calculator; these are the
    functions ``rate_vector`` evaluates, without its range check, which the
    solver makes at every solved rate.  An evaluation is then one
    ``Rate.outside`` validation, k float rates and one ``math.fsum`` of k
    products.  These sums run in units of 2**e, e the binade of the
    denominator, and ``gross_total`` and ``cashback_total`` scale back by
    2**e, so the unit of the weights cannot push a product of a tiny rate or
    refund share into the subnormal range: scaling every weight by a power of
    two scales the totals by it exactly.  The per-household functions above
    remain the reference semantics; the test suite pins both together.

    A build refuses a population whose burden is undefined, with a
    ``MicrodataError`` naming the total: no in-denominator expenditure, or a
    denominator or W_j (and so E_j) past the largest double.  ``solve``, ``tables``
    and ``validate`` all build one, so this guard is the one check of them.
    """

    def __init__(self, population: Population, schedule: Schedule) -> None:
        self.denominator = denominator_expenditure(population, schedule)
        if not self.denominator > 0.0:
            raise MicrodataError("no in-denominator expenditure: the net burden is undefined")
        if self.denominator == math.inf:
            raise MicrodataError("the weighted in-denominator expenditure overflows a double")
        base_totals, eligible_totals = _base_totals(population, schedule)
        # each E_j sums some of W_j's products, so it is finite where W_j is: the
        # refund totals below never meet inf * 0
        finite = np.isfinite(base_totals)
        if not finite.all():
            category = schedule.categories[int(np.argmin(finite))].id
            raise MicrodataError(
                f"the weighted taxable base W of category {category!r} overflows a double")
        self._scale = math.frexp(self.denominator)[1]
        self.base_totals = np.ldexp(base_totals, -self._scale).tolist()
        self.refund_totals = (np.ldexp(eligible_totals, -self._scale)
                              * _refund_shares(schedule)).tolist()
        self._rate_functions = [inside_rate_function(c.treatment) for c in schedule.categories]

    def inside_rates(self, t_ref_outside: float) -> list[float]:
        """Effective inside rate of every category at outside reference rate ``t_ref_outside``."""
        t = Rate.outside(t_ref_outside).value
        return [rate(t) for rate in self._rate_functions]

    def _total(self, totals: list[float], t_ref_outside: float) -> float:
        products = map(operator.mul, totals, self.inside_rates(t_ref_outside))
        return math.ldexp(math.fsum(products), self._scale)

    def gross_total(self, t_ref_outside: float) -> float:
        return self._total(self.base_totals, t_ref_outside)

    def cashback_total(self, t_ref_outside: float) -> float:
        return self._total(self.refund_totals, t_ref_outside)

    def burden_with_fixed_cashback(self, t_ref_outside: float, fixed_cashback: float) -> float:
        return (self.gross_total(t_ref_outside) - fixed_cashback) / self.denominator
