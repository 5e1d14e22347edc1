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
columns: per-household arrays by one matrix-vector product, and population
totals from per-category sums, because tax is linear in spending and every
household faces the same rate vector.  Vectors over categories are in
schedule order; ``Population.column_index`` maps them onto ``spend``.

Each taxable-base column is reduced once per population: ``_base_totals``
and ``denominator_expenditure`` memoise their sums in ``Population.memo``.

``IncidenceCalculator`` evaluates the rate vector on plain floats, bit for bit
equal to ``rate_vector``, which builds it from ``Rate`` objects through
``effective_inside_rate`` and stays the reference: ``household_taxes`` uses
it, and every solve checks the calculator's rates against it.

Every weighted total is the correctly rounded exact sum of per-household or
per-category products, so it is exact for its addends and therefore
independent of household order and of how a survey weight is split across
duplicate rows.  ``ivasim.exactsum`` computes it in a few numpy passes by
error-free extraction and returns what ``math.fsum`` returns, bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .exactsum import chunk_parts, row_sums
from .microdata import Household, MicrodataError, Population
from .rates import Rate
from .schedule import Schedule, TaxTreatment, TreatmentKind, effective_inside_rate


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


def household_tax(household: Household, schedule: Schedule, t_ref: Rate) -> HouseholdIncidence:
    """Gross reform tax by category at reference rate ``t_ref`` (outside)."""
    base = taxable_base(household, schedule)
    per_cat = {
        c.id: base[c.id] * effective_inside_rate(c, t_ref).value for c in schedule.categories
    }
    return HouseholdIncidence(
        household_id=household.id,
        gross_tax=math.fsum(per_cat.values()),
        cashback=0.0,
        transfer=0.0,
        per_category_tax=MappingProxyType(per_cat),
    )


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
    return HouseholdIncidence(
        household_id=household.id,
        gross_tax=math.fsum(per_cat.values()),
        cashback=0.0,
        transfer=0.0,
        per_category_tax=MappingProxyType(per_cat),
    )


def denominator_expenditure(population: Population, schedule: Schedule) -> float:
    """Weighted monetary consumption over the in-denominator categories (memoised)."""
    in_denom = [c.id for c in schedule.categories if c.in_denominator]
    key = ("denominator", frozenset(in_denom))
    if key not in population.memo:
        if key[1] == set(population.category_ids):
            per_household = population.monetary
        else:
            columns = [population.category_ids.index(cid) for cid in in_denom]
            per_household = row_sums(population.spend[:, columns])
        population.memo[key] = weighted_total(population.weight, per_household)
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
    persons = weighted_total(population.weight, population.residents)
    if persons <= 0:
        raise ValueError("population has no weighted persons")
    return extra_revenue / persons


def cashback_eligible(population: Population, schedule: Schedule) -> np.ndarray:
    """Whether each household is eligible for cashback."""
    return population.income_per_capita <= schedule.eligibility_threshold


def weighted_total(weights: np.ndarray, values: np.ndarray) -> float:
    """fsum_i(w_i * x_i): the rounded products, summed without further rounding error.

    The products are formed one ``chunk_parts`` chunk at a time.
    """
    return math.fsum(chunk_parts(len(weights), lambda s: weights[s] * values[s]))


def _taxable(spend: np.ndarray, reducer: float | None) -> np.ndarray:
    """Taxable base of ``spend`` in one category: the spending, less the rent reducer if any."""
    return spend if reducer is None else np.maximum(0.0, spend - reducer)


def _base_total(population: Population, column: int, reducer: float | None,
                eligible: np.ndarray | None = None) -> float:
    """fsum_i(w_i * b_i) of one ``spend`` column's taxable base b: over all
    households, or over those an ``eligible`` mask selects.

    Bases, selected weights and products are formed one chunk at a time.
    """
    spend, weight = population.spend[:, column], population.weight

    def products(s: slice) -> np.ndarray:
        w = weight[s] if eligible is None else np.where(eligible[s], weight[s], 0.0)
        return w * _taxable(spend[s], reducer)

    return math.fsum(chunk_parts(len(spend), products))


def _base_totals(population: Population, schedule: Schedule) -> np.ndarray:
    """Rows W and E: W_j = fsum_i(w_i * b_ij) over all households, E_j over eligible ones.

    In schedule order.  Each (W_j, E_j) is memoised per population, keyed by
    the ``spend`` column, the reducer (None outside the rent regime) and the
    eligibility threshold.
    """
    memo = population.memo
    eligible = None
    pairs = []
    for column, c in zip(population.column_index(schedule).tolist(), schedule.categories):
        reducer = c.treatment.reducer
        key = ("base_totals", column, reducer, schedule.eligibility_threshold)
        if key not in memo:
            if eligible is None:
                eligible = cashback_eligible(population, schedule)
            memo[key] = (_base_total(population, column, reducer),
                         _base_total(population, column, reducer, eligible))
        pairs.append(memo[key])
    return np.array(pairs).T


def rate_vector(schedule: Schedule, t_ref: Rate) -> np.ndarray:
    """Effective inside rate of every category, in schedule order."""
    return np.array([effective_inside_rate(c, t_ref).value for c in schedule.categories])


def _refund_shares(schedule: Schedule) -> np.ndarray:
    return np.array([schedule.refund_share(c.cashback) for c in schedule.categories])


def _base_times(population: Population, schedule: Schedule, v: np.ndarray) -> np.ndarray:
    """Taxable base (n x k) times ``v`` (schedule order), without materialising the base."""
    idx = population.column_index(schedule)
    reducers = [c.treatment.reducer for c in schedule.categories]
    plain = np.empty(len(v))  # v along the columns of spend, rent columns left out
    plain[idx] = np.where([r is None for r in reducers], v, 0.0)
    out = population.spend @ plain
    for j, reducer in enumerate(reducers):
        if reducer is not None:
            out += _taxable(population.spend[:, idx[j]], reducer) * v[j]
    return out


def household_taxes(
    population: Population, schedule: Schedule, t_ref: Rate
) -> tuple[np.ndarray, np.ndarray]:
    """Gross tax and cashback of every household.

    The columnar counterpart of ``household_tax`` + ``household_cashback``.
    """
    rates = rate_vector(schedule, t_ref)
    gross = _base_times(population, schedule, rates)
    refund = _base_times(population, schedule, rates * _refund_shares(schedule))
    return gross, np.where(cashback_eligible(population, schedule), refund, 0.0)


def baseline_taxes(population: Population, schedule: Schedule) -> np.ndarray:
    """Pre-reform tax of every household (``baseline_tax``)."""
    rates = np.empty(len(schedule.categories))
    rates[population.column_index(schedule)] = [
        c.baseline_effective.value for c in schedule.categories
    ]
    return population.spend @ rates


def _inside_rate_function(treatment: TaxTreatment) -> Callable[[float], float]:
    """``effective_inside_rate`` of a category with this treatment, as a function of a float t.

    ``t`` is a validated outside reference rate.  Each closed form reads its
    constants once and does the float operations of ``ivasim.rates`` in the
    same order (``to_inside``, ``apply_fraction``, ``compose_selective``), so
    it returns the reference's bits.
    """
    k = treatment.kind
    if k in (TreatmentKind.ZERO_RATE, TreatmentKind.UNTAXED):
        return lambda t: 0.0
    if k is TreatmentKind.SPECIFIC_REGIME:
        effective = treatment.effective.value
        return lambda t: effective
    if k is TreatmentKind.REFERENCE_RATE:
        return lambda t: t / (1.0 + t)
    if k is TreatmentKind.REDUCED_FRACTION or k is TreatmentKind.RENT_REGIME:
        fraction = treatment.fraction

        def reduced(t: float) -> float:
            outside = fraction * t
            return outside / (1.0 + outside)

        return reduced
    if k is TreatmentKind.SELECTIVE:
        is_factor, vat_fraction = 1.0 + treatment.is_rate.value, treatment.vat_fraction

        def selective(t: float) -> float:
            combined = is_factor * (1.0 + vat_fraction * t) - 1.0
            return combined / (1.0 + combined)

        return selective
    raise AssertionError(f"unhandled treatment kind {k}")


class IncidenceCalculator:
    """Population burden at a candidate rate in O(k), for repeated solves.

    Tax is linear in spending and the rate vector is shared by every household,
    so gross(t) = sum_j W_j * r_j(t) and cashback(t) = sum_j s_j * E_j * r_j(t),
    where W_j = fsum_i(w_i * b_ij) over all households and E_j the same over
    cashback-eligible ones (b is the taxable base), memoised per population, so
    a build sums over households only for a new rent reducer or threshold.

    ``inside_rates`` gives r(t) on plain floats, from per-kind closed forms
    built once per calculator; it equals ``rate_vector(schedule,
    Rate.outside(t))`` bit for bit, and the solver checks that at every solved
    rate.  An evaluation is then one ``Rate.outside`` validation, k float
    rates and one ``math.fsum`` of k products.  The per-household functions
    above remain the reference semantics; the test suite pins both together.
    """

    def __init__(self, population: Population, schedule: Schedule) -> None:
        self.schedule = schedule
        self.denominator = denominator_expenditure(population, schedule)
        if not self.denominator > 0.0:
            raise MicrodataError("no in-denominator expenditure: the net burden is undefined")
        base_totals, eligible_totals = _base_totals(population, schedule)
        self.base_totals = base_totals.tolist()
        self.refund_totals = (eligible_totals * _refund_shares(schedule)).tolist()
        self._rate_functions = [_inside_rate_function(c.treatment) for c in schedule.categories]

    def inside_rates(self, t_ref_outside: float) -> list[float]:
        """Effective inside rate of every category at outside reference rate ``t_ref_outside``."""
        t = Rate.outside(t_ref_outside).value
        return [rate(t) for rate in self._rate_functions]

    def gross_total(self, t_ref_outside: float) -> float:
        return math.fsum(map(operator.mul, self.base_totals, self.inside_rates(t_ref_outside)))

    def cashback_total(self, t_ref_outside: float) -> float:
        return math.fsum(map(operator.mul, self.refund_totals, self.inside_rates(t_ref_outside)))

    def burden_with_fixed_cashback(self, t_ref_outside: float, fixed_cashback: float) -> float:
        return (self.gross_total(t_ref_outside) - fixed_cashback) / self.denominator

    def burden_simultaneous(self, t_ref_outside: float) -> float:
        """Net burden with cashback evaluated at the same rate."""
        return (
            self.gross_total(t_ref_outside) - self.cashback_total(t_ref_outside)
        ) / self.denominator
