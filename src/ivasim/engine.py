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

Every weighted total is a compensated sum (math.fsum) of per-household or
per-category products, so it is exact for its addends and therefore
independent of household order and of how a survey weight is split across
duplicate rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .microdata import Household, Population, row_fsums
from .rates import Rate
from .schedule import Schedule, TreatmentKind, effective_inside_rate


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
    """Weighted monetary consumption over the in-denominator categories."""
    in_denom = [c.id for c in schedule.categories if c.in_denominator]
    if set(in_denom) == set(population.category_ids):
        per_household = population.monetary
    else:
        columns = [population.category_ids.index(cid) for cid in in_denom]
        per_household = row_fsums(population.spend[:, columns])
    return weighted_total(population.weight, per_household)


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


@dataclass(frozen=True)
class CategoryTotals:
    """A population reduced to per-category weighted spending sums."""

    eligible: np.ndarray  # cashback eligibility per household
    spend: np.ndarray  # fsum_i(w_i * x_ij) over all households, per schedule category
    eligible_spend: np.ndarray  # the same over cashback-eligible households
    denominator: float  # denominator_expenditure


def category_totals(population: Population, schedule: Schedule) -> CategoryTotals:
    """Exact column sums of the raw spending in schedule order, cached in population order."""
    idx = population.column_index(schedule)
    memo = population.memo
    if "spend_totals" not in memo:
        memo["spend_totals"] = _column_sums(population.weight, population.spend)
    in_denom = frozenset(c.id for c in schedule.categories if c.in_denominator)
    key = ("category_totals", schedule.eligibility_threshold, in_denom)
    if key not in memo:
        eligible = population.income_per_capita <= schedule.eligibility_threshold
        memo[key] = (
            eligible,
            _column_sums(np.where(eligible, population.weight, 0.0), population.spend),
            denominator_expenditure(population, schedule),
        )
    eligible, eligible_spend, denominator = memo[key]
    return CategoryTotals(eligible, memo["spend_totals"][idx], eligible_spend[idx], denominator)


def weighted_total(weights: np.ndarray, values: np.ndarray) -> float:
    """fsum_i(w_i * x_i): the rounded products, summed without further rounding error."""
    return math.fsum((weights * values).tolist())


def _column_sums(weights: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    return np.array([weighted_total(weights, matrix[:, j]) for j in range(matrix.shape[1])])


def _rent_columns(schedule: Schedule) -> list[tuple[int, float]]:
    """(column, reducer) of every rent-regime category."""
    return [
        (j, c.treatment.reducer)
        for j, c in enumerate(schedule.categories)
        if c.treatment.kind is TreatmentKind.RENT_REGIME
    ]


def rate_vector(schedule: Schedule, t_ref: Rate) -> np.ndarray:
    """Effective inside rate of every category, in schedule order."""
    return np.array([effective_inside_rate(c, t_ref).value for c in schedule.categories])


def _refund_shares(schedule: Schedule) -> np.ndarray:
    return np.array([schedule.refund_share(c.cashback) for c in schedule.categories])


def _base_times(population: Population, schedule: Schedule, v: np.ndarray) -> np.ndarray:
    """Taxable base (n x k) times ``v`` (schedule order), without materialising the base."""
    idx = population.column_index(schedule)
    rent = _rent_columns(schedule)
    plain = np.empty(len(v))  # v along the columns of spend, rent columns left out
    plain[idx] = v
    for j, _ in rent:
        plain[idx[j]] = 0.0
    out = population.spend @ plain
    for j, reducer in rent:
        out += np.maximum(0.0, population.spend[:, idx[j]] - reducer) * v[j]
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
    return gross, np.where(category_totals(population, schedule).eligible, refund, 0.0)


def baseline_taxes(population: Population, schedule: Schedule) -> np.ndarray:
    """Pre-reform tax of every household (``baseline_tax``)."""
    rates = np.empty(len(schedule.categories))
    rates[population.column_index(schedule)] = [
        c.baseline_effective.value for c in schedule.categories
    ]
    return population.spend @ rates


class IncidenceCalculator:
    """Population burden at a candidate rate in O(k), for repeated solves.

    Tax is linear in spending and the rate vector is shared by every household,
    so gross(t) = sum_j W_j * r_j(t) and cashback(t) = sum_j s_j * E_j * r_j(t),
    where W_j = fsum_i(w_i * b_ij) over all households and E_j the same over
    cashback-eligible ones (b is the taxable base).  The raw column sums are
    cached per population; a new calculator only re-reduces rent-regime
    columns, whose base depends on the reducer.  The per-household functions
    above remain the reference semantics; the test suite pins both together.
    """

    def __init__(self, population: Population, schedule: Schedule) -> None:
        self.population = population
        self.schedule = schedule
        totals = category_totals(population, schedule)
        self.denominator = totals.denominator
        self.base_totals = totals.spend.copy()
        eligible_totals = totals.eligible_spend.copy()
        idx = population.column_index(schedule)
        eligible_weight = np.where(totals.eligible, population.weight, 0.0)
        for j, reducer in _rent_columns(schedule):
            base = np.maximum(0.0, population.spend[:, idx[j]] - reducer)
            self.base_totals[j] = weighted_total(population.weight, base)
            eligible_totals[j] = weighted_total(eligible_weight, base)
        self.refund_totals = eligible_totals * _refund_shares(schedule)

    def gross_total(self, t_ref_outside: float) -> float:
        rates = rate_vector(self.schedule, Rate.outside(t_ref_outside))
        return weighted_total(self.base_totals, rates)

    def cashback_total(self, t_ref_outside: float) -> float:
        rates = rate_vector(self.schedule, Rate.outside(t_ref_outside))
        return weighted_total(self.refund_totals, rates)

    def burden_with_fixed_cashback(self, t_ref_outside: float, fixed_cashback: float) -> float:
        return (self.gross_total(t_ref_outside) - fixed_cashback) / self.denominator

    def burden_simultaneous(self, t_ref_outside: float) -> float:
        """Net burden with cashback evaluated at the same rate."""
        return (
            self.gross_total(t_ref_outside) - self.cashback_total(t_ref_outside)
        ) / self.denominator
