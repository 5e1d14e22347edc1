"""Views of library results that only the tests need, and reference writers and rates."""

import csv
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from ivasim.analysis import QuintileAssignment, ScenarioName, ScenarioResult
from ivasim.engine import (HouseholdIncidence, IncidenceCalculator, baseline_taxes, household_taxes,
                           taxable_base)
from ivasim.microdata import FIXED_COLUMNS, Household, Population
from ivasim.rates import Rate, RateBasis, to_inside
from ivasim.schedule import Category, Schedule, TreatmentKind, effective_inside_rate

_ROW_BLOCK = 8192  # rows turned into Python objects at a time


def quintile_of(quintiles: QuintileAssignment) -> dict[int, int]:
    """Household id -> quintile 1..5."""
    ids = quintiles.ids[quintiles.order].tolist()
    bounds = quintiles.bounds
    mapping = {}
    for q in range(1, 6):
        mapping.update(zip(ids[bounds[q - 1]:bounds[q]], repeat(q)))
    return mapping


def incidences(result: ScenarioResult) -> tuple[HouseholdIncidence, ...]:
    """Every household's reference-path incidence, in ascending id order."""
    return tuple(map(result.scalar_incidence, result.population.households))


def scenario_arrays(result: ScenarioResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scenario's gross tax, cashback and transfer per household, in row order,
    from the functions ``compute_scenarios`` forms them with (the baseline and
    uniform VAT pay no cashback)."""
    population, schedule = result.population, result.schedule
    none = np.zeros(len(population))
    if result.t_ref is None:
        gross, cashback = baseline_taxes(population, schedule), none
    else:
        gross, cashback = household_taxes(population, schedule, result.t_ref)
        if result.name is ScenarioName.UNIFORM_VAT:
            cashback = none
    return gross, cashback, result.transfer_per_person * population.residents


def folded_taxes(household: Household, schedule: Schedule, t_ref: Rate | None
                 ) -> tuple[float, float]:
    """The household's gross tax and cashback at ``t_ref`` as ``household_taxes``
    forms them, or its ``baseline_taxes`` tax and 0.0 if ``t_ref`` is None.

    Each is the left fold ((0 + b_1*v_1) + b_2*v_2) + ... over the categories
    in ascending id, in Python floats: b the taxable base (the spending for the
    baseline), v the inside rate, that rate times the refund share, or the
    baseline rate.
    """
    def fold(bases: dict, rates: dict) -> float:
        total = 0.0
        for cid in sorted(rates):
            total += bases[cid] * rates[cid]
        return total

    categories = schedule.categories
    if t_ref is None:
        baseline = {c.id: c.baseline_effective.value for c in categories}
        return fold(household.expenditures, baseline), 0.0
    base = taxable_base(household, schedule)
    rates = {c.id: effective_inside_rate(c, t_ref).value for c in categories}
    refund = {c.id: rates[c.id] * schedule.refund_share(c.cashback) for c in categories}
    eligible = household.income_per_capita <= schedule.eligibility_threshold
    return fold(base, rates), fold(base, refund) if eligible else 0.0


def monetary_total(household: Household) -> float:
    """The household's monetary spending, summed exactly."""
    return math.fsum(household.expenditures.values())


def total_expenditure(household: Household) -> float:
    """Monetary plus non-monetary consumption, the quintile ranking base."""
    return monetary_total(household) + household.nonmonetary_total


def per_capita_total(household: Household) -> float:
    """Monetary plus non-monetary consumption per resident."""
    return total_expenditure(household) / household.residents


def burden_simultaneous(calc: IncidenceCalculator, t_ref_outside: float) -> float:
    """Net burden with cashback evaluated at the same rate."""
    return (
        calc.gross_total(t_ref_outside) - calc.cashback_total(t_ref_outside)
    ) / calc.denominator


def repr_csv(population: Population, path, schedule: Schedule) -> None:
    """The households CSV written a row at a time, one ``repr`` per float cell.

    The reference ``write_population``'s block kernel is pinned to byte for byte.
    """
    columns = population.column_index(schedule)
    category_ids = schedule.category_ids()
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(FIXED_COLUMNS) + list(category_ids))
        # repr of a float is the shortest string that round-trips exactly; no
        # number needs csv quoting, so rows are joined directly
        for start in range(0, len(population), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            fh.writelines(
                f"{hid},{w!r},{r},{inc!r},{nm!r},{','.join(map(repr, cells))}\n"
                for hid, w, r, inc, nm, cells in zip(
                    population.ids[rows].tolist(), population.weight[rows].tolist(),
                    population.residents[rows].tolist(),
                    population.income_per_capita[rows].tolist(),
                    population.nonmonetary_total[rows].tolist(),
                    population.spend[rows][:, columns].tolist(),
                )
            )


def compose_selective(t_is: Rate, t_vat: Rate) -> Rate:
    """Combined outside rate of a good bearing the Selective Tax plus the VAT.

    The IS is part of the VAT base, so on a unit pre-tax price the consumer
    pays ``(1 + t_is) * (1 + t_vat)``; the combined rate is that product minus
    one.  Both arguments and the result are outside rates.
    """
    if t_is.basis is not RateBasis.OUTSIDE or t_vat.basis is not RateBasis.OUTSIDE:
        raise ValueError("compose_selective expects outside rates; convert first")
    return Rate((1.0 + t_is.value) * (1.0 + t_vat.value) - 1.0, RateBasis.OUTSIDE)


def apply_fraction(fraction: float, t_ref: Rate) -> Rate:
    """Reduced legal rate: ``fraction`` of the outside reference rate."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"rate fraction must be in (0, 1], got {fraction}")
    if t_ref.basis is not RateBasis.OUTSIDE:
        raise ValueError("apply_fraction expects an outside reference rate")
    return Rate(fraction * t_ref.value, RateBasis.OUTSIDE)


def reference_inside_rate(category: Category, t_ref: Rate) -> Rate:
    """A category's inside rate composed from ``Rate`` objects, every step range-checked.

    The test oracle: ``schedule.inside_rate_function`` must give its value bit
    for bit.
    """
    t = category.treatment
    k = t.kind
    if k in (TreatmentKind.ZERO_RATE, TreatmentKind.UNTAXED):
        return Rate.inside(0.0)
    if k is TreatmentKind.REFERENCE_RATE:
        return to_inside(t_ref)
    if k is TreatmentKind.REDUCED_FRACTION or k is TreatmentKind.RENT_REGIME:
        return to_inside(apply_fraction(t.fraction, t_ref))
    if k is TreatmentKind.SPECIFIC_REGIME:
        return t.effective
    if k is TreatmentKind.SELECTIVE:
        vat = Rate.outside(t.vat_fraction * t_ref.value)
        return to_inside(compose_selective(t.is_rate, vat))
    raise AssertionError(f"unhandled treatment kind {k}")
