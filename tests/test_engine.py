"""Engine semantics against the committed rational-arithmetic oracle.

tests/data/engine_oracle.json is produced by make_engine_oracle.py, which
recomputes the 5-household fixture with fractions.Fraction and no imports
from this package; the engine must match it to 1e-9.
"""

import dataclasses
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ivasim import engine
from ivasim.analysis import _uniform_vat_schedule
from ivasim.engine import (
    FOLD_ROWS,
    IncidenceCalculator,
    aggregate,
    baseline_tax,
    baseline_taxes,
    cashback_eligible,
    category_folds,
    denominator_expenditure,
    household_cashback,
    household_tax,
    household_taxes,
    rate_vector,
    taxable_base,
    universal_transfer_amount,
    with_cashback,
    HouseholdIncidence,
)
from ivasim.microdata import (
    Household, MicrodataError, Population, Provenance, generate_synthetic, load_population,
)
from ivasim.rates import Rate, to_inside
from ivasim.schedule import (
    bundled_schedule_path, effective_inside_rate, load_schedule, with_removal,
)
from ivasim.solver import solve_with_cashback

from helpers import burden_simultaneous, folded_taxes

DATA = Path(__file__).parent / "data"
T_REF = Rate.outside(0.379)


@pytest.fixture(scope="module")
def oracle6():
    return load_schedule(DATA / "oracle6.json")


@pytest.fixture(scope="module")
def fixture_population(oracle6):
    return load_population(DATA / "oracle6_households.csv", oracle6)


@pytest.fixture(scope="module")
def oracle():
    return json.loads((DATA / "engine_oracle.json").read_text())


@pytest.fixture(scope="module")
def plp68():
    return load_schedule(bundled_schedule_path("plp68"))


@pytest.fixture(scope="module")
def uniform():
    return load_schedule(bundled_schedule_path("uniform"))


def single_category_schedule(**overrides):
    raw = {
        "categories": [
            {
                "id": "consumo",
                "label": "Consumo",
                "treatment": {"kind": "reference_rate"},
                "cashback_class": "standard",
                "in_denominator": True,
                "baseline_effective": 0.2,
            }
        ],
        "cashback": {"utility_refund_share": 0.0, "standard_refund_share": 0.0},
        "eligibility_threshold": 0.0,
    }
    raw.update(overrides)
    from ivasim.schedule import parse_schedule

    return parse_schedule(raw)


# -- oracle equivalence ------------------------------------------------------


def test_per_household_matches_oracle(oracle6, fixture_population, oracle):
    assert oracle["t_ref_outside"] == T_REF.value
    for h in fixture_population.households:
        want = oracle["households"][str(h.id)]
        inc = household_tax(h, oracle6, T_REF)
        for cid, expected in want["per_category_tax"].items():
            assert inc.per_category_tax[cid] == pytest.approx(expected, abs=1e-9), (h.id, cid)
        assert inc.gross_tax == pytest.approx(want["gross_tax"], abs=1e-9)
        cashback = household_cashback(h, inc, oracle6)
        assert cashback == pytest.approx(want["cashback"], abs=1e-9)
        assert (cashback > 0) == want["eligible"] or inc.gross_tax == 0
        base = baseline_tax(h, oracle6)
        assert base.gross_tax == pytest.approx(want["baseline_tax"], abs=1e-9)


def test_aggregate_matches_oracle(oracle6, fixture_population, oracle):
    incs = [
        with_cashback(h, household_tax(h, oracle6, T_REF), oracle6)
        for h in fixture_population.households
    ]
    agg = aggregate(fixture_population, incs, oracle6)
    want = oracle["aggregate"]
    assert agg.total_gross == pytest.approx(want["total_gross"], abs=1e-9)
    assert agg.total_cashback == pytest.approx(want["total_cashback"], abs=1e-9)
    assert agg.total_net == pytest.approx(want["total_net"], abs=1e-9)
    assert agg.denominator_expenditure == pytest.approx(want["denominator_expenditure"], abs=1e-9)
    assert agg.net_burden == pytest.approx(want["net_burden"], abs=1e-12)


def test_baseline_aggregate_matches_oracle(oracle6, fixture_population, oracle):
    incs = [baseline_tax(h, oracle6) for h in fixture_population.households]
    agg = aggregate(fixture_population, incs, oracle6)
    assert agg.total_gross == pytest.approx(oracle["aggregate"]["baseline_total"], abs=1e-9)
    assert agg.net_burden == pytest.approx(oracle["aggregate"]["baseline_burden"], abs=1e-12)


# -- hand examples -----------------------------------------------------------


def test_rent_above_reducer(oracle6):
    # taxable 600 at inside(0.4 * 0.379) = 0.131643 -> 78.99
    h = Household(
        1, 1.0, 1, 1000.0,
        dict.fromkeys(oracle6.category_ids(), 0.0) | {"aluguel": 1000.0},
        0.0,
    )
    inc = household_tax(h, oracle6, T_REF)
    assert inc.gross_tax == pytest.approx(78.9857589440778, abs=1e-9)


def test_rent_below_reducer_is_untaxed(oracle6):
    h = Household(
        1, 1.0, 1, 1000.0,
        dict.fromkeys(oracle6.category_ids(), 0.0) | {"aluguel": 300.0},
        0.0,
    )
    assert household_tax(h, oracle6, T_REF).gross_tax == 0.0


def test_reference_rate_at_25_percent_outside():
    s = single_category_schedule()
    h = Household(1, 1.0, 1, 0.0, {"consumo": 100.0}, 0.0)
    inc = household_tax(h, s, Rate.outside(0.25))
    assert inc.gross_tax == pytest.approx(20.0, abs=1e-12)


def test_utility_refund_share(oracle6):
    h = Household(1, 1.0, 1, 300.0, dict.fromkeys(oracle6.category_ids(), 0.0), 0.0)
    inc = HouseholdIncidence(
        1, 100.0, 0.0, 0.0, dict.fromkeys(oracle6.category_ids(), 0.0) | {"energia": 100.0}
    )
    assert household_cashback(h, inc, oracle6) == pytest.approx(46.6, abs=1e-12)


def test_selective_tax_earns_no_refund(oracle6):
    h = Household(1, 1.0, 1, 300.0, dict.fromkeys(oracle6.category_ids(), 0.0), 0.0)
    inc = HouseholdIncidence(
        1, 100.0, 0.0, 0.0, dict.fromkeys(oracle6.category_ids(), 0.0) | {"alcool": 100.0}
    )
    assert household_cashback(h, inc, oracle6) == 0.0


def test_ineligible_household_gets_nothing(oracle6):
    h = Household(1, 1.0, 1, 477.01, dict.fromkeys(oracle6.category_ids(), 0.0), 0.0)
    inc = HouseholdIncidence(
        1, 100.0, 0.0, 0.0, dict.fromkeys(oracle6.category_ids(), 0.0) | {"energia": 100.0}
    )
    assert household_cashback(h, inc, oracle6) == 0.0


def test_baseline_electricity_example(oracle6):
    # 51% outside -> inside 0.51/1.51; on 100 spent the tax is 33.7748
    h = Household(
        1, 1.0, 1, 1000.0,
        dict.fromkeys(oracle6.category_ids(), 0.0) | {"energia": 100.0},
        0.0,
    )
    assert baseline_tax(h, oracle6).gross_tax == pytest.approx(33.77483443708609, abs=1e-9)


def test_trivial_aggregate_example(oracle6):
    s = single_category_schedule()
    h = Household(7, 2.0, 1, 0.0, {"consumo": 500.0}, 0.0)
    pop = Population.from_households((h,), Provenance("file", "inline"))
    inc = HouseholdIncidence(7, 50.0, 0.0, 0.0, {"consumo": 50.0})
    agg = aggregate(pop, [inc], s)
    assert agg.total_net == 100.0
    assert agg.denominator_expenditure == 1000.0
    assert agg.net_burden == pytest.approx(0.10, abs=1e-15)


def test_transfer_amount_arithmetic():
    h1 = Household(1, 1.0, 2, 0.0, {"consumo": 1.0}, 0.0)
    h2 = Household(2, 3.0, 4, 0.0, {"consumo": 1.0}, 0.0)
    pop = Population.from_households((h1, h2), Provenance("file", "inline"))
    amount = universal_transfer_amount(140.0, pop)
    assert amount == pytest.approx(10.0, abs=1e-12)
    assert amount * h1.residents == pytest.approx(20.0)
    assert amount * h2.residents == pytest.approx(40.0)
    assert universal_transfer_amount(0.0, pop) == 0.0
    with pytest.raises(ValueError, match=">= 0"):
        universal_transfer_amount(-1.0, pop)


# -- properties --------------------------------------------------------------


def test_gross_tax_additive_across_categories(oracle6, fixture_population):
    for h in fixture_population.households:
        inc = household_tax(h, oracle6, T_REF)
        assert inc.gross_tax == pytest.approx(
            math.fsum(inc.per_category_tax.values()), rel=1e-9
        )


def test_homogeneity_without_rent(oracle6):
    rng = random.Random(3)
    ids = oracle6.category_ids()
    for _ in range(50):
        exp = {cid: rng.uniform(0, 500) for cid in ids}
        exp["aluguel"] = 0.0
        h1 = Household(1, 1.0, 1, 1000.0, exp, 0.0)
        h2 = Household(2, 1.0, 1, 1000.0, {k: 2 * v for k, v in exp.items()}, 0.0)
        g1 = household_tax(h1, oracle6, T_REF).gross_tax
        g2 = household_tax(h2, oracle6, T_REF).gross_tax
        assert g2 == pytest.approx(2 * g1, rel=1e-12)


def test_gross_tax_monotone_in_rate(oracle6, fixture_population):
    grid = [Rate.outside(x / 20.0) for x in range(0, 21)]
    for h in fixture_population.households:
        taxes = [household_tax(h, oracle6, t).gross_tax for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(taxes, taxes[1:]))


def test_cashback_bounded_by_gross(oracle6, fixture_population):
    for t in (0.05, 0.379, 1.2):
        for h in fixture_population.households:
            inc = household_tax(h, oracle6, Rate.outside(t))
            assert 0.0 <= household_cashback(h, inc, oracle6) <= inc.gross_tax + 1e-12


def test_uniform_schedule_burden_identity():
    # all spending at the reference rate, no cashback: burden == inside rate
    uniform = load_schedule(bundled_schedule_path("uniform"))
    pop = generate_synthetic(5, 400, uniform)
    for t in (0.10, 0.25, 0.2516):
        incs = [household_tax(h, uniform, Rate.outside(t)) for h in pop.households]
        agg = aggregate(pop, incs, uniform)
        assert agg.net_burden == pytest.approx(to_inside(Rate.outside(t)).value, rel=1e-12)


def test_aggregate_permutation_invariant(oracle6, fixture_population):
    incs = [
        with_cashback(h, household_tax(h, oracle6, T_REF), oracle6)
        for h in fixture_population.households
    ]
    forward = aggregate(fixture_population, incs, oracle6)
    shuffled_pop = Population.from_households(tuple(reversed(fixture_population.households)), fixture_population.provenance)
    backward = aggregate(shuffled_pop, list(reversed(incs)), oracle6)
    assert backward.total_net == forward.total_net
    assert backward.total_gross == forward.total_gross
    assert backward.denominator_expenditure == forward.denominator_expenditure


def test_aggregate_weight_splitting_invariant(oracle6, fixture_population):
    halves = []
    for h in fixture_population.households:
        for offset in (0, 1):
            halves.append(
                Household(
                    id=h.id * 2 + offset,
                    weight=h.weight / 2.0,
                    residents=h.residents,
                    income_per_capita=h.income_per_capita,
                    expenditures=dict(h.expenditures),
                    nonmonetary_total=h.nonmonetary_total,
                )
            )
    split_pop = Population.from_households(tuple(halves), Provenance("file", "split"))
    whole_incs = [
        with_cashback(h, household_tax(h, oracle6, T_REF), oracle6)
        for h in fixture_population.households
    ]
    split_incs = [
        with_cashback(h, household_tax(h, oracle6, T_REF), oracle6)
        for h in split_pop.households
    ]
    whole = aggregate(fixture_population, whole_incs, oracle6)
    split = aggregate(split_pop, split_incs, oracle6)
    assert split.total_net == pytest.approx(whole.total_net, abs=1e-12)
    assert split.total_gross == pytest.approx(whole.total_gross, abs=1e-12)
    assert split.denominator_expenditure == pytest.approx(
        whole.denominator_expenditure, abs=1e-12
    )


def test_aggregate_requires_full_coverage(oracle6, fixture_population):
    incs = [
        household_tax(h, oracle6, T_REF) for h in fixture_population.households[:-1]
    ]
    with pytest.raises(ValueError, match="one incidence per household"):
        aggregate(fixture_population, incs, oracle6)


# -- vectorized path stays in lockstep with the scalar path ------------------


def _household_arrays(population, schedule):
    return [*household_taxes(population, schedule, T_REF), baseline_taxes(population, schedule)]


def test_household_arrays_are_left_folds_in_category_id_order(plp68):
    """Gross, cashback and baseline tax of each household are the left fold
    ((0 + b_1*v_1) + b_2*v_2) + ... over the categories in ascending id, so
    they keep their bits when the population's columns or the schedule's
    categories come in another order (and under any BLAS build).  The folds
    leave out a category whose coefficient is zero in every vector, and keep
    the bits of ``folded_taxes``, which adds every category: with -0.0
    spending in the zero-rated categories (and whole rows of it), for a
    baseline rate vector that is zero in all categories but one, and on the
    rows at the folds' block boundaries."""
    pop = generate_synthetic(42, 20_000, plp68)
    assert len(pop) > 2 * FOLD_ROWS
    zero_rated = [j for j, cid in enumerate(pop.category_ids)
                  if effective_inside_rate(plp68.by_id(cid), T_REF).value == 0.0]
    assert len(zero_rated) == 3
    spend = np.array(pop.spend, order="F")
    spend[::3, zero_rated] = -0.0
    spend[::5, pop.category_ids.index("gasolina")] = -0.0
    spend[::7] = -0.0
    edges = [k * FOLD_ROWS + d for k in (1, 2) for d in (-1, 0)]
    spend[edges[::2]] = -0.0
    spend[np.ix_(edges[1::2], zero_rated)] = -0.0
    pop = Population(pop.provenance, pop.category_ids, pop.ids, pop.weight, pop.residents,
                     pop.income_per_capita, pop.nonmonetary_total, spend)
    one_rate = dataclasses.replace(plp68, categories=tuple(
        c if c.id == "gasolina" else dataclasses.replace(c, baseline_effective=Rate.inside(0.0))
        for c in plp68.categories))
    rows = edges + random.Random(0).sample(range(len(pop)), 200)
    for schedule in (plp68, one_rate):
        gross, cashback, baseline = _household_arrays(pop, schedule)
        for i in rows:
            row = pop.row(i)
            fast = (float(gross[i]), float(cashback[i]), float(baseline[i]))
            folds = folded_taxes(row, schedule, T_REF) + folded_taxes(row, schedule, None)[:1]
            assert list(map(repr, fast)) == list(map(repr, folds)), i
    rng = np.random.default_rng(0)
    columns = rng.permutation(len(pop.category_ids))
    permuted = Population(pop.provenance, tuple(pop.category_ids[j] for j in columns), pop.ids,
                          pop.weight, pop.residents, pop.income_per_capita,
                          pop.nonmonetary_total, pop.spend[:, columns])
    reordered = dataclasses.replace(plp68, categories=tuple(
        plp68.categories[j] for j in rng.permutation(len(plp68.categories))))
    arrays = [a.tobytes() for a in _household_arrays(pop, plp68)]
    assert [a.tobytes() for a in _household_arrays(permuted, plp68)] == arrays
    assert [a.tobytes() for a in _household_arrays(pop, reordered)] == arrays


def test_household_taxes_fold_into_the_two_arrays_they_return(plp68):
    """Gross and refund are folded a block of rows at a time into the arrays
    returned: traced peak at 50k with numpy 2.4 2.33 n-vectors, where two
    BLAS products, a rent-column pass and ``np.where`` held 4.01."""
    pop = generate_synthetic(42, 50_000, plp68)
    pop.column_index(plp68)  # the population's memo holds the column map
    tracemalloc.start()
    try:
        arrays = household_taxes(pop, plp68, T_REF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arrays) == 2
    assert peak <= 3 * 8 * len(pop)


def test_household_taxes_without_refund_fold_the_gross_tax_alone(plp68, monkeypatch):
    """Where every refund rate is zero, as in the uniform-VAT scenario, one
    vector is folded and the cashback is +0.0 throughout: both arrays keep
    the bits of the two-vector fold."""
    uni = _uniform_vat_schedule(plp68)
    pop = generate_synthetic(42, 20_000, plp68)
    rates = rate_vector(uni, T_REF)
    refund_rates = rates * engine._refund_shares(uni)
    assert not refund_rates.any() and rates.any()
    gross, refund = category_folds(pop, uni, (rates, refund_rates))
    refund[~cashback_eligible(pop, uni)] = 0.0
    folded = []
    monkeypatch.setattr(engine, "category_folds", lambda *args, **kwargs: (
        folded.append(len(args[2])) or category_folds(*args, **kwargs)))
    arrays = household_taxes(pop, uni, T_REF)
    assert folded == [1]
    assert [a.tobytes() for a in arrays] == [gross.tobytes(), refund.tobytes()]


def test_calculator_matches_scalar_path(oracle6, fixture_population, plp68):
    cases = [
        (oracle6, fixture_population),
        (plp68, generate_synthetic(42, 300, plp68)),
    ]
    for schedule, pop in cases:
        calc = IncidenceCalculator(pop, schedule)
        for t in (0.0, 0.1516, 0.379, 0.9):
            incs = [
                with_cashback(h, household_tax(h, schedule, Rate.outside(t)), schedule)
                for h in pop.households
            ]
            agg = aggregate(pop, incs, schedule)
            assert calc.gross_total(t) == pytest.approx(agg.total_gross, rel=1e-12, abs=1e-9)
            assert calc.cashback_total(t) == pytest.approx(
                agg.total_cashback, rel=1e-12, abs=1e-9
            )
            assert calc.denominator == pytest.approx(
                agg.denominator_expenditure, rel=1e-12
            )
            assert burden_simultaneous(calc, t) == pytest.approx(agg.net_burden, abs=1e-12)


@pytest.mark.parametrize("t, message", [
    (float("nan"), "must not be NaN"),
    (-0.1, "must be non-negative, got -0.1"),
    (-math.inf, "must be non-negative, got -inf"),
    (math.inf, "must be finite, got inf"),
])
def test_calculator_refuses_an_invalid_rate_like_rate_outside(oracle6, fixture_population, t,
                                                             message):
    calc = IncidenceCalculator(fixture_population, oracle6)
    with pytest.raises(ValueError, match=message):
        Rate.outside(t)
    for total in (calc.gross_total, calc.cashback_total):
        with pytest.raises(ValueError, match=message):
            total(t)


def test_calculator_reuses_the_reductions_of_earlier_schedules(plp68, monkeypatch):
    pop = generate_synthetic(42, 300, plp68)
    IncidenceCalculator(pop, plp68)
    calls = []
    # each sum of products is one reduction over households: a taxable base's
    # total, or the denominator's
    real = engine.sum_products
    monkeypatch.setattr(engine, "sum_products", lambda *args: calls.append(1) or real(*args))
    IncidenceCalculator(pop, with_removal(plp68, "cesta_basica"))
    assert len(calls) == 0
    # without its rent regime, the rent column's base is the raw spending: one new pair
    no_rent = with_removal(plp68, "aluguel_imovel")
    IncidenceCalculator(pop, no_rent)
    assert len(calls) == 2
    IncidenceCalculator(pop, no_rent)
    assert len(calls) == 2


@pytest.mark.parametrize("admitted", ["none", "some", "all"])
def test_base_totals_are_the_exact_sums_of_the_weighted_bases(plp68, admitted):
    """W_j and E_j are math.fsum of w_i * b_ij over all households and over the
    eligible ones, bit for bit, under plp68 and a permutation of its categories
    (which reuses the first schedule's memo entries), with the rent reducer
    binding on some households."""
    pop = generate_synthetic(42, 17_000, plp68)  # more than one chunk of products
    rent = np.array([h.expenditures["aluguel_imovel"] for h in pop.households])
    reducer = next(c.treatment.reducer for c in plp68.categories if c.id == "aluguel_imovel")
    assert ((rent > 0) & (rent < reducer)).any()
    income = pop.income_per_capita
    threshold = {"none": income.min() / 2, "some": np.median(income), "all": income.max()}[admitted]
    eligible = (income <= threshold).tolist()
    assert sum(eligible) == {"none": 0, "some": len(pop) // 2, "all": len(pop)}[admitted]
    permuted = tuple(plp68.categories[j]
                     for j in np.random.default_rng(3).permutation(len(plp68.categories)))
    weights = pop.weight.tolist()
    for categories in (permuted, plp68.categories):
        schedule = dataclasses.replace(plp68, categories=categories,
                                       eligibility_threshold=float(threshold))
        bases = [taxable_base(h, schedule) for h in pop.households]
        W = [math.fsum(w * b[c.id] for w, b in zip(weights, bases)) for c in categories]
        E = [math.fsum(w * b[c.id] for w, b, e in zip(weights, bases, eligible) if e)
             for c in categories]
        totals = engine._base_totals(pop, schedule).tolist()
        assert [list(map(float.hex, row)) for row in totals] == [list(map(float.hex, W)),
                                                                list(map(float.hex, E))]


def test_a_population_of_other_categories_is_refused_by_validate_against(plp68, uniform):
    """Each entry point maps the schedule onto the columns through
    ``Population.column_index``, so each raises ``validate_against``'s error."""
    pop = generate_synthetic(1, 20, uniform)
    message = (f"household 1: missing categories {sorted(plp68.category_ids())}; "
               "unknown categories ['consumo']")
    for entry in (IncidenceCalculator, denominator_expenditure,
                  lambda population, schedule: solve_with_cashback(population, schedule, 0.1)):
        with pytest.raises(MicrodataError, match=f"^{re.escape(message)}$"):
            entry(pop, plp68)


def _two_households(schedule, weights, cells):
    """Two households spending 10 in every category but the first, where they
    spend ``cells``."""
    spend = np.full((2, len(schedule.categories)), 10.0)
    spend[:, 0] = cells
    return Population(Provenance("synthetic", "two"), schedule.category_ids(), np.array([1, 2]),
                      np.array(weights), np.array([1, 1]), np.array([100.0, 100.0]), np.zeros(2),
                      spend)


@pytest.mark.parametrize("weights, cells, in_denominator, message", [
    # products past the largest double
    ((1e308, 1e308), 10.0, True, "the weighted in-denominator expenditure overflows a double"),
    # finite products whose sum passes it
    ((1.5, 1.5), 1e308, True, "the weighted in-denominator expenditure overflows a double"),
    # a category outside the denominator
    ((100.0, 100.0), 1e307, False,
     "the weighted taxable base W of category 'cesta_basica' overflows a double"),
])
def test_calculator_refuses_an_overflowing_total_naming_it(plp68, weights, cells, in_denominator,
                                                           message):
    schedule = dataclasses.replace(plp68, categories=(
        dataclasses.replace(plp68.categories[0], in_denominator=in_denominator),
        *plp68.categories[1:]))
    assert schedule.categories[0].id == "cesta_basica"
    population = _two_households(schedule, weights, cells)
    # the suite makes a numpy overflow warning an error, so none is raised on the way
    with pytest.raises(MicrodataError, match=f"^{message}$"):
        IncidenceCalculator(population, schedule)


def test_population_totals_that_overflow_are_named(plp68):
    with pytest.raises(MicrodataError, match="^the total weight overflows a double$"):
        _two_households(plp68, (1e308, 1e308), 10.0).total_weight()
    two = _two_households(plp68, (1.0, 1.0), 10.0)
    spend = two.spend.copy()
    spend[0, :2] = 1e308  # one household's cells sum past the largest double
    population = Population(two.provenance, two.category_ids, two.ids, two.weight, two.residents,
                            two.income_per_capita, two.nonmonetary_total, spend)
    # the denominator sums the rows itself while the population holds no ``monetary``
    for total in (lambda: IncidenceCalculator(population, plp68), lambda: population.monetary):
        with pytest.raises(MicrodataError,
                           match="^a household's monetary spending overflows a double$"):
            total()


def test_calculator_fixed_cashback_burden(oracle6, fixture_population):
    calc = IncidenceCalculator(fixture_population, oracle6)
    t = 0.379
    fixed = calc.cashback_total(t)
    assert calc.burden_with_fixed_cashback(t, fixed) == pytest.approx(
        burden_simultaneous(calc, t), abs=1e-15
    )
    assert calc.burden_with_fixed_cashback(t, 0.0) >= burden_simultaneous(calc, t)


@pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)],
                         ids=["as_given", "reversed"])
def test_denominator_leaves_out_non_denominator_categories(plp68, order):
    schedule = dataclasses.replace(plp68, categories=tuple(
        dataclasses.replace(c, in_denominator=c.id not in ("aluguel_imovel", "apostas_loterias"))
        for c in plp68.categories[order]
    ))
    pop = generate_synthetic(3, 300, plp68)
    in_denom = [c.id for c in schedule.categories if c.in_denominator]
    reference = math.fsum(
        h.weight * math.fsum(h.expenditures[cid] for cid in in_denom) for h in pop.households
    )
    assert denominator_expenditure(pop, schedule) == reference
    assert denominator_expenditure(pop, schedule) < denominator_expenditure(pop, plp68)


@pytest.mark.parametrize("left_out, value", [
    ("aluguel_imovel", "0x1.0917ffedf2eb7p+34"),
    (None, "0x1.11af7c68acef5p+34"),
])
def test_denominator_sums_rows_a_block_at_a_time(plp68, left_out, value):
    """The in-denominator cells are summed a block of rows at a time and their
    products a chunk at a time: traced peak at 100k with numpy 2.4 1.4 MiB with
    a category out of the denominator and 1.1 MiB with none, where gathering
    the columns whole took 16.1 MiB and an n-length row sum 1.9 and 1.6 MiB.
    The value is the one those gave, and the one of a population that already
    holds its ``monetary`` column."""
    schedule = dataclasses.replace(plp68, categories=tuple(
        dataclasses.replace(c, in_denominator=c.id != left_out) for c in plp68.categories
    ))
    pop = generate_synthetic(42, 100_000, plp68)
    tracemalloc.start()
    try:
        assert denominator_expenditure(pop, schedule).hex() == value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    pop = generate_synthetic(42, 100_000, plp68)
    pop.monetary
    assert denominator_expenditure(pop, schedule).hex() == value
