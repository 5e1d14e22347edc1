"""Engine semantics against the committed rational-arithmetic oracle.

tests/data/engine_oracle.json is produced by make_engine_oracle.py, which
recomputes the 5-household fixture with fractions.Fraction and no imports
from this package; the engine must match it to 1e-9.
"""

import json
import math
import random
from pathlib import Path

import pytest

from ivasim import engine
from ivasim.engine import (
    IncidenceCalculator,
    aggregate,
    baseline_tax,
    denominator_expenditure,
    household_cashback,
    household_tax,
    universal_transfer_amount,
    with_cashback,
    HouseholdIncidence,
)
from ivasim.microdata import Household, Population, Provenance, generate_synthetic, load_population
from ivasim.rates import Rate, to_inside
from ivasim.schedule import bundled_schedule_path, load_schedule, with_removal

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
            assert calc.burden_simultaneous(t) == pytest.approx(agg.net_burden, abs=1e-12)


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
    # each is one reduction over households: a taxable base's total, or the denominator's
    for name in ("_base_total", "weighted_total"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    IncidenceCalculator(pop, with_removal(plp68, "cesta_basica"))
    assert len(calls) == 0
    # without its rent regime, the rent column's base is the raw spending: one new pair
    no_rent = with_removal(plp68, "aluguel_imovel")
    IncidenceCalculator(pop, no_rent)
    assert len(calls) == 2
    IncidenceCalculator(pop, no_rent)
    assert len(calls) == 2


def test_calculator_fixed_cashback_burden(oracle6, fixture_population):
    calc = IncidenceCalculator(fixture_population, oracle6)
    t = 0.379
    fixed = calc.cashback_total(t)
    assert calc.burden_with_fixed_cashback(t, fixed) == pytest.approx(
        calc.burden_simultaneous(t), abs=1e-15
    )
    assert calc.burden_with_fixed_cashback(t, 0.0) >= calc.burden_simultaneous(t)


def test_denominator_leaves_out_non_denominator_categories(plp68):
    import dataclasses

    schedule = dataclasses.replace(plp68, categories=tuple(
        dataclasses.replace(c, in_denominator=c.id not in ("aluguel_imovel", "apostas_loterias"))
        for c in plp68.categories
    ))
    pop = generate_synthetic(3, 300, plp68)
    in_denom = [c.id for c in schedule.categories if c.in_denominator]
    reference = math.fsum(
        h.weight * math.fsum(h.expenditures[cid] for cid in in_denom) for h in pop.households
    )
    assert denominator_expenditure(pop, schedule) == reference
    assert denominator_expenditure(pop, schedule) < denominator_expenditure(pop, plp68)
