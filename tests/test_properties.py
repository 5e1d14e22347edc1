"""Property tests: the columnar path against the per-household reference path.

Small random schedules and populations, each with a cashback-eligible
household and renters on both sides of the rent reducer, check that

* every scenario's per-household arrays match the scalar functions,
* every reform scenario is revenue neutral,
* calculator totals match the scalar aggregate and do not change when
  households are permuted or one household is split into two half-weight rows.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivasim.analysis import ScenarioName, ScenarioSpec, compute_scenarios
from ivasim.engine import IncidenceCalculator, aggregate, household_tax, with_cashback
from ivasim.microdata import Household, Population, Provenance
from ivasim.rates import Rate
from ivasim.schedule import parse_schedule

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
REL = 1e-9

# categories a drawn schedule may leave out
OPTIONAL = ("reduzida", "especifico", "seletivo", "nao_tributado")


def _category(cid, treatment, cashback, baseline):
    return {
        "id": cid,
        "label": cid,
        "treatment": treatment,
        "cashback_class": cashback,
        "in_denominator": True,
        "baseline_effective": baseline,
    }


@st.composite
def schedules(draw):
    baseline = st.floats(0.18, 0.3)
    reducer = draw(st.floats(50.0, 400.0))
    categories = [
        _category("cesta_basica", {"kind": "zero_rate"}, "standard", draw(baseline)),
        _category(
            "geral",
            {"kind": "reference_rate"},
            draw(st.sampled_from(["standard", "utility_enhanced"])),
            draw(baseline),
        ),
        _category(
            "aluguel",
            {"kind": "rent_regime", "fraction": draw(st.floats(0.1, 1.0)), "reducer": reducer},
            "standard",
            draw(baseline),
        ),
    ]
    optional = {
        "reduzida": ({"kind": "reduced_fraction", "fraction": draw(st.floats(0.2, 0.8))},
                     "standard"),
        "especifico": ({"kind": "specific_regime", "effective": draw(st.floats(0.0, 0.1))},
                       "utility_enhanced"),
        "seletivo": ({"kind": "selective", "is_rate": draw(st.floats(0.0, 0.15)),
                      "vat_fraction": draw(st.floats(0.5, 1.0))}, "excluded"),
        "nao_tributado": ({"kind": "untaxed"}, "standard"),
    }
    for cid in OPTIONAL:
        if draw(st.booleans()):
            treatment, cashback = optional[cid]
            categories.append(_category(cid, treatment, cashback, draw(baseline)))
    return parse_schedule(
        {
            "categories": draw(st.permutations(categories)),
            "cashback": {
                "utility_refund_share": draw(st.floats(0.0, 0.3)),
                "standard_refund_share": draw(st.floats(0.0, 0.3)),
            },
            "eligibility_threshold": draw(st.floats(100.0, 1000.0)),
        }
    )


@st.composite
def cases(draw):
    """A schedule and a population whose first three rows are an eligible
    household, a renter below the reducer and a renter above it."""
    schedule = draw(schedules())
    threshold = schedule.eligibility_threshold
    reducer = schedule.by_id("aluguel").treatment.reducer
    n = draw(st.integers(3, 8))
    ids = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
    households = []
    for i, hid in enumerate(ids):
        income = draw(st.floats(0.0, threshold)) if i == 0 else draw(st.floats(0.0, 2 * threshold))
        spend = {c: draw(st.floats(0.0, 200.0)) for c in schedule.category_ids()}
        if i == 1:
            spend["aluguel"] = draw(st.floats(0.0, 0.99)) * reducer
        elif i == 2:
            spend["aluguel"] = reducer + draw(st.floats(1.0, 1000.0))
        else:
            spend["aluguel"] = draw(st.sampled_from([0.0, 0.5 * reducer, 2.0 * reducer]))
        # reference-rate spending at least matches the rest, so every target is reachable
        spend["geral"] = math.fsum(v for c, v in spend.items() if c != "geral") + draw(
            st.floats(50.0, 500.0)
        )
        households.append(
            Household(
                hid, draw(st.floats(0.5, 200.0)), draw(st.integers(1, 6)), income,
                spend, draw(st.floats(0.0, 300.0)),
            )
        )
    return schedule, Population(tuple(households), Provenance("file", "property"))


def _close(fast, reference, scale):
    return abs(fast - reference) <= REL * scale


REFORMS = [
    ScenarioSpec(ScenarioName.UNIFORM_VAT),
    ScenarioSpec(ScenarioName.PLP68),
    ScenarioSpec(ScenarioName.PLP68_TRANSFER_SWAP),
]


@PROPERTY_SETTINGS
@given(cases())
def test_scenario_arrays_match_scalar_oracle(case):
    schedule, population = case
    results = compute_scenarios(population, schedule, REFORMS)
    assert [r.spec.name for r in results] == [ScenarioName.BASELINE] + [s.name for s in REFORMS]
    ordered = sorted(population.households, key=lambda h: h.id)
    for result in results:
        assert [inc.household_id for inc in result.incidences] == [h.id for h in ordered]
        for i, inc in enumerate(result.incidences):
            scale = abs(inc.gross_tax) + abs(inc.cashback) + abs(inc.transfer)
            assert _close(result.gross[i], inc.gross_tax, scale), (result.spec.name, i)
            assert _close(result.cashback[i], inc.cashback, scale), (result.spec.name, i)
            assert _close(result.transfer[i], inc.transfer, scale), (result.spec.name, i)
            assert _close(result.net[i], inc.net_tax, scale), (result.spec.name, i)

    baseline = results[0]
    weights = [h.weight for h in ordered]
    for result in results[1:]:
        delta = math.fsum(w * (a - b) for w, a, b in zip(weights, result.net, baseline.net))
        assert abs(delta) <= 1e-6 * baseline.totals.total_net, result.spec.name


def _totals(population, schedule, rates):
    calc = IncidenceCalculator(population, schedule)
    return [(calc.gross_total(t), calc.cashback_total(t)) for t in rates]


RATES = (0.0, 0.12, 0.379, 1.5)


@PROPERTY_SETTINGS
@given(cases(), st.randoms(use_true_random=False))
def test_totals_invariant_to_household_order(case, rnd):
    schedule, population = case
    shuffled = list(population.households)
    rnd.shuffle(shuffled)
    permuted = Population(tuple(shuffled), population.provenance)
    assert _totals(permuted, schedule, RATES) == _totals(population, schedule, RATES)

    for t, (gross, cashback) in zip(RATES, _totals(population, schedule, RATES)):
        reference = aggregate(
            population,
            [
                with_cashback(h, household_tax(h, schedule, Rate.outside(t)), schedule)
                for h in population.households
            ],
            schedule,
        )
        assert gross == pytest.approx(reference.total_gross, rel=REL, abs=1e-9)
        assert cashback == pytest.approx(reference.total_cashback, rel=REL, abs=1e-9)


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_totals_invariant_to_weight_splitting(case, data):
    schedule, population = case
    k = data.draw(st.integers(0, len(population) - 1))
    h = population.households[k]
    new_id = max(x.id for x in population.households) + 1
    halves = [
        Household(hid, h.weight / 2.0, h.residents, h.income_per_capita,
                  dict(h.expenditures), h.nonmonetary_total)
        for hid in (h.id, new_id)
    ]
    split = Population(
        population.households[:k] + tuple(halves) + population.households[k + 1:],
        population.provenance,
    )
    assert _totals(split, schedule, RATES) == _totals(population, schedule, RATES)
    assert (
        IncidenceCalculator(split, schedule).denominator
        == IncidenceCalculator(population, schedule).denominator
    )
