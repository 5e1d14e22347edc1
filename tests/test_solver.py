"""Solver cross-validation against independent oracles.

Two routes confirm the fixed-point solver: a dense grid search over candidate
rates using only the scalar engine functions, and a direct bisection on the
simultaneous system (cashback evaluated at the candidate rate itself).
"""

import math
from pathlib import Path

import pytest

from ivasim.engine import IncidenceCalculator, aggregate, household_tax, with_cashback
from ivasim.microdata import Household, Population, Provenance, generate_synthetic, load_population
from ivasim.rates import Rate
from ivasim.schedule import (
    bundled_schedule_path,
    load_schedule,
    parse_schedule,
    with_removal,
)
from ivasim import solver
from ivasim.solver import (
    NonConvergenceError,
    RateImpactRow,
    SolverError,
    TraceRow,
    UnreachableTargetError,
    marginal_rate_impact,
    solve_given_cashback,
    solve_with_cashback,
)

from helpers import burden_simultaneous

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def oracle6():
    return load_schedule(DATA / "oracle6.json")


@pytest.fixture(scope="module")
def fixture_population(oracle6):
    return load_population(DATA / "oracle6_households.csv", oracle6)


@pytest.fixture(scope="module")
def plp68():
    return load_schedule(bundled_schedule_path("plp68"))


@pytest.fixture(scope="module")
def synthetic(plp68):
    return generate_synthetic(42, 1500, plp68)


@pytest.fixture(scope="module")
def uniform():
    return load_schedule(bundled_schedule_path("uniform"))


def scalar_burden(population, schedule, t_outside, with_cb):
    """Net burden via the per-household reference path only."""
    incs = []
    for h in population.households:
        inc = household_tax(h, schedule, Rate.outside(t_outside))
        if with_cb:
            inc = with_cashback(h, inc, schedule)
        incs.append(inc)
    return aggregate(population, incs, schedule).net_burden


# -- grid-search oracle ------------------------------------------------------


GRID_SCHEDULE = parse_schedule(
    {
        "categories": [
            {
                "id": "alimentos",
                "label": "Alimentos",
                "treatment": {"kind": "zero_rate"},
                "cashback_class": "standard",
                "in_denominator": True,
                "baseline_effective": 0.08,
            },
            {
                "id": "geral",
                "label": "Geral",
                "treatment": {"kind": "reference_rate"},
                "cashback_class": "standard",
                "in_denominator": True,
                "baseline_effective": 0.22,
            },
            {
                "id": "servicos",
                "label": "Serviços",
                "treatment": {"kind": "reduced_fraction", "fraction": 0.4},
                "cashback_class": "standard",
                "in_denominator": True,
                "baseline_effective": 0.12,
            },
            {
                "id": "fumo",
                "label": "Fumo",
                "treatment": {"kind": "selective", "is_rate": {"value": 0.19, "basis": "outside"}},
                "cashback_class": "excluded",
                "in_denominator": True,
                "baseline_effective": 0.39,
            },
        ],
        "cashback": {"utility_refund_share": 0.0, "standard_refund_share": 0.0},
        "eligibility_threshold": 0.0,
    }
)

GRID_POPULATION = Population.from_households(
    (
        Household(1, 2.0, 3, 500.0, {"alimentos": 300.0, "geral": 450.0, "servicos": 120.0, "fumo": 30.0}, 50.0),
        Household(2, 1.0, 1, 1200.0, {"alimentos": 150.0, "geral": 900.0, "servicos": 400.0, "fumo": 80.0}, 0.0),
        Household(3, 3.0, 2, 800.0, {"alimentos": 200.0, "geral": 600.0, "servicos": 250.0, "fumo": 0.0}, 100.0),
    ),
    Provenance("file", "inline"),
)


def test_bisection_matches_dense_grid_search():
    target = 0.201
    solved = solve_given_cashback(GRID_POPULATION, GRID_SCHEDULE, 0.0, target).value

    # coarse scan brackets the crossing, then a 1e-6 grid pins it down using
    # only the scalar engine path
    def burden(t):
        return scalar_burden(GRID_POPULATION, GRID_SCHEDULE, t, with_cb=False)

    coarse = 1e-3
    lo = 0.0
    while burden(lo + coarse) < target:
        lo += coarse
    step = 1e-6
    best_t, best_err = lo, abs(burden(lo) - target)
    t = lo
    while t <= lo + coarse + step:
        err = abs(burden(t) - target)
        if err < best_err:
            best_t, best_err = t, err
        t += step
    assert abs(solved - best_t) <= 2e-6


def test_resolving_reproduces_target(oracle6, fixture_population, synthetic, plp68):
    for pop, schedule in ((fixture_population, oracle6), (synthetic, plp68)):
        rate = solve_given_cashback(pop, schedule, 0.0, 0.201)
        assert scalar_burden(pop, schedule, rate.value, with_cb=False) == pytest.approx(
            0.201, abs=1e-9
        )


# -- simultaneous-bisection oracle -------------------------------------------


def simultaneous_bisection(population, schedule, target, tol=1e-12):
    """Direct bisection on g(t) = self-consistent burden(t) - target."""
    calc = IncidenceCalculator(population, schedule)
    lo, hi = 0.0, 5.0
    while burden_simultaneous(calc, hi) < target:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if burden_simultaneous(calc, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("target", [0.15, 0.201])
def test_fixed_point_agrees_with_simultaneous_bisection(
    oracle6, fixture_population, synthetic, plp68, uniform, target
):
    cases = [
        (fixture_population, oracle6),
        (synthetic, plp68),
        (generate_synthetic(7, 500, uniform), uniform),
    ]
    for pop, schedule in cases:
        fixed_point = solve_with_cashback(pop, schedule, target).t_ref.value
        direct = simultaneous_bisection(pop, schedule, target)
        assert abs(fixed_point - direct) <= 1e-7


def test_converged_rate_satisfies_simultaneous_condition(synthetic, plp68):
    res = solve_with_cashback(synthetic, plp68, 0.201)
    burden = scalar_burden(synthetic, plp68, res.t_ref.value, with_cb=True)
    assert burden == pytest.approx(0.201, abs=1e-7)
    assert res.residual <= 1e-7


def test_trace_rows_evaluate_cashback_once(synthetic, plp68, monkeypatch):
    calls = []
    original = IncidenceCalculator.cashback_total
    monkeypatch.setattr(
        IncidenceCalculator, "cashback_total", lambda self, t: calls.append(t) or original(self, t)
    )
    res = solve_with_cashback(synthetic, plp68, 0.201)
    assert calls == [row.t_ref_outside for row in res.trace]
    for row in res.trace:
        calc = IncidenceCalculator(synthetic, plp68)
        assert row.net_burden == burden_simultaneous(calc, row.t_ref_outside)


# -- examples and degenerate cases -------------------------------------------


def test_uniform_vat_example(uniform):
    pop = generate_synthetic(3, 400, uniform)
    rate = solve_given_cashback(pop, uniform, 0.0, 0.20)
    # burden b on a pure reference-rate base implies t_out = b/(1-b)
    assert rate.value == pytest.approx(0.25, abs=1e-9)


def test_target_zero_with_no_fixed_rates(uniform):
    pop = generate_synthetic(3, 50, uniform)
    assert solve_given_cashback(pop, uniform, 0.0, 0.0).value == 0.0


def test_zero_refund_shares_degenerate_to_plain_solve(uniform):
    pop = generate_synthetic(9, 300, uniform)
    plain = solve_given_cashback(pop, uniform, 0.0, 0.201)
    res = solve_with_cashback(pop, uniform, 0.201)
    assert res.t_ref.value == plain.value
    assert res.iterations == 1
    assert res.cashback_total == 0.0
    assert len(res.trace) == 2  # initial solve plus the confirming pass


def test_cashback_raises_the_rate(oracle6, fixture_population, synthetic, plp68):
    for pop, schedule in ((fixture_population, oracle6), (synthetic, plp68)):
        without = solve_given_cashback(pop, schedule, 0.0, 0.201).value
        with_cb = solve_with_cashback(pop, schedule, 0.201).t_ref.value
        assert with_cb > without


def test_unreachable_high_target(oracle6, fixture_population):
    # much of this fixture's spending is zero-rated or under fixed regimes,
    # so the burden saturates well below 90%
    with pytest.raises(UnreachableTargetError, match="achievable range"):
        solve_given_cashback(fixture_population, oracle6, 0.0, 0.9)


def test_unreachable_low_target(oracle6, fixture_population):
    # the fixed specific/selective components alone overshoot a near-zero target
    with pytest.raises(UnreachableTargetError, match="achievable"):
        solve_given_cashback(fixture_population, oracle6, 0.0, 0.0005)
    try:
        solve_given_cashback(fixture_population, oracle6, 0.0, 0.0005)
    except UnreachableTargetError as e:
        lo, hi = e.achievable
        assert 0.0005 < lo < hi


def test_invalid_target_rejected(uniform):
    pop = generate_synthetic(3, 50, uniform)
    with pytest.raises(SolverError, match="target"):
        solve_given_cashback(pop, uniform, 0.0, -0.1)
    with pytest.raises(SolverError, match="target"):
        solve_with_cashback(pop, uniform, 1.0)


@pytest.mark.parametrize("nan_at", [0.0, 5.0, 2.5])  # at the bracket's low end, high end, middle
def test_bisection_refuses_a_nan_burden(nan_at):
    class Calculator:
        """A burden that rises through the target, and is NaN at one rate."""

        def __init__(self):
            self.rates = []

        def burden_with_fixed_cashback(self, t, fixed_cashback):
            self.rates.append(t)
            return math.nan if t == nan_at else t / (1.0 + t)

    calc = Calculator()
    with pytest.raises(SolverError, match=r"is NaN: target 0\.2 cannot be bracketed"):
        solver._bisect(calc, 0.0, 0.2)
    assert calc.rates[-1] == nan_at  # refused at the first NaN, not bisected on to 0


def test_nonconvergence_error_carries_trace():
    rows = (TraceRow(0, 0.3, 10.0, 0.2),)
    err = NonConvergenceError("no luck", rows)
    assert isinstance(err, SolverError)
    assert err.trace == rows


# -- directional suite (counterfactual removals) ------------------------------


def test_removing_favored_groups_lowers_rate(synthetic, plp68):
    base = solve_given_cashback(synthetic, plp68, 0.0, 0.201).value
    for selector in ("cesta_basica", "aliquota_zero", "reduzida_40", "reduzida_70"):
        removed = solve_given_cashback(
            synthetic, with_removal(plp68, selector), 0.0, 0.201
        ).value
        assert removed < base, selector


def test_removing_selective_raises_rate(synthetic, plp68):
    base = solve_given_cashback(synthetic, plp68, 0.0, 0.201).value
    removed = solve_given_cashback(
        synthetic, with_removal(plp68, "imposto_seletivo"), 0.0, 0.201
    ).value
    assert removed > base


def test_removing_unbought_group_changes_nothing():
    raw = GRID_SCHEDULE.to_dict()
    raw["categories"].append(
        {
            "id": "navios",
            "label": "Navios",
            "group": "luxo",
            "treatment": {"kind": "reduced_fraction", "fraction": 0.4},
            "cashback_class": "standard",
            "in_denominator": True,
            "baseline_effective": {"value": 0.2, "basis": "inside"},
        }
    )
    schedule = parse_schedule(raw)
    pop = Population.from_households(
        tuple(
            Household(
                h.id, h.weight, h.residents, h.income_per_capita,
                dict(h.expenditures) | {"navios": 0.0}, h.nonmonetary_total,
            )
            for h in GRID_POPULATION.households
        ),
        GRID_POPULATION.provenance,
    )
    base = solve_given_cashback(pop, schedule, 0.0, 0.201).value
    removed = solve_given_cashback(pop, with_removal(schedule, "luxo"), 0.0, 0.201).value
    assert abs(removed - base) <= 1e-9


# -- rate-impact table --------------------------------------------------------


def test_marginal_rate_impact_layout(synthetic, plp68):
    rows = marginal_rate_impact(synthetic, plp68, ["cesta_basica"], 0.201)
    assert len(rows) == 3
    anchor, removal, cashback = rows
    assert anchor.delta_pp is None
    assert removal.selector == "cesta_basica"
    assert removal.delta_pp == pytest.approx(
        (removal.rate_outside - anchor.rate_outside) * 100.0
    )
    assert removal.delta_pp < 0
    assert cashback.delta_pp > 0
    assert cashback.rate_outside > anchor.rate_outside


def test_marginal_rate_impact_anchor_is_first_cashback_free_step(synthetic, plp68, monkeypatch):
    # the anchor is read from the self-consistent solve's first step; only the
    # removal rows solve on their own
    anchor = solve_given_cashback(synthetic, plp68, 0.0, 0.201).value
    calls = []
    original = solver.solve_given_cashback
    monkeypatch.setattr(
        solver, "solve_given_cashback", lambda *a: calls.append(a) or original(*a)
    )
    rows = marginal_rate_impact(synthetic, plp68, ["cesta_basica", "aluguel"], 0.201)
    assert rows[0].rate_outside == anchor
    assert [a[1] for a in calls] == [with_removal(plp68, "cesta_basica"), with_removal(plp68, "aluguel")]


def test_marginal_rate_impact_full_default_set(synthetic, plp68):
    selectors = ["cesta_basica", "aliquota_zero", "reduzida_40", "reduzida_70",
                 "aluguel", "regime_especifico", "imposto_seletivo"]
    rows = marginal_rate_impact(synthetic, plp68, selectors, 0.201)
    assert len(rows) == 9
    by_sel = {r.selector: r for r in rows if r.selector}
    assert by_sel["imposto_seletivo"].delta_pp > 0
    for sel in ("cesta_basica", "aliquota_zero", "reduzida_40", "reduzida_70"):
        assert by_sel[sel].delta_pp < 0
