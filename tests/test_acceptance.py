"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.  Each criterion asserts, so the suite fails loudly under
plain pytest too.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import pytest

from ivasim.analysis import (
    ScenarioName,
    assign_quintiles,
    budget_share_table,
    compute_scenarios,
)
from ivasim.cli import main as cli_main
from ivasim.engine import (
    IncidenceCalculator,
    aggregate,
    baseline_tax,
    household_cashback,
    household_tax,
    with_cashback,
)
from ivasim.microdata import Household, generate_synthetic, load_population
from ivasim.rates import Rate, to_outside
from ivasim.schedule import (
    ScheduleError,
    TreatmentKind,
    bundled_schedule_path,
    load_schedule,
    resolve_selector,
    with_removal,
)
from ivasim.solver import solve_given_cashback, solve_with_cashback

from helpers import burden_simultaneous, incidences, quintile_of

DATA = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def plp68():
    return load_schedule(bundled_schedule_path("plp68"))


@pytest.fixture(scope="module")
def uniform():
    return load_schedule(bundled_schedule_path("uniform"))


@pytest.fixture(scope="module")
def pop10k(plp68):
    return generate_synthetic(42, 10000, plp68)


@pytest.fixture(scope="module")
def pop2k(plp68):
    return generate_synthetic(42, 2000, plp68)


def scalar_net_burden(population, schedule, t_outside):
    """Independent re-measure through the per-household reference path."""
    incs = [
        with_cashback(h, household_tax(h, schedule, Rate.outside(t_outside)), schedule)
        for h in population.households
    ]
    return aggregate(population, incs, schedule).net_burden


def simultaneous_bisection(population, schedule, target, tol=1e-12):
    """Direct bisection on the self-consistent burden, no fixed point."""
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


def test_criterion_1_rate_pair_reproduction():
    pairs_pct = [
        (33.0, 49.3),
        (27.0, 37.0),
        (18.0, 22.0),
        (14.0, 16.3),
        (20.0, 25.0),
        (27.5, 37.9),
    ]
    errors = [
        abs(to_outside(Rate.inside(inside / 100.0)).value * 100.0 - outside)
        for inside, outside in pairs_pct
    ]
    _report(
        1,
        max(errors) <= 0.1 + 1e-12,
        f"six inside/outside pairs reproduce, max error {max(errors):.4f} p.p.",
    )


def test_criterion_2_uniform_vat_identity(uniform):
    start = time.perf_counter()
    rates = []
    for seed in (1, 7, 42):
        pop = generate_synthetic(seed, 500, uniform)
        rates.append(solve_with_cashback(pop, uniform, 0.201).t_ref.value)
    elapsed = time.perf_counter() - start
    worst = max(abs(r - 0.2516) for r in rates)
    _report(
        2,
        worst <= 1e-4 and elapsed < 1.0,
        f"uniform schedule solves to 0.2516 on 3 seeds, "
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_revenue_neutrality(pop10k, plp68):
    start = time.perf_counter()
    result = solve_with_cashback(pop10k, plp68, 0.201)
    elapsed = time.perf_counter() - start
    remeasured = scalar_net_burden(pop10k, plp68, result.t_ref.value)
    rel = abs(remeasured - 0.201) / 0.201
    _report(
        3,
        rel <= 1e-7 and elapsed < 5.0,
        f"seed 42 n=10000 solves to {result.t_ref.value:.6f}, re-measured "
        f"burden off target by {rel:.2e} relative, solve {elapsed:.2f}s",
    )


def test_criterion_4_solver_cross_validation(plp68, uniform, pop2k):
    oracle6 = load_schedule(DATA / "oracle6.json")
    cases = [
        ("oracle6", load_population(DATA / "oracle6_households.csv", oracle6), oracle6),
        ("plp68", pop2k, plp68),
        ("uniform", generate_synthetic(7, 500, uniform), uniform),
    ]
    gaps = {}
    for name, pop, sched in cases:
        solved = solve_with_cashback(pop, sched, 0.201).t_ref.value
        oracle = simultaneous_bisection(pop, sched, 0.201)
        gaps[name] = abs(solved - oracle)
    worst = max(gaps.values())
    _report(
        4,
        worst <= 1e-7,
        "fixed point matches simultaneous bisection on all fixtures, "
        f"max gap {worst:.2e}",
    )


def test_criterion_5_brute_force_oracle():
    oracle6 = load_schedule(DATA / "oracle6.json")
    population = load_population(DATA / "oracle6_households.csv", oracle6)
    oracle = json.loads((DATA / "engine_oracle.json").read_text())
    t_ref = Rate.outside(oracle["t_ref_outside"])
    worst = 0.0
    incs = []
    for h in population.households:
        want = oracle["households"][str(h.id)]
        inc = household_tax(h, oracle6, t_ref)
        for cid, expected in want["per_category_tax"].items():
            worst = max(worst, abs(inc.per_category_tax[cid] - expected))
        worst = max(worst, abs(inc.gross_tax - want["gross_tax"]))
        worst = max(worst, abs(household_cashback(h, inc, oracle6) - want["cashback"]))
        worst = max(worst, abs(baseline_tax(h, oracle6).gross_tax - want["baseline_tax"]))
        incs.append(with_cashback(h, inc, oracle6))
    agg = aggregate(population, incs, oracle6)
    want = oracle["aggregate"]
    worst = max(worst, abs(agg.total_gross - want["total_gross"]))
    worst = max(worst, abs(agg.total_cashback - want["total_cashback"]))
    worst = max(worst, abs(agg.total_net - want["total_net"]))
    worst = max(worst, abs(agg.net_burden - want["net_burden"]))
    _report(
        5,
        worst <= 1e-9,
        f"5-household fixture matches rational-arithmetic oracle, "
        f"max abs error {worst:.2e}",
    )


def test_criterion_6_directional_suite(pop2k, plp68):
    anchor = solve_given_cashback(pop2k, plp68, 0.0, 0.201).value
    lowering_kinds = (TreatmentKind.ZERO_RATE, TreatmentKind.REDUCED_FRACTION)
    checks = []
    for group in plp68.groups():
        kinds = {c.treatment.kind for c in plp68.categories if c.group == group}
        if kinds <= set(lowering_kinds):
            solved = solve_given_cashback(
                pop2k, with_removal(plp68, group), 0.0, 0.201
            ).value
            checks.append((f"remove {group} lowers", solved < anchor))
        elif kinds == {TreatmentKind.SELECTIVE}:
            solved = solve_given_cashback(
                pop2k, with_removal(plp68, group), 0.0, 0.201
            ).value
            checks.append((f"remove {group} raises", solved > anchor))
    with_cb = solve_with_cashback(pop2k, plp68, 0.201).t_ref.value
    checks.append(("cashback raises the final rate", with_cb > anchor))
    assert len(checks) == 6  # 4 favored groups + selective + cashback
    failed = [name for name, ok in checks if not ok]
    _report(
        6,
        not failed,
        "all removal directions hold" if not failed else f"failed: {failed}",
    )


def test_criterion_7_scenario_neutrality(pop2k, plp68):
    results = compute_scenarios(
        pop2k,
        plp68,
        [
            ScenarioName.UNIFORM_VAT,
            ScenarioName.PLP68,
            ScenarioName.PLP68_TRANSFER_SWAP,
        ],
    )
    baseline = results[0]
    base_net = {i.household_id: i.net_tax for i in incidences(baseline)}
    by_id = {h.id: h for h in pop2k.households}
    worst = 0.0
    for result in results[1:]:
        delta = math.fsum(
            by_id[inc.household_id].weight * (inc.net_tax - base_net[inc.household_id])
            for inc in incidences(result)
        )
        worst = max(worst, abs(delta) / baseline.totals.total_net)
    _report(
        7,
        worst <= 1e-6,
        f"three reform scenarios revenue-neutral, max |delta|/revenue {worst:.2e}",
    )


def test_criterion_8_share_closure_and_quintile_balance(pop10k, plp68):
    quintiles = assign_quintiles(pop10k)
    rows = budget_share_table(pop10k, plp68, quintiles)
    totals = next(r for r in rows if r.group == "total")
    closure = max(abs(c - 100.0) for c in totals.cells)

    of = quintile_of(quintiles)
    total_w = pop10k.total_weight()
    w_max = max(h.weight for h in pop10k.households)
    balance = max(
        abs(
            math.fsum(
                h.weight
                for h in pop10k.households
                if of[h.id] == k
            )
            / total_w
            - 0.2
        )
        for k in range(1, 6)
    )
    _report(
        8,
        closure <= 0.01 and balance <= w_max / total_w,
        f"columns close to 100 (worst {closure:.2e}), quintile weight shares "
        f"within {balance:.2e} of 0.2 (bound {w_max / total_w:.2e})",
    )


def test_criterion_9_tables_determinism(tmp_path):
    args = ["tables", "--schedule", "plp68", "--synthetic", "42:500"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    identical = all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    _report(
        9,
        identical and len(names) == 7,
        f"two tables runs produced {len(names)} byte-identical files",
    )


def test_criterion_10_degenerate_inputs(pop2k, plp68):
    checks = []

    spending = {c.id: 0.0 for c in plp68.categories}
    spending["aluguel_imovel"] = 300.0  # below the 400 reducer
    h = Household(1, 1.0, 2, 1000.0, spending, 0.0)
    inc = household_tax(h, plp68, Rate.outside(0.379))
    checks.append(("rent below reducer yields zero tax", inc.gross_tax == 0.0))

    no_refund = dataclasses.replace(
        plp68, utility_refund_share=0.0, standard_refund_share=0.0
    )
    free = solve_given_cashback(pop2k, no_refund, 0.0, 0.201)
    looped = solve_with_cashback(pop2k, no_refund, 0.201)
    checks.append(
        (
            "zero refund shares collapse to the cashback-free solve",
            looped.t_ref.value == free.value and looped.iterations == 1,
        )
    )

    try:
        resolve_selector(plp68, "")
        checks.append(("empty removal selector rejected", False))
    except ScheduleError:
        checks.append(("empty removal selector rejected", True))

    failed = [name for name, ok in checks if not ok]
    _report(
        10,
        not failed,
        "degenerate inputs handled" if not failed else f"failed: {failed}",
    )
