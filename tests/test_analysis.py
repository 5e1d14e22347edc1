"""Quintiles, budget shares, scenario neutrality, and table rendering."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ivasim.analysis as analysis
from ivasim.analysis import (
    ScenarioName,
    SpotCheckError,
    assign_quintiles,
    budget_share_table,
    build_scenario_table,
    compute_scenarios,
    render_budget_shares_csv,
    render_budget_shares_text,
    render_rate_impacts_csv,
    render_rate_impacts_text,
    render_scenarios_csv,
    render_scenarios_text,
    scenario_names,
    _fmt,
)
from ivasim.cli import main
from ivasim.engine import FOLD_ROWS, category_folds
from ivasim.microdata import Household, Population, Provenance, generate_synthetic
from ivasim.schedule import bundled_schedule_path, default_removal_selectors, load_schedule
from ivasim.solver import marginal_rate_impact

from helpers import incidences, monetary_total, per_capita_total, quintile_of, scenario_arrays


@pytest.fixture(scope="module")
def plp68():
    return load_schedule(bundled_schedule_path("plp68"))


@pytest.fixture(scope="module")
def uniform():
    return load_schedule(bundled_schedule_path("uniform"))


@pytest.fixture(scope="module")
def synthetic(plp68):
    return generate_synthetic(42, 2000, plp68)


@pytest.fixture(scope="module")
def quintiles(synthetic):
    return assign_quintiles(synthetic)


@pytest.fixture(scope="module")
def scenario_results(synthetic, plp68):
    return compute_scenarios(
        synthetic,
        plp68,
        [
            ScenarioName.UNIFORM_VAT,
            ScenarioName.PLP68,
            ScenarioName.PLP68_TRANSFER_SWAP,
        ],
    )


def five_households(weights=(1.0,) * 5, totals=(100.0, 200.0, 300.0, 400.0, 500.0)):
    return Population.from_households(
        tuple(
            Household(i + 1, w, 1, 0.0, {"consumo": t}, 0.0)
            for i, (w, t) in enumerate(zip(weights, totals))
        ),
        Provenance("file", "inline"),
    )


# -- quintile assignment -------------------------------------------------------


def test_five_equal_households_one_per_quintile():
    q = assign_quintiles(five_households())
    of = quintile_of(q)
    assert [of[i] for i in range(1, 6)] == [1, 2, 3, 4, 5]
    assert q.boundaries == (200.0, 300.0, 400.0, 500.0)


def test_weight_splitting_keeps_boundaries():
    pop = five_households()
    halves = Population.from_households(
        tuple(
            Household(h.id * 2 + off, h.weight / 2, 1, 0.0, dict(h.expenditures), 0.0)
            for h in pop.households
            for off in (0, 1)
        ),
        Provenance("file", "split"),
    )
    assert assign_quintiles(halves).boundaries == assign_quintiles(pop).boundaries


def test_quintiles_invariant_under_weight_scaling(synthetic):
    scaled = Population.from_households(
        tuple(
            Household(
                h.id, h.weight * 3.7, h.residents, h.income_per_capita,
                dict(h.expenditures), h.nonmonetary_total,
            )
            for h in synthetic.households
        ),
        synthetic.provenance,
    )
    assert quintile_of(assign_quintiles(scaled)) == quintile_of(assign_quintiles(synthetic))


def test_quintile_ties_broken_by_id():
    pop = five_households(totals=(100.0, 100.0, 100.0, 100.0, 100.0))
    of = quintile_of(assign_quintiles(pop))
    assert [of[i] for i in range(1, 6)] == [1, 2, 3, 4, 5]
    # rows given out of id order, with two runs of ties: (total, id) ranks them
    rows = ((5, 100.0), (3, 200.0), (1, 200.0), (4, 100.0), (2, 200.0))
    pop = Population.from_households(
        tuple(Household(hid, 1.0, 1, 0.0, {"consumo": t}, 0.0) for hid, t in rows),
        Provenance("file", "inline"),
    )
    q = assign_quintiles(pop)
    of = quintile_of(q)
    assert [of[i] for i in (4, 5, 1, 2, 3)] == [1, 2, 3, 4, 5]
    assert q.boundaries == (100.0, 200.0, 200.0, 200.0)


def test_quintile_weight_balance(plp68):
    pop = generate_synthetic(42, 10000, plp68)
    of = quintile_of(assign_quintiles(pop))
    total = pop.total_weight()
    w_max = max(h.weight for h in pop.households)
    for k in range(1, 6):
        share = math.fsum(h.weight for h in pop.households if of[h.id] == k) / total
        assert abs(share - 0.2) <= w_max / total
        assert abs(share - 0.2) <= 0.005


def test_quintiles_ranked_by_percapita_total(synthetic, quintiles):
    cuts = quintiles.boundaries
    of = quintile_of(quintiles)
    for h in synthetic.households:
        q = of[h.id]
        if q > 1:
            assert per_capita_total(h) >= cuts[q - 2]
        if q < 5:
            assert per_capita_total(h) <= cuts[q - 1]


# -- budget shares ---------------------------------------------------------------


def test_single_category_schedule_all_cells_100(uniform):
    pop = generate_synthetic(3, 100, uniform)
    rows = budget_share_table(pop, uniform, assign_quintiles(pop))
    data_rows = [r for r in rows if r.group != "total"]
    assert len(data_rows) == 1
    assert all(c == pytest.approx(100.0, abs=1e-12) for c in data_rows[0].cells)


def test_group_spending_is_numpys_row_sum_of_the_gathered_columns(plp68):
    """Table 1's group spending, ``category_folds`` of the members' spending
    with a vector of ones in the members' order, has the bits of
    ``spend[:, cols].sum(axis=1)``, sign of zero included: that sum adds the
    columns of its F-order gather one after another from +0.0, in the order
    given, for any number of them (a C-order row sum of eight or more is
    pairwise).  20k rows cross the folds' block boundaries."""
    pop = generate_synthetic(42, 20_000, plp68)
    spend = np.array(pop.spend, order="F")
    spend[::7] = -0.0  # a valid cell, alone in its row or among positives
    spend[3::11, ::2] = -0.0
    spend[5::13, 1::3] = 0.0
    pop = Population(pop.provenance, pop.category_ids, pop.ids, pop.weight, pop.residents,
                     pop.income_per_capita, pop.nonmonetary_total, spend)
    assert len(pop) > 2 * FOLD_ROWS
    idx = pop.column_index(plp68)
    members = [[j for j, c in enumerate(plp68.categories) if c.group == g]
               for g in plp68.groups()]
    assert sorted({len(m) for m in members}) == [1, 3, 5, 6]
    rng = np.random.default_rng(3)
    positions = list(range(len(plp68.categories)))
    for some in (positions[:9], positions):  # 9 and 20 members
        members += [some, some[::-1], rng.permutation(some).tolist()]
    ones = np.ones(len(positions))
    for order in members:
        expected = spend[:, idx[order]].sum(axis=1)
        got = category_folds(pop, plp68, (ones,), taxable=False, order=order)[0]
        assert got.tobytes() == expected.tobytes(), order
    # the default order is every category in ascending id
    v = rng.random(len(positions))
    by_id = sorted(positions, key=lambda j: plp68.categories[j].id)
    assert by_id != positions
    default = category_folds(pop, plp68, (v,))[0]
    assert default.tobytes() == category_folds(pop, plp68, (v,), order=by_id)[0].tobytes()
    # and the budget shares of a schedule with one twenty-member group
    one_group = replace(plp68, categories=tuple(replace(c, group="tudo") for c in plp68.categories))
    pop = generate_synthetic(7, 3000, plp68)
    q = assign_quintiles(pop)
    cells = budget_share_table(pop, one_group, q)[0].cells
    share = np.zeros(len(pop))
    spending = pop.monetary > 0
    np.divide(pop.spend[:, pop.column_index(one_group)].sum(axis=1), pop.monetary, out=share,
              where=spending)
    of = quintile_of(q)
    for k, cell in zip((1, 2, 3, 4, 5, 0), cells):
        rows = [i for i, hid in enumerate(pop.ids.tolist()) if k in (0, of[hid]) and spending[i]]
        mean = (math.fsum((pop.weight[rows] * share[rows]).tolist())
                / math.fsum(pop.weight[rows].tolist()))
        assert cell.hex() == (100.0 * mean).hex()


def test_columns_close_to_100(synthetic, plp68, quintiles):
    rows = budget_share_table(synthetic, plp68, quintiles)
    totals = next(r for r in rows if r.group == "total")
    for c in totals.cells:
        assert abs(c - 100.0) <= 0.01
    for r in rows:
        assert all(0.0 <= c <= 100.0 + 1e-9 for c in r.cells)


def test_food_basket_falls_and_excise_rises(synthetic, plp68, quintiles):
    rows = {r.group: r.cells for r in budget_share_table(synthetic, plp68, quintiles)}
    cesta = rows["cesta_basica"][:5]
    assert all(b < a for a, b in zip(cesta, cesta[1:]))
    excise = rows["imposto_seletivo"][:5]
    assert all(b > a for a, b in zip(excise, excise[1:]))


def test_total_column_is_population_share(synthetic, plp68, quintiles):
    rows = budget_share_table(synthetic, plp68, quintiles)
    members = {
        g: [c.id for c in plp68.categories if c.group == g]
        for g in plp68.groups()
    }
    for r in rows:
        if r.group == "total":
            continue
        want = 100.0 * math.fsum(
            h.weight * math.fsum(h.expenditures[cid] for cid in members[r.group]) / monetary_total(h)
            for h in synthetic.households
        ) / synthetic.total_weight()
        assert r.cells[5] == pytest.approx(want, abs=1e-9)


def test_zero_spending_household_left_out_of_shares(plp68):
    pop = generate_synthetic(4, 60, plp68)
    idle = Household(10_000, 5.0, 2, 100.0, dict.fromkeys(plp68.category_ids(), 0.0), 0.0)
    with_idle = Population.from_households(pop.households + (idle,), pop.provenance)
    rows = budget_share_table(with_idle, plp68, assign_quintiles(with_idle))
    assert all(math.isfinite(c) for r in rows for c in r.cells)
    without = budget_share_table(pop, plp68, assign_quintiles(pop))
    assert [r.cells[5] for r in rows] == [r.cells[5] for r in without]


# -- scenarios --------------------------------------------------------------------


def test_baseline_always_first(synthetic, plp68, scenario_results):
    names = [r.name for r in scenario_results]
    assert names[0] is ScenarioName.BASELINE
    assert names[1:] == [
        ScenarioName.UNIFORM_VAT,
        ScenarioName.PLP68,
        ScenarioName.PLP68_TRANSFER_SWAP,
    ]


def test_every_scenario_is_revenue_neutral(synthetic, scenario_results):
    base = scenario_results[0]
    base_by_id = {i.household_id: i.net_tax for i in incidences(base)}
    for result in scenario_results[1:]:
        delta = math.fsum(
            h.weight * (inc.net_tax - base_by_id[inc.household_id])
            for h, inc in zip(
                sorted(synthetic.households, key=lambda h: h.id), incidences(result)
            )
        )
        assert abs(delta) <= 1e-6 * base.totals.total_net, result.name


def test_uniform_vat_rate_identity(uniform):
    # baseline burden is exactly 0.201 here, so the uniform outside rate must
    # be 0.201/0.799
    pop = generate_synthetic(5, 800, uniform)
    result = compute_scenarios(pop, uniform, [ScenarioName.UNIFORM_VAT])[1]
    assert result.t_ref.value == pytest.approx(0.201 / 0.799, abs=2e-3)
    assert result.t_ref.value == pytest.approx(0.2516, abs=2e-3)


def test_transfer_swap_is_more_progressive_in_q1(synthetic, quintiles, scenario_results):
    table = dict(
        (r.name, rows)
        for r, rows in build_scenario_table(synthetic, quintiles, scenario_results)
    )
    plp = table[ScenarioName.PLP68]
    swap = table[ScenarioName.PLP68_TRANSFER_SWAP]
    assert swap[0].delta_vs_baseline < plp[0].delta_vs_baseline


def test_transfer_swap_holds_plp68_rate(scenario_results):
    by_name = {r.name: r for r in scenario_results}
    assert (
        by_name[ScenarioName.PLP68_TRANSFER_SWAP].t_ref.value
        == by_name[ScenarioName.PLP68].t_ref.value
    )
    assert by_name[ScenarioName.PLP68_TRANSFER_SWAP].transfer_per_person > 0


def test_scenario_net_is_read_only(scenario_results):
    for r in scenario_results:
        with pytest.raises(ValueError):
            r.net[0] = 1.0


def test_scenario_results_hold_one_array_each(plp68):
    """A call's results hold one float64 vector per scenario, its net tax; the
    gross, cashback and transfer arrays go once they are totalled and checked."""
    pop = generate_synthetic(11, 8000, plp68)
    reforms = [ScenarioName.UNIFORM_VAT, ScenarioName.PLP68, ScenarioName.PLP68_TRANSFER_SWAP]
    pop.monetary
    compute_scenarios(pop, plp68, reforms)  # forms the population's memo
    tracemalloc.start()
    try:
        results = compute_scenarios(pop, plp68, reforms)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(results) == 4
    assert held < 5 * 8 * len(pop)  # four vectors, and the schedules and results around them


def test_each_tables_stage_holds_at_most_three_vectors_of_scratch(plp68):
    """Traced peak of each stage of ``ivasim tables`` above what it holds when
    done, at 50k households with the population's caches and memo formed: at
    most three float64 n-vectors.  With numpy 2.4 the quintiles read 2.3,
    table 1 2.7, table 2 0.0, the scenarios 2.0 and table 3 1.6 (an exact sum's
    16K-element chunks are about one of them at this size); with n-length
    gathers, transfer and rank arrays they read 5.1, 10.1, 0.0, 5.0 and 3.4.
    Synthesis is bounded in test_microdata.py."""
    pop = generate_synthetic(42, 50_000, plp68)
    names = scenario_names(plp68)
    selectors = default_removal_selectors(plp68)

    def traced(stage):
        tracemalloc.start()
        try:
            out = stage()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, (peak - held) / (8 * len(pop))

    def run() -> dict:
        scratch = {}
        q, scratch["quintiles"] = traced(lambda: assign_quintiles(pop))
        _, scratch["table 1"] = traced(lambda: budget_share_table(pop, plp68, q))
        _, scratch["table 2"] = traced(
            lambda: marginal_rate_impact(pop, plp68, selectors, plp68.target_net_burden))
        results, scratch["scenarios"] = traced(lambda: compute_scenarios(pop, plp68, names))
        _, scratch["table 3"] = traced(lambda: build_scenario_table(pop, q, results))
        return scratch

    run()  # forms the population's cached columns and memo
    scratch = run()
    assert max(scratch.values()) <= 3.0, scratch


def test_transfer_swap_alone_solves_the_reform_rate_once(monkeypatch, synthetic, plp68,
                                                         scenario_results):
    calls = []
    exact = analysis.household_taxes

    def counted(population, schedule, t_ref):
        calls.append(t_ref)
        return exact(population, schedule, t_ref)

    monkeypatch.setattr(analysis, "household_taxes", counted)
    baseline, swap = compute_scenarios(
        synthetic, plp68, [ScenarioName.PLP68_TRANSFER_SWAP]
    )
    assert len(calls) == 1
    plp = next(r for r in scenario_results if r.name is ScenarioName.PLP68)
    assert swap.t_ref.value == plp.t_ref.value


def test_scenario_totals_skip_absent_arrays_and_a_net_that_is_gross(monkeypatch, synthetic,
                                                                    plp68):
    full = []
    exact = analysis.weighted_total

    def counted(weights, values):
        if len(values) == len(synthetic):  # the spot check's totals are over six rows
            full.append(values)
        return exact(weights, values)

    monkeypatch.setattr(analysis, "weighted_total", counted)
    results = compute_scenarios(synthetic, plp68, [ScenarioName.UNIFORM_VAT, ScenarioName.PLP68,
                                                   ScenarioName.PLP68_TRANSFER_SWAP])
    # gross alone for the baseline and uniform VAT, gross, cashback and net for
    # plp68 and for the swap (whose revenue and transfer are summed a chunk at
    # a time, so no transfer array is formed): eight fewer than a total of each array
    assert len(full) == 1 + 1 + 3 + 3
    for result in results:
        gross, cashback, transfer = scenario_arrays(result)
        assert result.net.tobytes() == (gross - cashback - transfer).tobytes()
        for field, array in (("total_gross", gross), ("total_cashback", cashback),
                             ("total_transfer", transfer), ("total_net", result.net)):
            # repr tells -0.0 from 0.0
            assert repr(getattr(result.totals, field)) == repr(exact(synthetic.weight, array))


@pytest.mark.parametrize("order", [
    [ScenarioName.PLP68, ScenarioName.PLP68_TRANSFER_SWAP],
    [ScenarioName.PLP68_TRANSFER_SWAP, ScenarioName.PLP68],
    [ScenarioName.PLP68_TRANSFER_SWAP, ScenarioName.PLP68, ScenarioName.PLP68_TRANSFER_SWAP],
])
def test_reform_rate_is_solved_once_in_either_order(monkeypatch, synthetic, plp68,
                                                    scenario_results, order):
    calls = []
    exact = analysis.solve_with_cashback

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(analysis, "solve_with_cashback", counted)
    by_name = {r.name: r for r in compute_scenarios(synthetic, plp68, order)}
    assert len(calls) == 1
    for name in order:
        reference = next(r for r in scenario_results if r.name is name)
        assert by_name[name].t_ref == reference.t_ref
        assert by_name[name].net.tobytes() == reference.net.tobytes()
        for array, expected in zip(scenario_arrays(by_name[name]), scenario_arrays(reference)):
            assert array.tobytes() == expected.tobytes()


def test_transfer_amounts_scale_with_residents(synthetic, scenario_results):
    swap = next(
        r for r in scenario_results if r.name is ScenarioName.PLP68_TRANSFER_SWAP
    )
    by_id = {h.id: h for h in synthetic.households}
    for inc in incidences(swap)[:50]:
        assert inc.transfer == pytest.approx(
            swap.transfer_per_person * by_id[inc.household_id].residents
        )


def test_uniform_vat_delta_share_constant_for_proportional_households(plp68):
    bundle = {c.id: 50.0 for c in plp68.categories}
    pop = Population.from_households(
        tuple(
            Household(i, 1.0, 1, 5000.0, {k: v * s for k, v in bundle.items()}, 0.0)
            for i, s in ((1, 1.0), (2, 2.0), (3, 5.0))
        ),
        Provenance("file", "inline"),
    )
    results = compute_scenarios(pop, plp68, [ScenarioName.UNIFORM_VAT])
    base, uni = results
    base_by_id = {i.household_id: i.net_tax for i in incidences(base)}
    ratios = [
        (inc.net_tax - base_by_id[inc.household_id]) / monetary_total(h)
        for h, inc in zip(sorted(pop.households, key=lambda h: h.id), incidences(uni))
    ]
    assert ratios[0] == pytest.approx(ratios[1], abs=1e-12)
    assert ratios[0] == pytest.approx(ratios[2], abs=1e-12)


def test_spot_check_samples_at_most_six_households(monkeypatch, plp68):
    calls = []

    def counted(fn):
        def wrapper(household, *args):
            calls.append((fn.__name__, household.id))
            return fn(household, *args)
        return wrapper

    monkeypatch.setattr(analysis, "household_tax", counted(analysis.household_tax))
    monkeypatch.setattr(analysis, "baseline_tax", counted(analysis.baseline_tax))
    pop = generate_synthetic(8, 1000, plp68)
    compute_scenarios(pop, plp68, [ScenarioName.PLP68])
    sampled = [hid for name, hid in calls if name == "household_tax"]
    assert 0 < len(sampled) <= 6
    assert sorted(hid for name, hid in calls if name == "baseline_tax") == sorted(sampled)
    eligible = [h.id for h in pop.households if h.income_per_capita <= plp68.eligibility_threshold]
    assert min(eligible) in sampled


def test_spot_check_rejects_a_columnar_fault(monkeypatch, plp68, tmp_path, capsys):
    exact = analysis.household_taxes

    def skewed(population, schedule, t_ref):
        gross, cashback = exact(population, schedule, t_ref)
        return gross * (1.0 + 1e-7), cashback

    monkeypatch.setattr(analysis, "household_taxes", skewed)
    pop = generate_synthetic(5, 200, plp68)
    with pytest.raises(SpotCheckError, match="plp68: household .* gross tax"):
        compute_scenarios(pop, plp68, [ScenarioName.PLP68])
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "5:200",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "reference path" in capsys.readouterr().err


def test_transfer_swap_without_its_group_is_refused_before_any_solve(uniform, plp68, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(analysis, "solve_given_cashback", no_solve)
    monkeypatch.setattr(analysis, "solve_with_cashback", no_solve)
    pop = generate_synthetic(5, 50, uniform)
    swap = ScenarioName.PLP68_TRANSFER_SWAP
    with pytest.raises(ValueError, match="'plp68_transfer_swap' retaxes 'cesta_basica'"):
        compute_scenarios(pop, uniform, [ScenarioName.UNIFORM_VAT, swap])
    assert swap not in scenario_names(uniform)
    assert scenario_names(plp68) == (ScenarioName.UNIFORM_VAT, ScenarioName.PLP68, swap)


def test_empty_scenario_list_errors(synthetic, plp68, quintiles):
    with pytest.raises(ValueError, match="empty scenario list"):
        compute_scenarios(synthetic, plp68, [])
    with pytest.raises(ValueError, match="empty scenario list"):
        build_scenario_table(synthetic, quintiles, [])


def test_scenario_table_refuses_other_quintiles_and_results_without_baseline(
        synthetic, plp68, quintiles, scenario_results):
    other = generate_synthetic(42, 1999, plp68)
    with pytest.raises(ValueError, match="^the quintiles were assigned to another population$"):
        build_scenario_table(other, quintiles, scenario_results)
    with pytest.raises(ValueError, match="^scenario results must include the baseline$"):
        build_scenario_table(synthetic, quintiles, scenario_results[1:])


def test_baseline_among_the_scenario_names_is_skipped(synthetic, plp68, scenario_results):
    results = compute_scenarios(synthetic, plp68,
                                [ScenarioName.UNIFORM_VAT, ScenarioName.BASELINE])
    assert [r.name for r in results] == [ScenarioName.BASELINE, ScenarioName.UNIFORM_VAT]
    for result, reference in zip(results, scenario_results):
        assert result.net.tobytes() == reference.net.tobytes()


# -- rendering ---------------------------------------------------------------------


def test_budget_share_csv_layout(synthetic, plp68, quintiles):
    rows = budget_share_table(synthetic, plp68, quintiles)
    csv_text = render_budget_shares_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "group,q1,q2,q3,q4,q5,total"
    assert len(lines) == 1 + len(plp68.groups()) + 1  # header + groups + total
    assert all(len(line.split(",")) == 7 for line in lines)


def test_rate_impacts_render(synthetic, plp68):
    rows = marginal_rate_impact(synthetic, plp68, ["cesta_basica"], 0.201)
    csv_text = render_rate_impacts_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "label,selector,rate_outside_pct,delta_pp"
    assert lines[1].endswith(",")  # anchor row has no delta
    assert len(lines) == 4
    txt = render_rate_impacts_text(rows)
    assert "cesta_basica" in txt


def test_scenario_csv_layout(synthetic, quintiles, scenario_results):
    table = build_scenario_table(synthetic, quintiles, scenario_results)
    lines = render_scenarios_csv(table).strip().split("\n")
    assert len(lines) == 1 + 6 * len(scenario_results)
    assert lines[1].startswith("baseline,1,")
    assert lines[6].startswith("baseline,total,")


def test_rendering_is_deterministic(synthetic, plp68, quintiles, scenario_results):
    rows = budget_share_table(synthetic, plp68, quintiles)
    assert render_budget_shares_csv(rows) == render_budget_shares_csv(rows)
    assert render_budget_shares_text(rows) == render_budget_shares_text(rows)
    table = build_scenario_table(synthetic, quintiles, scenario_results)
    assert render_scenarios_csv(table) == render_scenarios_csv(table)
    assert render_scenarios_text(table) == render_scenarios_text(table)


def test_render_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        render_scenarios_csv([])


def test_no_negative_zero_cells():
    assert _fmt(-0.4, 0) == "0"
    assert _fmt(-0.04, 1) == "0.0"
    assert _fmt(-0.6, 0) == "-1"
    assert _fmt(-45.2, 0) == "-45"
    assert _fmt(36.44, 1) == "36.4"
