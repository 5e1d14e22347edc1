"""Quintiles, budget shares, scenario neutrality, and table rendering."""

import math

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
    _fmt,
)
from ivasim.cli import main
from ivasim.microdata import Household, Population, Provenance, generate_synthetic
from ivasim.schedule import bundled_schedule_path, load_schedule
from ivasim.solver import marginal_rate_impact


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
    assert [q.quintile_of[i] for i in range(1, 6)] == [1, 2, 3, 4, 5]
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
    assert assign_quintiles(scaled).quintile_of == assign_quintiles(synthetic).quintile_of


def test_quintile_ties_broken_by_id():
    pop = five_households(totals=(100.0, 100.0, 100.0, 100.0, 100.0))
    q = assign_quintiles(pop)
    assert [q.quintile_of[i] for i in range(1, 6)] == [1, 2, 3, 4, 5]


def test_quintile_weight_balance(plp68):
    pop = generate_synthetic(42, 10000, plp68)
    q = assign_quintiles(pop)
    total = pop.total_weight()
    w_max = max(h.weight for h in pop.households)
    for k in range(1, 6):
        share = math.fsum(h.weight for h in pop.households if q.quintile_of[h.id] == k) / total
        assert abs(share - 0.2) <= w_max / total
        assert abs(share - 0.2) <= 0.005


def test_quintiles_ranked_by_percapita_total(synthetic, quintiles):
    cuts = quintiles.boundaries
    for h in synthetic.households:
        q = quintiles.quintile_of[h.id]
        if q > 1:
            assert h.per_capita_total() >= cuts[q - 2]
        if q < 5:
            assert h.per_capita_total() <= cuts[q - 1]


# -- budget shares ---------------------------------------------------------------


def test_single_category_schedule_all_cells_100(uniform):
    pop = generate_synthetic(3, 100, uniform)
    rows = budget_share_table(pop, uniform, assign_quintiles(pop))
    data_rows = [r for r in rows if r.group != "total"]
    assert len(data_rows) == 1
    assert all(c == pytest.approx(100.0, abs=1e-12) for c in data_rows[0].cells)


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
            h.weight * math.fsum(h.expenditures[cid] for cid in members[r.group]) / h.monetary_total()
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
    base_by_id = {i.household_id: i.net_tax for i in base.incidences}
    for result in scenario_results[1:]:
        delta = math.fsum(
            h.weight * (inc.net_tax - base_by_id[inc.household_id])
            for h, inc in zip(
                sorted(synthetic.households, key=lambda h: h.id), result.incidences
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
        for part in ("gross", "cashback", "net"):
            assert getattr(by_name[name], part).tobytes() == getattr(reference, part).tobytes()


def test_transfer_amounts_scale_with_residents(synthetic, scenario_results):
    swap = next(
        r for r in scenario_results if r.name is ScenarioName.PLP68_TRANSFER_SWAP
    )
    by_id = {h.id: h for h in synthetic.households}
    for inc in swap.incidences[:50]:
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
    base_by_id = {i.household_id: i.net_tax for i in base.incidences}
    ratios = [
        (inc.net_tax - base_by_id[inc.household_id]) / h.monetary_total()
        for h, inc in zip(sorted(pop.households, key=lambda h: h.id), uni.incidences)
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


def test_empty_scenario_list_errors(synthetic, plp68, quintiles):
    with pytest.raises(ValueError, match="empty scenario list"):
        compute_scenarios(synthetic, plp68, [])
    with pytest.raises(ValueError, match="empty scenario list"):
        build_scenario_table(synthetic, quintiles, [])


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
