"""Quintile construction, counterfactual scenarios, and distributional tables.

Quintiles are household-weight quintiles: households are ranked by per-capita
total (monetary plus non-monetary) expenditure, ties broken by id, and the
cumulative expansion weight is cut at the 20% marks.  Ranking deliberately
includes non-monetary consumption while the tax base is monetary only, so
both expenditure figures are reported side by side.

Scenarios share one neutrality constraint: the population's net tax (after
cashback or transfers) must reproduce the measured pre-reform burden.  The
reform scenario solves its reference rate for that burden; the uniform-VAT
variant retaxes the whole denominator base at a single rate with no cashback;
the transfer-swap variant keeps the reform's solved rate, retaxes the
food-basket group, and recycles the extra revenue as a flat per-person
transfer (re-solving the rate instead is available behind a switch).

Scenarios and tables work on the population's columns: per-household arrays
of gross tax, cashback, transfer and net tax, and per-quintile exact sums over
index masks.  Every scenario spot-checks its arrays against the
per-household reference functions of ``ivasim.engine`` on a few households.

Outputs are plain data plus deterministic CSV/text renderings: one decimal
for percentages, whole currency units for monthly amounts.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    AggregateIncidence,
    HouseholdIncidence,
    aggregate,
    baseline_tax,
    baseline_taxes,
    category_totals,
    household_tax,
    household_taxes,
    universal_transfer_amount,
    weighted_total,
    with_cashback,
)
from .microdata import Household, Population
from .rates import Rate
from .schedule import Schedule, TaxTreatment, with_removal
from .solver import SolverError, solve_given_cashback, solve_with_cashback


# -- quintiles ---------------------------------------------------------------


@dataclass(frozen=True)
class QuintileAssignment:
    quintile_of: Mapping[int, int]  # household id -> 1..5
    boundaries: tuple[float, ...]  # per-capita totals opening quintiles 2..5

    def of(self, population: Population) -> np.ndarray:
        """Quintile of every household of ``population``, aligned with its columns."""
        return np.fromiter(map(self.quintile_of.__getitem__, population.ids.tolist()), np.int64,
                           len(population))


def assign_quintiles(population: Population) -> QuintileAssignment:
    """Partition cumulative household weight into fifths by per-capita total.

    Households are ranked by (per-capita total, id).  Each falls in quintile
    int(5 * cum / W) + 1, capped at 5, where cum is the running (sequential)
    sum of the weights ranked before it and W the total weight.
    """
    per_capita = (population.monetary + population.nonmonetary_total) / population.residents
    order = np.lexsort((population.ids, per_capita))
    cum = np.concatenate(([0.0], np.cumsum(population.weight[order][:-1])))
    quintile = np.minimum(5, (5.0 * cum / population.total_weight()).astype(np.int64) + 1)
    opens = np.flatnonzero(np.diff(quintile)) + 1  # ranks where a new quintile starts
    return QuintileAssignment(
        dict(zip(population.ids[order].tolist(), quintile.tolist())),
        tuple(per_capita[order][opens].tolist()),
    )


def _weighted_mean(weights: np.ndarray, values: np.ndarray, rows: np.ndarray) -> float:
    """fsum(w * x) / fsum(w) over the households at index ``rows``."""
    w = weights[rows]
    denom = math.fsum(w.tolist())
    return weighted_total(w, values[rows]) / denom if denom > 0 else 0.0


def _quintile_rows(quintile: np.ndarray, keep: np.ndarray | None = None) -> list[np.ndarray]:
    """Index arrays of quintiles 1..5, then of the whole population."""
    if keep is None:
        keep = np.ones(len(quintile), dtype=bool)
    return [np.flatnonzero(keep & (quintile == q)) for q in range(1, 6)] + [
        np.flatnonzero(keep)
    ]


# -- budget shares (treatment group x quintile) --------------------------------


@dataclass(frozen=True)
class BudgetShareRow:
    group: str
    cells: tuple[float, ...]  # q1..q5 then total, in percent


def budget_share_table(
    population: Population, schedule: Schedule, quintiles: QuintileAssignment
) -> tuple[BudgetShareRow, ...]:
    """Mean share of each treatment group in the monetary budget, by quintile.

    A household's share vector is its group spending over its monetary total,
    so the groups of one column always add up to 100.  Households with no
    monetary spending carry no shares and are left out of the means.
    """
    idx = population.column_index(schedule)
    spending = population.monetary > 0
    columns = _quintile_rows(quintiles.of(population), spending)
    rows = []
    for g in schedule.groups():
        members = [j for j, c in enumerate(schedule.categories) if c.group == g]
        group_spend = population.spend[:, idx[members]].sum(axis=1)
        share = np.divide(group_spend, population.monetary, out=np.zeros_like(group_spend),
                          where=spending)
        cells = tuple(100.0 * _weighted_mean(population.weight, share, column)
                      for column in columns)
        rows.append(BudgetShareRow(g, cells))
    totals = tuple(math.fsum(r.cells[i] for r in rows) for i in range(6))
    rows.append(BudgetShareRow("total", totals))
    return tuple(rows)


# -- scenarios -----------------------------------------------------------------


class ScenarioName(enum.Enum):
    BASELINE = "baseline"
    UNIFORM_VAT = "uniform_vat"
    PLP68 = "plp68"
    PLP68_TRANSFER_SWAP = "plp68_transfer_swap"


SCENARIO_LABELS = {
    ScenarioName.BASELINE: "Sistema vigente",
    ScenarioName.UNIFORM_VAT: "IVA uniforme",
    ScenarioName.PLP68: "PLP 68/2024",
    ScenarioName.PLP68_TRANSFER_SWAP: "PLP 68 sem isenção da cesta, com transferência universal",
}

SPOT_CHECK_TOLERANCE = 1e-9  # relative


class SpotCheckError(SolverError):
    """The columnar scenario arrays disagree with the per-household reference."""


@dataclass(frozen=True)
class ScenarioSpec:
    name: ScenarioName
    swap_selector: str = "cesta_basica"  # transfer swap: group to retax
    resolve_rate: bool = False  # transfer swap: re-solve instead of holding the rate


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """One scenario's totals and per-household arrays, in the population's row order."""

    spec: ScenarioSpec
    label: str
    t_ref: Rate | None  # None for the pre-reform baseline
    transfer_per_person: float
    totals: AggregateIncidence
    schedule: Schedule  # the schedule the scenario taxes with
    population: Population  # the population the arrays describe
    gross: np.ndarray
    cashback: np.ndarray
    transfer: np.ndarray
    net: np.ndarray

    def scalar_incidence(self, household: Household) -> HouseholdIncidence:
        """The household's position by the per-household reference functions."""
        if self.t_ref is None:
            return baseline_tax(household, self.schedule)
        inc = with_cashback(
            household, household_tax(household, self.schedule, self.t_ref), self.schedule
        )
        return replace(inc, transfer=self.transfer_per_person * household.residents)

    @cached_property
    def incidences(self) -> tuple[HouseholdIncidence, ...]:
        """Every household's reference-path incidence, in ascending id order."""
        return tuple(map(self.scalar_incidence, self.population.households))


def _uniform_vat_schedule(schedule: Schedule) -> Schedule:
    """Every in-denominator category at the reference rate, nothing else taxed."""
    categories = tuple(
        replace(
            c,
            treatment=TaxTreatment.reference_rate()
            if c.in_denominator
            else TaxTreatment.untaxed(),
        )
        for c in schedule.categories
    )
    return replace(
        schedule,
        categories=categories,
        utility_refund_share=0.0,
        standard_refund_share=0.0,
    )


def _result(
    population: Population,
    schedule: Schedule,
    spec: ScenarioSpec,
    t_ref: Rate | None,
    gross: np.ndarray,
    cashback: np.ndarray | None = None,
    transfer_per_person: float = 0.0,
) -> ScenarioResult:
    """Assemble a scenario from its arrays and spot-check it against the reference."""
    weight = population.weight
    if cashback is None:
        cashback = np.zeros_like(gross)
    transfer = transfer_per_person * population.residents
    net = gross - cashback - transfer
    result = ScenarioResult(
        spec=spec,
        label=SCENARIO_LABELS[spec.name],
        t_ref=t_ref,
        transfer_per_person=transfer_per_person,
        totals=AggregateIncidence(
            total_gross=weighted_total(weight, gross),
            total_cashback=weighted_total(weight, cashback),
            total_transfer=weighted_total(weight, transfer),
            total_net=weighted_total(weight, net),
            denominator_expenditure=category_totals(population, schedule).denominator,
        ),
        schedule=schedule,
        population=population,
        gross=gross,
        cashback=cashback,
        transfer=transfer,
        net=net,
    )
    _spot_check(result)
    return result


def _spot_check(result: ScenarioResult) -> None:
    """Compare the arrays, and ``aggregate`` over a sample, with the reference path.

    The sample is at most six households: id-sorted positions 0, n/4, n/2,
    3n/4 and n-1, and the lowest-id cashback-eligible one.
    """
    population = result.population
    n = len(population)
    positions = {0, n // 4, n // 2, 3 * n // 4, n - 1}
    eligible = np.flatnonzero(category_totals(population, result.schedule).eligible)
    if eligible.size:
        positions.add(int(eligible[0]))
    rows = np.array(sorted(positions))
    sample = [population.row(i) for i in rows]
    incidences = [result.scalar_incidence(h) for h in sample]

    def check(what: str, fast, reference) -> None:
        """(gross, cashback, transfer, net) against the reference, relative to its size."""
        scale = sum(map(abs, reference[:3]))
        for part, a, b in zip(("gross tax", "cashback", "transfer", "net tax"), fast, reference):
            if abs(a - b) > SPOT_CHECK_TOLERANCE * scale:
                raise SpotCheckError(
                    f"{result.spec.name.value}: {what} {part} is {a!r} on the columnar "
                    f"path but {b!r} on the per-household reference path"
                )

    arrays = (result.gross, result.cashback, result.transfer, result.net)
    for i, h, inc in zip(rows, sample, incidences):
        reference = (inc.gross_tax, inc.cashback, inc.transfer, inc.net_tax)
        check(f"household {h.id}", [float(a[i]) for a in arrays], reference)

    agg = aggregate(Population(tuple(sample), population.provenance), incidences,
                    result.schedule)
    w = population.weight[rows]
    reference = (agg.total_gross, agg.total_cashback, agg.total_transfer, agg.total_net)
    check("sample", [weighted_total(w, a[rows]) for a in arrays], reference)


def _run_baseline(population: Population, schedule: Schedule, spec: ScenarioSpec) -> ScenarioResult:
    return _result(population, schedule, spec, None, baseline_taxes(population, schedule))


def run_scenario(
    population: Population,
    schedule: Schedule,
    spec: ScenarioSpec,
    baseline: ScenarioResult | None = None,
    plp68: ScenarioResult | None = None,
) -> ScenarioResult:
    """Evaluate one scenario; reform scenarios are solved to the baseline burden."""
    if spec.name is ScenarioName.BASELINE:
        return _run_baseline(population, schedule, spec)
    if baseline is None:
        baseline = _run_baseline(population, schedule, ScenarioSpec(ScenarioName.BASELINE))
    target = baseline.totals.net_burden

    if spec.name is ScenarioName.UNIFORM_VAT:
        uni = _uniform_vat_schedule(schedule)
        rate = solve_given_cashback(population, uni, 0.0, target)
        gross, _ = household_taxes(population, uni, rate)
        return _result(population, uni, spec, rate, gross)

    if spec.name is ScenarioName.PLP68:
        rate = solve_with_cashback(population, schedule, target).t_ref
        return _result(population, schedule, spec, rate, *household_taxes(population, schedule, rate))

    if spec.name is ScenarioName.PLP68_TRANSFER_SWAP:
        swapped = with_removal(schedule, spec.swap_selector)
        if spec.resolve_rate:
            rate = solve_with_cashback(population, swapped, target).t_ref
        elif plp68 is not None:
            rate = plp68.t_ref
        else:
            rate = solve_with_cashback(population, schedule, target).t_ref
        gross, cashback = household_taxes(population, swapped, rate)
        extra = weighted_total(population.weight, gross - cashback) - baseline.totals.total_net
        if extra < 0:
            if extra < -1e-6 * abs(baseline.totals.total_net):
                raise ValueError(
                    f"retaxing {spec.swap_selector!r} does not raise revenue; "
                    f"no revenue-neutral transfer exists"
                )
            extra = 0.0
        amount = universal_transfer_amount(extra, population)
        return _result(population, swapped, spec, rate, gross, cashback, amount)

    raise AssertionError(f"unhandled scenario {spec.name}")


def compute_scenarios(
    population: Population, schedule: Schedule, specs: Sequence[ScenarioSpec]
) -> tuple[ScenarioResult, ...]:
    """Run the requested scenarios; the baseline is always computed first.

    Returns the baseline followed by the requested reform scenarios in the
    order given.  The transfer swap reuses the reform's solved rate when the
    reform comes before it; otherwise it solves that rate itself.
    """
    if not specs:
        raise ValueError("empty scenario list")
    baseline = _run_baseline(
        population, schedule, ScenarioSpec(ScenarioName.BASELINE)
    )
    results = [baseline]
    plp68_result: ScenarioResult | None = None
    for spec in specs:
        if spec.name is ScenarioName.BASELINE:
            continue
        result = run_scenario(population, schedule, spec, baseline, plp68_result)
        if spec.name is ScenarioName.PLP68:
            plp68_result = result
        results.append(result)
    return tuple(results)


# -- scenario quintile statistics ---------------------------------------------


@dataclass(frozen=True)
class ScenarioQuintileRow:
    quintile: int  # 1..5, or 0 for the whole population
    mean_net_tax: float
    mean_monetary_expenditure: float
    mean_total_expenditure: float  # including non-monetary
    delta_vs_baseline: float
    delta_share_pct: float  # 100 * delta / mean monetary expenditure


def scenario_quintile_stats(
    population: Population,
    quintiles: QuintileAssignment,
    scenario: ScenarioResult,
    baseline: ScenarioResult,
) -> tuple[ScenarioQuintileRow, ...]:
    weight, monetary = population.weight, population.monetary
    total = monetary + population.nonmonetary_total
    delta_net = scenario.net - baseline.net
    rows = []
    for q, column in zip((1, 2, 3, 4, 5, 0), _quintile_rows(quintiles.of(population))):
        mean_mon = _weighted_mean(weight, monetary, column)
        delta = _weighted_mean(weight, delta_net, column)
        rows.append(
            ScenarioQuintileRow(
                quintile=q,
                mean_net_tax=_weighted_mean(weight, scenario.net, column),
                mean_monetary_expenditure=mean_mon,
                mean_total_expenditure=_weighted_mean(weight, total, column),
                delta_vs_baseline=delta,
                delta_share_pct=100.0 * delta / mean_mon if mean_mon else 0.0,
            )
        )
    return tuple(rows)


def build_scenario_table(
    population: Population,
    quintiles: QuintileAssignment,
    results: Sequence[ScenarioResult],
) -> tuple[tuple[ScenarioResult, tuple[ScenarioQuintileRow, ...]], ...]:
    if not results:
        raise ValueError("empty scenario list")
    baseline = next(
        (r for r in results if r.spec.name is ScenarioName.BASELINE), None
    )
    if baseline is None:
        raise ValueError("scenario results must include the baseline")
    return tuple(
        (r, scenario_quintile_stats(population, quintiles, r, baseline)) for r in results
    )


# -- rendering ------------------------------------------------------------------

_QUINTILE_HEADERS = ("q1", "q2", "q3", "q4", "q5", "total")


def _fmt(value: float, decimals: int) -> str:
    s = f"{value:.{decimals}f}"
    # avoid "-0" / "-0.0" cells when a tiny negative rounds to zero
    if s.lstrip("-").strip("0").strip(".") == "" and s.startswith("-"):
        return s[1:]
    return s


def _csv(header: Sequence[str], rows) -> str:
    """CSV text with quoting wherever a field needs it (labels may hold commas)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def render_budget_shares_csv(rows: Sequence[BudgetShareRow]) -> str:
    return _csv(
        ("group",) + _QUINTILE_HEADERS,
        ([r.group] + [_fmt(x, 1) for x in r.cells] for r in rows),
    )


def render_budget_shares_text(rows: Sequence[BudgetShareRow]) -> str:
    width = max(len(r.group) for r in rows)
    lines = [
        "Participação no orçamento por tipo de tratamento tributário (%)",
        "",
        " " * width + "".join(f"{h:>9}" for h in _QUINTILE_HEADERS),
    ]
    for r in rows:
        lines.append(r.group.ljust(width) + "".join(f"{_fmt(x, 1):>9}" for x in r.cells))
    return "\n".join(lines) + "\n"


def render_rate_impacts_csv(rows) -> str:
    return _csv(
        ("label", "selector", "rate_outside_pct", "delta_pp"),
        (
            (r.label, r.selector, _fmt(r.rate_outside * 100, 1),
             "" if r.delta_pp is None else _fmt(r.delta_pp, 1))
            for r in rows
        ),
    )


def render_rate_impacts_text(rows) -> str:
    width = max(len(r.label) for r in rows)
    lines = ["Impacto sobre a alíquota de referência (%, por fora)", ""]
    for r in rows:
        delta = "" if r.delta_pp is None else f"{r.delta_pp:+8.1f}"
        lines.append(f"{r.label.ljust(width)}  {r.rate_outside * 100:6.1f}{delta}")
    return "\n".join(lines) + "\n"


def render_scenarios_csv(
    table: Sequence[tuple[ScenarioResult, Sequence[ScenarioQuintileRow]]],
) -> str:
    if not table:
        raise ValueError("empty scenario list")
    return _csv(
        (
            "scenario", "quintile", "mean_net_tax", "mean_monetary_expenditure",
            "mean_total_expenditure", "delta_vs_baseline", "delta_share_pct",
        ),
        (
            (result.spec.name.value, "total" if r.quintile == 0 else str(r.quintile),
             _fmt(r.mean_net_tax, 0), _fmt(r.mean_monetary_expenditure, 0),
             _fmt(r.mean_total_expenditure, 0), _fmt(r.delta_vs_baseline, 0),
             _fmt(r.delta_share_pct, 1))
            for result, rows in table
            for r in rows
        ),
    )


def render_scenarios_text(
    table: Sequence[tuple[ScenarioResult, Sequence[ScenarioQuintileRow]]],
) -> str:
    if not table:
        raise ValueError("empty scenario list")
    lines = [
        "Impacto redistributivo por quinto de despesa total per capita",
        "",
        " " * 34 + "".join(f"{h:>9}" for h in _QUINTILE_HEADERS),
    ]

    def row(label: str, values, decimals: int) -> str:
        return label.ljust(34) + "".join(f"{_fmt(v, decimals):>9}" for v in values)

    for result, rows in table:
        label = result.label
        if result.t_ref is not None:
            label += f" (alíquota {result.t_ref.value * 100:.1f}%)"
        lines.append(label)
        lines.append(row("  Tributação (R$/mês)", (r.mean_net_tax for r in rows), 0))
        lines.append(
            row(
                "  Despesa monetária (R$/mês)",
                (r.mean_monetary_expenditure for r in rows),
                0,
            )
        )
        if result.spec.name is not ScenarioName.BASELINE:
            lines.append(
                row("  Variação (R$/mês)", (r.delta_vs_baseline for r in rows), 0)
            )
            lines.append(
                row("  Variação / despesa (%)", (r.delta_share_pct for r in rows), 1)
            )
        lines.append("")
    return "\n".join(lines)
