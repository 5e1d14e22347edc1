"""Quintile construction, counterfactual scenarios, and distributional tables.

Quintiles are household-weight quintiles: households are ranked by per-capita
total (monetary plus non-monetary) expenditure, ties broken by id, and the
cumulative expansion weight is cut at the 20% marks.  Ranking deliberately
includes non-monetary consumption while the tax base is monetary only, so
both expenditure figures are reported side by side.

Scenarios are named by ``ScenarioName`` and share one neutrality
constraint: the population's net tax (after cashback or transfers) must
reproduce the measured pre-reform burden.  ``compute_scenarios`` runs them in
one pass: the baseline first, then each requested reform.  The reform
scenario solves its reference rate for that burden, once per call; the
uniform-VAT variant retaxes the whole denominator base at a single rate with
no cashback; the transfer-swap variant keeps the reform's solved rate,
retaxes the food-basket group (``SWAP_GROUP``), and recycles the extra
revenue as a flat per-person transfer.

Scenarios and tables work on the population's columns: per-household arrays
of gross tax, cashback, transfer and net tax, and per-quintile exact sums over
index masks.  Table 3 computes the quintile rows, weight sums and mean
expenditures once and shares them across scenarios.  Every scenario
spot-checks its arrays against the per-household reference functions of
``ivasim.engine`` on a few households.

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
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    AggregateIncidence,
    HouseholdIncidence,
    aggregate,
    baseline_tax,
    baseline_taxes,
    cashback_eligible,
    denominator_expenditure,
    household_tax,
    household_taxes,
    universal_transfer_amount,
    weighted_total,
    with_cashback,
)
from .exactsum import exact_sum
from .microdata import Household, Population
from .rates import Rate
from .schedule import Schedule, TaxTreatment, with_removal
from .solver import SolverError, solve_given_cashback, solve_with_cashback


# -- quintiles ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuintileAssignment:
    ids: np.ndarray  # household ids, in the population's row order
    quintile: np.ndarray  # int8 quintile 1..5 of every row
    boundaries: tuple[float, ...]  # per-capita totals opening quintiles 2..5

    @cached_property
    def quintile_of(self) -> Mapping[int, int]:
        """Household id -> quintile."""
        return MappingProxyType(dict(zip(self.ids.tolist(), self.quintile.tolist())))

    def of(self, population: Population) -> np.ndarray:
        """Quintile of every household of ``population``, aligned with its columns."""
        if not np.array_equal(population.ids, self.ids):
            raise ValueError("the quintiles were assigned to another population")
        return self.quintile

    def empty(self) -> tuple[int, ...]:
        """The quintiles that hold no household."""
        counts = np.bincount(self.quintile, minlength=6)[1:]
        return tuple(int(q) + 1 for q in np.flatnonzero(counts == 0))


def assign_quintiles(population: Population) -> QuintileAssignment:
    """Partition cumulative household weight into fifths by per-capita total.

    Households are ranked by (per-capita total, id).  Each falls in quintile
    int(5 * cum / W) + 1, capped at 5, where cum is the running (sequential)
    sum of the weights ranked before it and W the total weight.
    """
    per_capita = (population.monetary + population.nonmonetary_total) / population.residents
    order = np.lexsort((population.ids, per_capita))
    cum = np.concatenate(([0.0], np.cumsum(population.weight[order][:-1])))
    ranked = np.minimum(5, (5.0 * cum / population.total_weight()).astype(np.int64) + 1)
    opens = np.flatnonzero(np.diff(ranked)) + 1  # ranks where a new quintile starts
    quintile = np.empty(len(population), dtype=np.int8)
    quintile[order] = ranked
    quintile.flags.writeable = False
    return QuintileAssignment(population.ids, quintile, tuple(per_capita[order][opens].tolist()))


class _Rows:
    """Households at index ``rows``, with their weights and the exact weight sum."""

    def __init__(self, weights: np.ndarray, rows: np.ndarray) -> None:
        self.rows = rows
        self.weight = weights[rows]
        self.weight_sum = exact_sum(self.weight)

    def mean(self, values: np.ndarray) -> float:
        """fsum(w * x) / fsum(w) over the rows, 0 when they carry no weight."""
        if self.weight_sum > 0:
            return weighted_total(self.weight, values[self.rows]) / self.weight_sum
        return 0.0


def _quintile_rows(weights: np.ndarray, quintile: np.ndarray,
                   keep: np.ndarray | None = None) -> list[_Rows]:
    """Quintiles 1..5, then the whole population."""
    if keep is None:
        keep = np.ones(len(quintile), dtype=bool)
    return [_Rows(weights, np.flatnonzero(keep & (quintile == q))) for q in range(1, 6)] + [
        _Rows(weights, np.flatnonzero(keep))
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
    columns = _quintile_rows(population.weight, quintiles.of(population), spending)
    rows = []
    for g in schedule.groups():
        members = [j for j, c in enumerate(schedule.categories) if c.group == g]
        group_spend = population.spend[:, idx[members]].sum(axis=1)
        share = np.divide(group_spend, population.monetary, out=np.zeros_like(group_spend),
                          where=spending)
        cells = tuple(100.0 * column.mean(share) for column in columns)
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


SWAP_GROUP = "cesta_basica"  # the group the transfer swap retaxes


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """One scenario's totals and per-household arrays, in the population's row order."""

    name: ScenarioName
    t_ref: Rate | None  # None for the pre-reform baseline
    transfer_per_person: float
    totals: AggregateIncidence
    schedule: Schedule  # the schedule the scenario taxes with
    population: Population  # the population the arrays describe
    gross: np.ndarray
    cashback: np.ndarray
    transfer: np.ndarray
    net: np.ndarray

    @property
    def label(self) -> str:
        return SCENARIO_LABELS[self.name]

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
    name: ScenarioName,
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
        name=name,
        t_ref=t_ref,
        transfer_per_person=transfer_per_person,
        totals=AggregateIncidence(
            total_gross=weighted_total(weight, gross),
            total_cashback=weighted_total(weight, cashback),
            total_transfer=weighted_total(weight, transfer),
            total_net=weighted_total(weight, net),
            denominator_expenditure=denominator_expenditure(population, schedule),
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
    eligible = np.flatnonzero(cashback_eligible(population, result.schedule))
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
                    f"{result.name.value}: {what} {part} is {a!r} on the columnar "
                    f"path but {b!r} on the per-household reference path"
                )

    arrays = (result.gross, result.cashback, result.transfer, result.net)
    for i, h, inc in zip(rows, sample, incidences):
        reference = (inc.gross_tax, inc.cashback, inc.transfer, inc.net_tax)
        check(f"household {h.id}", [float(a[i]) for a in arrays], reference)

    agg = aggregate(Population.from_households(sample, population.provenance), incidences,
                    result.schedule)
    w = population.weight[rows]
    reference = (agg.total_gross, agg.total_cashback, agg.total_transfer, agg.total_net)
    check("sample", [weighted_total(w, a[rows]) for a in arrays], reference)


def compute_scenarios(
    population: Population, schedule: Schedule, names: Sequence[ScenarioName]
) -> tuple[ScenarioResult, ...]:
    """The baseline, then the requested reform scenarios in the order given.

    Every reform is solved to the baseline's net burden.  The reform rate is
    solved at most once, by the first of ``PLP68`` and ``PLP68_TRANSFER_SWAP``
    that needs it, and the other reuses it.  ``BASELINE`` among ``names`` is
    skipped: it always comes first.
    """
    if not names:
        raise ValueError("empty scenario list")
    baseline = _result(population, schedule, ScenarioName.BASELINE, None,
                       baseline_taxes(population, schedule))
    target = baseline.totals.net_burden
    results = [baseline]
    reform_rate: Rate | None = None
    for name in names:
        if name is ScenarioName.BASELINE:
            continue
        if name is ScenarioName.UNIFORM_VAT:
            uni = _uniform_vat_schedule(schedule)
            rate = solve_given_cashback(population, uni, 0.0, target)
            gross, _ = household_taxes(population, uni, rate)
            results.append(_result(population, uni, name, rate, gross))
            continue
        if reform_rate is None:
            reform_rate = solve_with_cashback(population, schedule, target).t_ref
        if name is ScenarioName.PLP68:
            results.append(_result(population, schedule, name, reform_rate,
                                   *household_taxes(population, schedule, reform_rate)))
            continue
        swapped = with_removal(schedule, SWAP_GROUP)
        gross, cashback = household_taxes(population, swapped, reform_rate)
        extra = weighted_total(population.weight, gross - cashback) - baseline.totals.total_net
        if extra < 0:
            if extra < -1e-6 * abs(baseline.totals.total_net):
                raise ValueError(
                    f"retaxing {SWAP_GROUP!r} does not raise revenue; "
                    f"no revenue-neutral transfer exists"
                )
            extra = 0.0
        amount = universal_transfer_amount(extra, population)
        results.append(_result(population, swapped, name, reform_rate, gross, cashback, amount))
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


def _quintile_stats(
    shared: Sequence[tuple[_Rows, float, float]],
    scenario: ScenarioResult,
    baseline: ScenarioResult,
) -> tuple[ScenarioQuintileRow, ...]:
    """One scenario's rows; ``shared`` holds each quintile's (then the whole
    population's) rows and mean monetary and total expenditure."""
    # the exact sum of per-household differences, not a difference of sums
    delta_net = scenario.net - baseline.net
    rows = []
    for q, (column, mean_mon, mean_total) in zip((1, 2, 3, 4, 5, 0), shared):
        delta = column.mean(delta_net)
        rows.append(
            ScenarioQuintileRow(
                quintile=q,
                mean_net_tax=column.mean(scenario.net),
                mean_monetary_expenditure=mean_mon,
                mean_total_expenditure=mean_total,
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
    """Per-quintile rows of every scenario; the quintile rows, weight sums and
    mean expenditures are computed once and shared by all scenarios."""
    if not results:
        raise ValueError("empty scenario list")
    baseline = next((r for r in results if r.name is ScenarioName.BASELINE), None)
    if baseline is None:
        raise ValueError("scenario results must include the baseline")
    total = population.monetary + population.nonmonetary_total
    shared = [(column, column.mean(population.monetary), column.mean(total))
              for column in _quintile_rows(population.weight, quintiles.of(population))]
    return tuple((r, _quintile_stats(shared, r, baseline)) for r in results)


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
            (result.name.value, "total" if r.quintile == 0 else str(r.quintile),
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
        if result.name is not ScenarioName.BASELINE:
            lines.append(
                row("  Variação (R$/mês)", (r.delta_vs_baseline for r in rows), 0)
            )
            lines.append(
                row("  Variação / despesa (%)", (r.delta_share_pct for r in rows), 1)
            )
        lines.append("")
    return "\n".join(lines)
