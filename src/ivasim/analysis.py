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

Scenarios and tables work on the population's columns, each stage with at
most a few n-length arrays of scratch.  A scenario forms per-household
arrays of gross tax and cashback, totals them and the transfer, and turns
its gross tax array into its net tax in place, the one array table 3 reads.
A quintile assignment groups the rows by quintile, so each per-quintile mean
is an exact sum over one quintile's rows, gathered a chunk at a time, and
the whole population's total adds up the five quintiles' exact parts.
Table 1 forms one group's spending at a time by ``engine.category_folds``,
the fold the per-household taxes use, over the group's members in ascending
category id.  Table 3 gathers the weights and computes the mean expenditures
once and shares them across scenarios.  Every scenario spot-checks its arrays
against the per-household reference functions of ``ivasim.engine`` on a few
households.

Outputs are plain data plus deterministic CSV/text renderings: one decimal
for percentages, whole currency units for monthly amounts.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

import numpy as np

from .engine import (
    FOLD_ROWS,
    AggregateIncidence,
    HouseholdIncidence,
    aggregate,
    baseline_tax,
    baseline_taxes,
    cashback_eligible,
    category_folds,
    denominator_expenditure,
    household_tax,
    household_taxes,
    sum_products,
    universal_transfer_amount,
    weighted_total,
    with_cashback,
)
from .exactsum import chunk_parts
from .microdata import Household, MicrodataError, Population
from .rates import Rate
from .schedule import Schedule, TaxTreatment, TreatmentKind, with_removal
from .solver import SolverError, solve_given_cashback, solve_with_cashback


# -- quintiles ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuintileAssignment:
    """Rows grouped by quintile: quintile q is ``order[bounds[q - 1]:bounds[q]]``."""

    ids: np.ndarray  # household ids, in the population's row order
    order: np.ndarray  # row positions by quintile, in row order within each
    bounds: tuple[int, ...]  # six slice bounds into ``order``
    boundaries: tuple[float, ...]  # per-capita totals opening quintiles 2..5

    def empty(self) -> tuple[int, ...]:
        """The quintiles that hold no household."""
        return tuple(q for q in range(1, 6) if self.bounds[q - 1] == self.bounds[q])


def assign_quintiles(population: Population) -> QuintileAssignment:
    """Partition cumulative household weight into fifths by per-capita total.

    Households are ranked by (per-capita total, id).  Each falls in quintile
    int(5 * cum / W) + 1, capped at 5, where cum is the running (sequential)
    sum of the weights ranked before it and W the total weight.
    """
    total = population.total_weight()  # refused if it overflows, before any sum that would
    with np.errstate(over="ignore"):
        per_capita = population.monetary + population.nonmonetary_total  # divided below
    # it bounds every weighted sum of the tables
    if weighted_total(population.weight, per_capita) == math.inf:
        raise MicrodataError("the weighted total expenditure overflows a double")
    per_capita /= population.residents
    # rows are in id order, so a stable sort breaks ties by id
    order = np.argsort(per_capita, kind="stable")
    # cum, the running sum of the ranked weights, is formed in place from a
    # block of them at a time; each block's sum starts from the last one's end,
    # so cum is the one sequential cumsum
    n = len(order)
    cum = np.empty(n)
    cum[0] = 0.0
    for start in range(0, n - 1, FOLD_ROWS):
        block = population.weight[order[start:min(start + FOLD_ROWS, n - 1)]]
        block[0] += cum[start]
        np.cumsum(block, out=cum[start + 1:start + 1 + len(block)])
    if total > sys.float_info.max / 5.0:
        # 5 * cum could overflow; scaling both by 1/8 leaves every quotient as it
        # was (a cum it leaves subnormal gives a quotient of 0 either way)
        cum *= 0.125
        total *= 0.125
    cum *= 5.0
    cum /= total
    ranked = np.minimum(5, cum.astype(np.int8) + 1)  # 5 * cum / total lies in [0, 5]
    del cum
    opens = np.flatnonzero(np.diff(ranked)) + 1  # ranks where a new quintile starts
    boundaries = tuple(per_capita[order[opens]].tolist())
    del per_capita
    bounds = tuple(np.searchsorted(ranked, np.arange(1, 7, dtype=np.int8)).tolist())
    quintile = np.empty(n, dtype=np.int8)
    quintile[order] = ranked
    del order, ranked
    # grouped in row order, not rank order: gathers through it stay near-sequential
    grouped = np.argsort(quintile, kind="stable")
    grouped.flags.writeable = False
    return QuintileAssignment(population.ids, grouped, bounds, boundaries)


class _QuintileMeans:
    """Weighted means over each quintile, then the whole population.

    The weights are gathered into quintile order once, with zeros for rows
    outside ``keep``: exact zeros do not move an exact sum.  The values are
    gathered and multiplied one ``chunk_parts`` chunk of a quintile at a time,
    so no n-length gather is made.  Every sum is exact, so it does not depend
    on row order, and the whole population's is ``math.fsum`` of its
    quintiles' exact parts.
    """

    def __init__(self, population: Population, quintiles: QuintileAssignment,
                 keep: np.ndarray | None = None) -> None:
        if not np.array_equal(population.ids, quintiles.ids):
            raise ValueError("the quintiles were assigned to another population")
        order = quintiles.order
        weight = population.weight[order]
        if keep is not None:
            weight[~keep[order]] = 0.0
        # each quintile's rows and their weights
        self.quintiles = [(order[a:b], weight[a:b])
                          for a, b in zip(quintiles.bounds, quintiles.bounds[1:])]
        self.weight_sums = self._sums(lambda rows, w: w)

    def _sums(self, products) -> list[float]:
        """Exact sums of ``products(rows, weights)`` over each quintile, then over all rows."""
        parts = [chunk_parts(len(rows), lambda s, rows=rows, w=w: products(rows[s], w[s]))
                 for rows, w in self.quintiles]
        return [math.fsum(p) for p in parts] + [math.fsum(chain.from_iterable(parts))]

    def __call__(self, values) -> list[float]:
        """fsum(w * x) / fsum(w) per column, 0 where the rows carry no weight;
        ``values(rows)`` gives x at an array of row positions."""
        totals = self._sums(lambda rows, w: w * values(rows))
        return [t / w if w > 0 else 0.0 for t, w in zip(totals, self.weight_sums)]


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
    monetary spending carry no shares and are left out of the means.  A
    group's spending is ``category_folds`` of the vector that is 1.0 on its
    members and 0.0 elsewhere: its members' spending added in ascending
    category id from +0.0, as the taxes are, so no cell depends on the order
    of the schedule's categories.
    """
    monetary = population.monetary
    spending = monetary > 0
    means = _QuintileMeans(population, quintiles, spending)
    rows = []
    for g in schedule.groups():
        members = [float(c.group == g) for c in schedule.categories]
        share = category_folds(population, schedule, (members,), taxable=False)[0]
        np.divide(share, monetary, out=share, where=spending)
        rows.append(BudgetShareRow(g, tuple(100.0 * m for m in means(share.__getitem__))))
        del share  # before the next group's is formed: one share array at a time
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


def scenario_names(
    schedule: Schedule, requested: Sequence[ScenarioName] = ()
) -> tuple[ScenarioName, ...]:
    """The ``requested`` scenarios, or by default every reform the schedule can run.

    The transfer swap retaxes the removal selector ``SWAP_GROUP``: where it
    names no group or category of the schedule, the default leaves the swap
    out and a request for it is a ValueError.
    """
    swap = ScenarioName.PLP68_TRANSFER_SWAP
    swappable = SWAP_GROUP in schedule.groups() or SWAP_GROUP in schedule.category_ids()
    if swap in requested and not swappable:
        raise ValueError(f"scenario {swap.value!r} retaxes {SWAP_GROUP!r}, "
                         f"which names no group or category of the schedule")
    return tuple(requested) or tuple(n for n in ScenarioName if n is not ScenarioName.BASELINE
                                     and (n is not swap or swappable))


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """One scenario's totals and its read-only net tax per household, in the
    population's row order (the gross tax itself where no cashback or
    transfer is subtracted)."""

    name: ScenarioName
    t_ref: Rate | None  # None for the pre-reform baseline
    transfer_per_person: float
    totals: AggregateIncidence
    schedule: Schedule  # the schedule the scenario taxes with
    population: Population  # the population ``net`` describes
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


def _uniform_vat_schedule(schedule: Schedule) -> Schedule:
    """Every in-denominator category at the reference rate, nothing else taxed."""
    categories = tuple(
        replace(c, treatment=TaxTreatment(
            TreatmentKind.REFERENCE_RATE if c.in_denominator else TreatmentKind.UNTAXED))
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
    """Total a scenario's arrays, spot-check them against the reference, and
    keep its net tax.

    The totals and the spot-check rows are taken first; then ``gross``
    becomes the net tax in place: the cashback is subtracted whole and the
    transfer, ``transfer_per_person`` times the residents, a block of rows at
    a time, so no transfer array is formed.  An absent cashback (None) or zero
    transfer totals +0.0 and is not subtracted: x - 0.0 is x, bit for bit, so
    with neither, ``net`` is ``gross`` and so is its total.
    """
    weight, residents = population.weight, population.residents
    rows = _sample_rows(population, schedule)
    sampled = [gross[rows], np.zeros(len(rows)) if cashback is None else cashback[rows],
               transfer_per_person * residents[rows]]
    # weights are > 0, so an absent part totals +0.0
    total_gross = weighted_total(weight, gross)
    total_cashback = 0.0 if cashback is None else weighted_total(weight, cashback)
    total_transfer = 0.0 if transfer_per_person == 0.0 else sum_products(
        len(weight), lambda s: weight[s] * (transfer_per_person * residents[s]))
    net = gross
    if cashback is not None:
        net -= cashback
    if transfer_per_person != 0.0:
        for start in range(0, len(net), FOLD_ROWS):
            s = slice(start, start + FOLD_ROWS)
            net[s] -= transfer_per_person * residents[s]
    net.flags.writeable = False
    sampled.append(net[rows])
    subtracted = cashback is not None or transfer_per_person != 0.0
    result = ScenarioResult(
        name=name,
        t_ref=t_ref,
        transfer_per_person=transfer_per_person,
        totals=AggregateIncidence(
            total_gross=total_gross,
            total_cashback=total_cashback,
            total_transfer=total_transfer,
            total_net=weighted_total(weight, net) if subtracted else total_gross,
            denominator_expenditure=denominator_expenditure(population, schedule),
        ),
        schedule=schedule,
        population=population,
        net=net,
    )
    _spot_check(result, rows, sampled)
    return result


def _sample_rows(population: Population, schedule: Schedule) -> np.ndarray:
    """The spot check's sample, at most six households: id-sorted positions 0,
    n/4, n/2, 3n/4 and n-1, and the lowest-id cashback-eligible one."""
    n = len(population)
    positions = {0, n // 4, n // 2, 3 * n // 4, n - 1}
    eligible = cashback_eligible(population, schedule)
    if eligible.any():
        positions.add(int(eligible.argmax()))
    return np.array(sorted(positions))


def _spot_check(result: ScenarioResult, rows: np.ndarray,
                columns: Sequence[np.ndarray]) -> None:
    """Compare the (gross, cashback, transfer, net) values at the sampled
    ``rows``, zeros for an absent part, and ``aggregate`` over the sample,
    with the reference path."""
    population = result.population
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

    for j, (h, inc) in enumerate(zip(sample, incidences)):
        reference = (inc.gross_tax, inc.cashback, inc.transfer, inc.net_tax)
        check(f"household {h.id}", [float(c[j]) for c in columns], reference)

    agg = aggregate(Population.from_households(sample, population.provenance), incidences,
                    result.schedule)
    w = population.weight[rows]
    reference = (agg.total_gross, agg.total_cashback, agg.total_transfer, agg.total_net)
    check("sample", [weighted_total(w, c) for c in columns], reference)


def compute_scenarios(
    population: Population, schedule: Schedule, names: Sequence[ScenarioName]
) -> tuple[ScenarioResult, ...]:
    """The baseline, then the requested reform scenarios in the order given.

    Every reform is solved to the baseline's net burden.  The reform rate is
    solved at most once, by the first of ``PLP68`` and ``PLP68_TRANSFER_SWAP``
    that needs it, and the other reuses it.  ``BASELINE`` among ``names`` is
    skipped: it always comes first.  A transfer swap the schedule cannot run
    (``scenario_names``) is refused before any solve.
    """
    if not names:
        raise ValueError("empty scenario list")
    scenario_names(schedule, names)
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
            gross = household_taxes(population, uni, rate)[0]  # its cashback is not held
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
        weight = population.weight
        revenue = sum_products(len(weight), lambda s: weight[s] * (gross[s] - cashback[s]))
        extra = revenue - baseline.totals.total_net
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


def build_scenario_table(
    population: Population,
    quintiles: QuintileAssignment,
    results: Sequence[ScenarioResult],
) -> tuple[tuple[ScenarioResult, tuple[ScenarioQuintileRow, ...]], ...]:
    """Per-quintile rows of every scenario; the grouped weights, their sums and
    the mean expenditures are computed once and shared by all scenarios."""
    if not results:
        raise ValueError("empty scenario list")
    baseline = next((r for r in results if r.name is ScenarioName.BASELINE), None)
    if baseline is None:
        raise ValueError("scenario results must include the baseline")
    means = _QuintileMeans(population, quintiles)
    monetary, nonmonetary = population.monetary, population.nonmonetary_total
    mean_mon = means(monetary.__getitem__)
    mean_total = means(lambda at: monetary[at] + nonmonetary[at])

    def rows(scenario: ScenarioResult) -> tuple[ScenarioQuintileRow, ...]:
        # the exact sum of per-household differences, not a difference of sums
        delta = means(lambda at: scenario.net[at] - baseline.net[at])
        return tuple(
            ScenarioQuintileRow(q, net, mon, total, d, 100.0 * d / mon if mon else 0.0)
            for q, net, mon, total, d in zip((1, 2, 3, 4, 5, 0), means(scenario.net.__getitem__),
                                             mean_mon, mean_total, delta)
        )

    return tuple((r, rows(r)) for r in results)


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
