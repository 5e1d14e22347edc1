"""Property tests: the columnar path against the per-household reference path.

Small random schedules and populations, each with a cashback-eligible
household and renters on both sides of the rent reducer, check that

* every scenario's per-household arrays match the scalar functions,
* every reform scenario is revenue neutral,
* calculator totals match the scalar aggregate and do not change when
  households are permuted or one household is split into two half-weight rows.

Random households files check the array reader against the row reader: the
same arrays bit for bit on valid files, the same message on broken ones.
Random populations with ties check the vectorised quintiles against the
sort-and-accumulate loop.
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivasim.analysis import ScenarioName, ScenarioSpec, assign_quintiles, compute_scenarios
from ivasim.engine import IncidenceCalculator, aggregate, household_tax, with_cashback
from ivasim.microdata import (
    FIXED_COLUMNS,
    Household,
    MicrodataError,
    Population,
    Provenance,
    _read_rows,
    load_population,
)
from ivasim.rates import Rate
from ivasim.schedule import bundled_schedule_path, load_schedule, parse_schedule

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
    household, a renter below the reducer and a renter above it.  The
    households list their categories in a drawn order, not the schedule's."""
    schedule = draw(schedules())
    category_order = draw(st.permutations(schedule.category_ids()))
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
                {c: spend[c] for c in category_order}, draw(st.floats(0.0, 300.0)),
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


# -- CSV reader ----------------------------------------------------------------

PLP68 = load_schedule(bundled_schedule_path("plp68"))
READER_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
CORRUPTIONS = (
    "non_numeric", "empty", "non_finite", "negative_spend", "zero_weight", "zero_residents",
    "float_id", "ragged", "duplicate_id", "whitespace_line",
)


def _number(draw, x: float) -> str:
    """``x`` in one of the spellings both readers take."""
    text = draw(st.sampled_from([repr(x), f"{x:.17e}", f"{x:.17E}"]))
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def households_files(draw):
    """Cells of a valid households file for plp68: a header with the categories
    in a drawn order, then rows in shuffled id order."""
    categories = list(draw(st.permutations(PLP68.category_ids())))
    n = draw(st.integers(2, 6))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    amount = st.floats(0.0, 1e9)
    rows = []
    for hid in ids:
        row = [str(hid), _number(draw, draw(st.floats(1e-3, 1e4))),
               str(draw(st.integers(1, 12)))]
        row += [_number(draw, draw(amount)) for _ in range(2 + len(categories))]
        rows.append(row)
    return list(FIXED_COLUMNS) + categories, rows


def _write(path, header, rows, draw, blank_lines=True):
    """Rows joined with LF or CRLF, with blank lines drawn in between."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for row in rows:
        if blank_lines and draw(st.booleans()):
            lines.append("")
        lines.append(",".join(row))
    path.write_bytes((newline.join(lines) + newline).encode())


def _columns(population):
    return [getattr(population, name) for name in
            ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total", "spend")]


@READER_SETTINGS
@given(households_files(), st.data())
def test_reader_matches_row_reader_on_valid_files(case, data):
    header, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "households.csv"
        _write(path, header, rows, data.draw)
        population = load_population(path, PLP68)
        reference = _read_rows(path, PLP68)
    assert population.category_ids == reference.category_ids
    assert (population.ids[1:] > population.ids[:-1]).all()
    for a, b in zip(_columns(population), _columns(reference)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # bit-identical, signed zeros included
    assert population.households == reference.households
    assert population.provenance == reference.provenance


def _corrupt(kind, header, rows, draw):
    """Apply one corruption of ``kind`` to one drawn row, in place."""
    row = draw(st.sampled_from(rows))
    category = draw(st.integers(len(FIXED_COLUMNS), len(header) - 1))
    numeric = draw(st.integers(0, len(header) - 1))
    if kind == "non_numeric":
        row[numeric] = draw(st.sampled_from(["abc", "n/a", "1,5", "12%", "#3", "1_000", "١٢"]))
    elif kind == "empty":
        row[numeric] = ""
    elif kind == "non_finite":
        column = draw(st.sampled_from([1, 3, 4, category]))
        row[column] = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e400"]))
    elif kind == "negative_spend":
        row[category] = draw(st.sampled_from(["-1.5", "-1e-300", "-inf"]))
    elif kind == "zero_weight":
        row[1] = draw(st.sampled_from(["0", "0.0", "-0.0", "-3.5"]))
    elif kind == "zero_residents":
        row[2] = draw(st.sampled_from(["0", "-2"]))
    elif kind == "float_id":
        row[draw(st.sampled_from([0, 2]))] += ".0"
    elif kind == "ragged":
        if draw(st.booleans()):
            row.append("1.0")
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "duplicate_id":
        row[0] = draw(st.sampled_from([r[0] for r in rows if r is not row]))
    elif kind == "whitespace_line":
        rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from([" ", "\t", "  \t "]))])


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(READER_SETTINGS, max_examples=8)
@given(households_files(), st.data())
def test_reader_rejects_like_row_reader(kind, case, data):
    header, rows = case
    _corrupt(kind, header, rows, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "households.csv"
        _write(path, header, rows, data.draw)
        with pytest.raises(MicrodataError) as reference:
            _read_rows(path, PLP68)
        with pytest.raises(MicrodataError) as fast:
            load_population(path, PLP68)
    assert str(fast.value) == str(reference.value)
    assert str(fast.value).startswith(f"{path}: row ")


# -- quintiles -------------------------------------------------------------------


def reference_quintiles(population):
    """The sort-and-accumulate quintile assignment over ``Household`` rows."""
    ordered = sorted(population.households, key=lambda h: (h.per_capita_total(), h.id))
    total_weight = population.total_weight()
    quintile_of = {}
    boundaries = []
    cum = 0.0
    previous = 0
    for h in ordered:
        q = min(5, int(5.0 * cum / total_weight) + 1)
        quintile_of[h.id] = q
        if q != previous:
            if q > 1:
                boundaries.append(h.per_capita_total())
            previous = q
        cum += h.weight
    return quintile_of, tuple(boundaries)


@st.composite
def quintile_populations(draw):
    """Households with many per-capita ties, in shuffled id order, one of them
    heavier than all the others together (it spans a whole quintile)."""
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
    heavy = draw(st.integers(0, n - 1))
    weights = [draw(st.sampled_from([0.1, 1.0, 2.5])) for _ in ids]
    weights[heavy] = 1.5 * math.fsum(weights) + draw(st.floats(0.0, 10.0))
    households = [
        Household(
            hid, w, draw(st.integers(1, 3)), 0.0,
            {"a": draw(st.sampled_from([0.0, 60.0, 150.0])),
             "b": draw(st.sampled_from([0.0, 30.0, 0.1]))},
            draw(st.sampled_from([0.0, 30.0])),
        )
        for hid, w in zip(ids, weights)
    ]
    return Population(tuple(households), Provenance("file", "quintiles"))


@PROPERTY_SETTINGS
@given(quintile_populations())
def test_quintiles_match_sort_and_accumulate(population):
    quintiles = assign_quintiles(population)
    quintile_of, boundaries = reference_quintiles(population)
    assert quintiles.quintile_of == quintile_of
    assert quintiles.boundaries == boundaries
