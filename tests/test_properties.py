"""Property tests: the columnar path against the per-household reference path.

Small random schedules and populations, each with a cashback-eligible
household and renters on both sides of the rent reducer, check that

* every scenario's per-household arrays match the scalar functions,
* every reform scenario is revenue neutral,
* calculator totals match the scalar aggregate and do not change when
  households are permuted or one household is split into two half-weight rows,
* calculators built one after another on one population, which reuse its
  memoised reductions, give the totals of a fresh population bit for bit,
* the burden at a fixed cashback never falls as the reference rate rises,
* the calculator's float rate vector equals ``effective_inside_rate`` bit for
  bit for every treatment kind, over the whole bisection bracket,
* under the ``uniform`` schedule the solved rate is t = b / (1 - b).

Random households files check the array reader against the row reader: the
same arrays bit for bit on valid files, the same message on broken ones.
Random decimals (repr and fixed-point spellings of doubles, long
significands, many fractional digits, exact rounding ties and their
neighbours) check that the significand-scaling kernel gives ``float(text)``
bit for bit, and leaves to ``float`` exactly the cells it says it does.
Random doubles (every magnitude, short decimals, dyadic fractions) and int64
values check that the writer spells each as ``repr`` and ``str`` do.
Random populations with ties check the vectorised quintiles against the
sort-and-accumulate loop, and that splitting a household's weight across two
rows moves no household to another quintile.  Random populations, some with
households that spend nothing (up to a whole quintile of them), pin every
table 1 and table 3 cell bit for bit to per-quintile ``math.fsum`` means.
"""

import math
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivasim.analysis import (
    ScenarioName,
    _uniform_vat_schedule,
    assign_quintiles,
    budget_share_table,
    build_scenario_table,
    compute_scenarios,
)
from ivasim.csvbody import _decimal_values, _shortest, text_blocks
from ivasim.engine import IncidenceCalculator, aggregate, household_tax, with_cashback
from ivasim.exactsum import _SHORT
from ivasim.microdata import (
    FIXED_COLUMNS,
    Household,
    MicrodataError,
    Population,
    Provenance,
    _read_rows,
    generate_synthetic,
    load_population,
)
from ivasim.rates import Rate
from ivasim.schedule import (
    CashbackClass,
    Category,
    Schedule,
    TaxTreatment,
    TreatmentKind,
    bundled_schedule_path,
    effective_inside_rate,
    load_schedule,
    parse_schedule,
    with_removal,
)
from ivasim.solver import BRACKET_HI_MAX, RATE_TOLERANCE, solve_with_cashback

from helpers import incidences, quintile_of

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
    return schedule, Population.from_households(tuple(households), Provenance("file", "property"))


def _close(fast, reference, scale):
    return abs(fast - reference) <= REL * scale


REFORMS = [
    ScenarioName.UNIFORM_VAT,
    ScenarioName.PLP68,
    ScenarioName.PLP68_TRANSFER_SWAP,
]


@PROPERTY_SETTINGS
@given(cases())
def test_scenario_arrays_match_scalar_oracle(case):
    schedule, population = case
    results = compute_scenarios(population, schedule, REFORMS)
    assert [r.name for r in results] == [ScenarioName.BASELINE] + REFORMS
    ordered = sorted(population.households, key=lambda h: h.id)
    for result in results:
        reference = incidences(result)
        assert [inc.household_id for inc in reference] == [h.id for h in ordered]
        for i, inc in enumerate(reference):
            scale = abs(inc.gross_tax) + abs(inc.cashback) + abs(inc.transfer)
            assert _close(result.gross[i], inc.gross_tax, scale), (result.name, i)
            assert _close(result.cashback[i], inc.cashback, scale), (result.name, i)
            assert _close(result.transfer[i], inc.transfer, scale), (result.name, i)
            assert _close(result.net[i], inc.net_tax, scale), (result.name, i)

    baseline = results[0]
    weights = [h.weight for h in ordered]
    for result in results[1:]:
        delta = math.fsum(w * (a - b) for w, a, b in zip(weights, result.net, baseline.net))
        assert abs(delta) <= 1e-6 * baseline.totals.total_net, result.name


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
    permuted = Population.from_households(tuple(shuffled), population.provenance)
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
    split = Population.from_households(
        population.households[:k] + tuple(halves) + population.households[k + 1:],
        population.provenance,
    )
    assert _totals(split, schedule, RATES) == _totals(population, schedule, RATES)
    assert (
        IncidenceCalculator(split, schedule).denominator
        == IncidenceCalculator(population, schedule).denominator
    )


def _fresh(population):
    """The same columns, with none of the population's memoised reductions."""
    p = population
    return Population(p.provenance, p.category_ids, p.ids, p.weight, p.residents,
                      p.income_per_capita, p.nonmonetary_total, p.spend)


def _bits(calc):
    totals = [x for t in RATES for x in (calc.gross_total(t), calc.cashback_total(t))]
    return [x.hex() for x in totals + [calc.denominator]]


@PROPERTY_SETTINGS
@given(cases(), st.floats(0.0, 2000.0), st.floats(0.0, 1000.0), st.randoms(use_true_random=False))
def test_calculators_on_one_population_match_fresh_populations(case, threshold, reducer, rnd):
    schedule, population = case
    rent = schedule.by_id("aluguel")
    sequence = [
        schedule,
        *(with_removal(schedule, cid) for cid in schedule.category_ids()),
        _uniform_vat_schedule(schedule),
        replace(schedule, eligibility_threshold=threshold),
        replace(schedule, categories=tuple(
            replace(c, treatment=replace(rent.treatment, reducer=reducer))
            if c is rent else c for c in schedule.categories)),
        replace(schedule, categories=tuple(
            replace(c, in_denominator=c is not rent) for c in schedule.categories)),
    ]
    rnd.shuffle(sequence)
    for s in sequence:
        assert _bits(IncidenceCalculator(population, s)) == _bits(
            IncidenceCalculator(_fresh(population), s))


@PROPERTY_SETTINGS
@given(cases(), st.lists(st.integers(0, 3000), min_size=2, max_size=8, unique=True),
       st.floats(0.0, 1e4))
def test_burden_monotone_in_rate_at_fixed_cashback(case, grid, cashback):
    schedule, population = case
    calc = IncidenceCalculator(population, schedule)
    burdens = [calc.burden_with_fixed_cashback(i / 1000, cashback) for i in sorted(grid)]
    assert burdens == sorted(burdens)


@st.composite
def all_kinds_schedules(draw):
    """One category of each treatment kind, with drawn parameters, in a drawn order."""
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    treatments = {
        "zero": TaxTreatment(TreatmentKind.ZERO_RATE),
        "geral": TaxTreatment(TreatmentKind.REFERENCE_RATE),
        "reduzida": TaxTreatment(TreatmentKind.REDUCED_FRACTION, fraction=draw(unit)),
        "especifico": TaxTreatment(TreatmentKind.SPECIFIC_REGIME, effective=Rate.inside(
            draw(st.floats(0.0, 1.0, exclude_max=True)))),
        "seletivo": TaxTreatment(TreatmentKind.SELECTIVE,
                                 is_rate=Rate.outside(draw(st.floats(0.0, 1e3))),
                                 vat_fraction=draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))),
        "aluguel": TaxTreatment(TreatmentKind.RENT_REGIME,
                                fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
                                reducer=draw(st.floats(0.0, 1000.0))),
        "nao_tributado": TaxTreatment(TreatmentKind.UNTAXED),
    }
    categories = [
        Category(cid, cid, treatment,
                 CashbackClass.EXCLUDED if cid == "seletivo" else CashbackClass.STANDARD,
                 True, Rate.inside(0.1))
        for cid, treatment in treatments.items()
    ]
    return Schedule(tuple(draw(st.permutations(categories))), eligibility_threshold=500.0)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(all_kinds_schedules(),
       st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-10, BRACKET_HI_MAX]),
                          st.floats(0.0, BRACKET_HI_MAX)), min_size=1, max_size=8))
def test_float_rate_vector_matches_effective_inside_rate(schedule, rates):
    calc = IncidenceCalculator(generate_synthetic(0, 5, schedule), schedule)
    for t in rates:
        reference = [effective_inside_rate(c, Rate.outside(t)).value for c in schedule.categories]
        assert [r.hex() for r in calc.inside_rates(t)] == [r.hex() for r in reference]


UNIFORM = load_schedule(bundled_schedule_path("uniform"))


@PROPERTY_SETTINGS
@given(st.integers(0, 10**6), st.floats(0.001, 0.95))
def test_uniform_schedule_solves_to_b_over_one_minus_b(seed, target):
    # one category at the reference rate and no cashback: the burden is the
    # inside rate t / (1 + t), so the target b is met at t = b / (1 - b)
    result = solve_with_cashback(generate_synthetic(seed, 40, UNIFORM), UNIFORM, target)
    assert abs(result.t_ref.value - target / (1.0 - target)) <= RATE_TOLERANCE


# -- CSV reader ----------------------------------------------------------------

PLP68 = load_schedule(bundled_schedule_path("plp68"))
READER_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
CORRUPTIONS = (
    "non_numeric", "empty", "non_finite", "negative_spend", "zero_weight", "zero_residents",
    "float_id", "ragged", "duplicate_id", "whitespace_line", "earlier_row_later_column",
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
    elif kind == "earlier_row_later_column":
        # the earlier bad row breaks only a spend column, the later one the weight
        first, second = sorted(draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                             max_size=2, unique=True)))
        rows[first][category] = "-1.5"
        rows[second][1] = "0"
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


# -- decimal significands ------------------------------------------------------

KERNEL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _decimal_parts(text):
    """(negative, significand, fractional digits) of a plain decimal."""
    whole, _, fraction = text.lstrip("-").partition(".")
    return text.startswith("-"), int(whole + fraction or "0"), len(fraction)


def _decimal_text(significand, digits):
    """``significand * 10**-digits`` written with ``digits`` fractional digits."""
    text = str(significand).rjust(digits + 1, "0")
    return f"{text[:len(text) - digits]}.{text[len(text) - digits:]}" if digits else text


def _slack(text):
    """How far the decimal lies inside its double's rounding interval, in half
    gaps on its side: 1 at the double itself, 0 at a rounding tie."""
    x, r = abs(Fraction(text)), abs(float(text))
    gap = np.spacing(r) if x >= r else r - np.nextafter(r, 0.0)
    return 1 - abs(x - Fraction(r)) / (Fraction(gap) / 2)


def check_kernel(texts):
    """``_decimal_values`` on ``texts``: every settled cell is ``float(text)``
    bit for bit; returns the texts it leaves unsettled, after checking them
    against the kernel's own rule."""
    parts = [_decimal_parts(t) for t in texts]
    assert all(m < 2**64 for _, m, _ in parts)
    values = _decimal_values(np.array([m for _, m, _ in parts], dtype=np.uint64),
                             np.array([d for _, _, d in parts], dtype=np.int64))
    unsettled = []
    for text, (negative, m, d), value in zip(texts, parts, values.tolist()):
        fast = m == 0 or m < 2**53 and d <= 22  # Clinger's fast path, and zeros
        if math.isnan(value):
            unsettled.append(text)
            assert not fast, text
            assert d > 46 or _slack(text) < Fraction(1, 2**38), text
        else:
            value = math.copysign(value, -1.0) if negative else value
            assert np.float64(value).tobytes() == np.float64(float(text)).tobytes(), text
            assert fast or d <= 46 and _slack(text) >= Fraction(1, 2**40), text
    return unsettled


def _spellings(x):
    """Plain spellings of the double ``x``: repr, fixed point with 0 to 25
    digits, with leading zeros, as ".5" and "5.", and negated."""
    texts = [f"{x:.{p}f}" for p in range(26)]
    if "e" not in repr(x):
        texts.append(repr(x))
    texts += ["000" + t for t in texts[:3]] + [texts[0] + "."]
    texts += [t[1:] for t in texts if t.startswith("0.") and len(t) > 2]
    texts += ["-" + t for t in texts]
    return [t for t in texts if _decimal_parts(t)[1] < 2**64]


@KERNEL_SETTINGS
@given(st.floats(0.0, 1e7) | st.floats(0.0, 1e-3) | st.floats(1e7, 1e19))
def test_kernel_reads_spellings_of_doubles(x):
    texts = _spellings(x)
    unsettled = check_kernel(texts)
    # repr is the shortest decimal that rounds to x, never near a tie
    assert repr(x) not in unsettled


@KERNEL_SETTINGS
@given(st.integers(10**14, 2**64 - 1) | st.integers(2**53 - 2**20, 2**53 + 2**20),
       st.integers(0, 48))
def test_kernel_reads_long_significands(significand, digits):
    texts = [_decimal_text(significand, digits), _decimal_text(significand, min(digits, 22))]
    check_kernel(texts + ["-" + t for t in texts])


@pytest.mark.parametrize("significand", [
    2**53 - 1, 2**53, 2**53 + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1,
    2**64 - 1, 10**15, 10**19 - 1,
])
def test_kernel_reads_significands_at_powers_of_two(significand):
    check_kernel([_decimal_text(significand, d) for d in range(49)])


def test_kernel_keeps_zeros_and_their_sign():
    texts = ["0", "-0", "0.0", "-0.0", ".0", "-.0", "0.", "-0.", "000.000",
             "0." + "0" * 48, "-0." + "0" * 48]
    assert check_kernel(texts) == []


def _ties(r):
    """The rounding ties beside the double ``r`` as (significand, digits); the
    gap below a power of two is half of ``np.spacing(r)``."""
    gap_below = Fraction(r - np.nextafter(r, 0.0))
    ties = (Fraction(r) - gap_below / 2, Fraction(r) + Fraction(np.spacing(r)) / 2)
    # a tie's denominator is 2**j, so it has j fractional digits
    pairs = [(int(t * 10**j), j) for t in ties for j in [t.denominator.bit_length() - 1]]
    return [(m, d) for m, d in pairs if m + 1 < 2**64]


@KERNEL_SETTINGS
@given(st.floats(2.0**49, 2.0**62) | st.sampled_from([2.0**k for k in range(49, 63)]))
def test_kernel_leaves_exact_ties_to_float(r):
    ties = _ties(r)
    assert ties
    for m, d in ties:
        # trailing zeros keep a tie a tie and bring its neighbours closer to it
        for zeros in (0, 1, 5):
            m_z, d_z = m * 10**zeros, d + zeros
            if m_z + 1 >= 2**64:
                continue
            tie = _decimal_text(m_z, d_z)
            assert _slack(tie) == 0
            assert check_kernel([tie]) == [tie]
            unsettled = check_kernel([_decimal_text(m_z - 1, d_z), _decimal_text(m_z + 1, d_z)])
            if zeros == 0:  # one unit in the last digit is far from the tie
                assert unsettled == []


@pytest.mark.parametrize("digits", [18, 20, 22, 24, 26])
@pytest.mark.parametrize("side", [-1, 1])
def test_kernel_leaves_near_ties_to_float(digits, side):
    # m * 2**bits = n * 5**d + side puts x = m / 10**d just beside the tie
    # n / 2**(bits + d) (n odd, 54 bits), 5**-d of a half gap away
    five = 5**digits
    bits = 54 + five.bit_length() - 64
    n = (-side * pow(five, -1, 2**bits)) % 2**bits
    n += (2**53 + 2**52 - n) // 2**bits * 2**bits  # mid-binade, still odd
    m = (n * five + side) >> bits
    assert m * 2**bits == n * five + side and m < 2**64
    texts = [_decimal_text(m, digits), "-" + _decimal_text(m, digits)]
    assert 0 < _slack(texts[0]) < Fraction(1, 2**40)
    assert check_kernel(texts) == texts


# -- shortest decimals -----------------------------------------------------------


def _written(values, dtype=float):
    """The lines ``text_blocks`` writes for one column of ``values``."""
    int_columns = (0,) if dtype is np.int64 else ()
    text = b"".join(text_blocks([np.array(values, dtype=dtype)], int_columns)).decode("ascii")
    return text.splitlines()


_DOUBLES = (st.floats(0.0, allow_nan=False, allow_infinity=False)
            | st.floats(1e-4, 1e16)
            | st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 10**17), st.integers(-22, 17))
            | st.builds(lambda m, k: m / 2.0**k, st.integers(1, 2**53), st.integers(0, 60)))


@KERNEL_SETTINGS
@given(st.lists(_DOUBLES, min_size=1, max_size=40))
def test_writer_spells_doubles_as_repr(xs):
    assert _written(xs) == [repr(x) for x in xs]


@KERNEL_SETTINGS
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
@example([-1, 0, 1, 9, 10, 9999, 10**4, 10**16, 2**63 - 1, -2**63])
def test_writer_spells_int64_as_str(values):
    assert _written(values, np.int64) == [str(v) for v in values]


# two decimals of the shortest length lie equally near: 17 digits (the
# first two) and 16 digits (the others), each pair reading back as x
EXACT_TIES = [100 + 2**-15, 0.022653579711914062, 882629429115138.75, 1176599693446016.2]


def test_shortest_leaves_exact_ties_to_repr():
    assert not _shortest(np.array(EXACT_TIES))[2].any()
    assert _written(EXACT_TIES) == [repr(x) for x in EXACT_TIES]


def test_writer_spells_powers_of_two_as_repr():
    xs = [2.0**k for k in range(-1080, 1024)]
    xs += [math.nextafter(x, side) for x in xs[50:] for side in (0.0, math.inf)]
    assert _written(xs) == [repr(x) for x in xs]


# -- quintiles -------------------------------------------------------------------


def reference_quintiles(population):
    """The sort-and-accumulate quintile assignment over ``Household`` rows."""
    ordered = sorted(population.households, key=lambda h: (h.per_capita_total(), h.id))
    total_weight = population.total_weight()
    mapping = {}
    boundaries = []
    cum = 0.0
    previous = 0
    for h in ordered:
        q = min(5, int(5.0 * cum / total_weight) + 1)
        mapping[h.id] = q
        if q != previous:
            if q > 1:
                boundaries.append(h.per_capita_total())
            previous = q
        cum += h.weight
    return mapping, tuple(boundaries)


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
    return Population.from_households(tuple(households), Provenance("file", "quintiles"))


@PROPERTY_SETTINGS
@given(quintile_populations())
def test_quintiles_match_sort_and_accumulate(population):
    quintiles = assign_quintiles(population)
    reference, boundaries = reference_quintiles(population)
    assert quintile_of(quintiles) == reference
    assert quintiles.boundaries == boundaries


@st.composite
def split_quintile_cases(draw):
    """A population with per-capita ties and dyadic weights (so running sums
    are exact), and the same population with one household's weight split
    over two rows; the new row's id follows the household's, so it ranks
    right after it."""
    n = draw(st.integers(1, 30))
    ids = [2 * i for i in draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n,
                                        unique=True))]
    weights = [draw(st.integers(1, 64)) / 4 for _ in ids]
    weights[draw(st.integers(0, n - 1))] = 2.0 * sum(weights)  # spans whole quintiles
    households = [
        Household(hid, w, draw(st.integers(1, 3)), 0.0,
                  {"a": draw(st.sampled_from([0.0, 60.0, 150.0])),
                   "b": draw(st.sampled_from([0.0, 30.0, 0.1]))},
                  draw(st.sampled_from([0.0, 30.0])))
        for hid, w in zip(ids, weights)
    ]
    k = draw(st.integers(0, n - 1))
    h = households[k]
    halves = [Household(hid, h.weight / 2, h.residents, h.income_per_capita,
                        dict(h.expenditures), h.nonmonetary_total) for hid in (h.id, h.id + 1)]
    provenance = Provenance("file", "quintiles")
    return (Population.from_households(tuple(households), provenance),
            Population.from_households(households[:k] + halves + households[k + 1:], provenance),
            h.id)


@PROPERTY_SETTINGS
@given(split_quintile_cases())
def test_quintiles_invariant_to_weight_splitting(case):
    population, split, hid = case
    before = quintile_of(assign_quintiles(population))
    after = quintile_of(assign_quintiles(split))
    assert {i: after[i] for i in before} == dict(before)
    assert before[hid] <= after[hid + 1]


# -- table cells -----------------------------------------------------------------


def reference_means(population, quintiles, values, keep=None):
    """fsum(w * x) / fsum(w) over each quintile's households, then over all of
    them, 0 where they carry no weight; households outside ``keep`` are left out."""
    of = quintile_of(quintiles)
    rows = {q: [] for q in (1, 2, 3, 4, 5, 0)}  # 0: the whole population
    for i, hid in enumerate(population.ids.tolist()):
        if keep is None or keep[i]:
            rows[of[hid]].append(i)
            rows[0].append(i)
    w, x = population.weight.tolist(), values.tolist()
    means = []
    for q, members in rows.items():
        total = math.fsum(w[i] for i in members)
        means.append(math.fsum(w[i] * x[i] for i in members) / total if total > 0 else 0.0)
    return means


def _without_spending(population, idle):
    """The population with the ``idle`` rows' monetary and non-monetary spending
    zeroed, so they rank first and carry no budget shares."""
    spend, nonmonetary = population.spend.copy(), population.nonmonetary_total.copy()
    spend[idle] = 0.0
    nonmonetary[idle] = 0.0
    return Population(population.provenance, population.category_ids, population.ids,
                      population.weight, population.residents, population.income_per_capita,
                      nonmonetary, spend)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(0, 2**32 - 1))
# quintiles shorter and longer than the exact-sum kernel's short-array cut; a
# share of the weight spends nothing, and 0.3 of it fills the first quintile
@pytest.mark.parametrize("n", [12, 3 * _SHORT, 8 * _SHORT])
@pytest.mark.parametrize("idle_share", [0.0, 0.05, 0.3])
def test_table_cells_match_per_quintile_fsum_means(n, idle_share, seed, pick):
    population = generate_synthetic(seed, n, PLP68)
    order = np.random.default_rng(pick).permutation(n)
    cum = np.cumsum(population.weight[order])
    population = _without_spending(population, order[: np.searchsorted(cum, idle_share * cum[-1])])
    quintiles = assign_quintiles(population)
    spending = population.monetary > 0
    if idle_share == 0.3:
        of = quintile_of(quintiles)
        q1 = [i for i, hid in enumerate(population.ids.tolist()) if of[hid] == 1]
        assert q1 and not spending[q1].any()

    shares = budget_share_table(population, PLP68, quintiles)
    idx = population.column_index(PLP68)
    for row in shares[:-1]:
        members = [j for j, c in enumerate(PLP68.categories) if c.group == row.group]
        group_spend = population.spend[:, idx[members]].sum(axis=1)
        share = np.array([g / m if s else 0.0 for g, m, s in
                          zip(group_spend.tolist(), population.monetary.tolist(), spending)])
        want = [100.0 * m for m in reference_means(population, quintiles, share, spending)]
        assert list(map(repr, row.cells)) == list(map(repr, want)), row.group
    totals = [math.fsum(r.cells[i] for r in shares[:-1]) for i in range(6)]
    assert list(map(repr, shares[-1].cells)) == list(map(repr, totals))

    results = compute_scenarios(population, PLP68, REFORMS)
    mon = reference_means(population, quintiles, population.monetary)
    total = reference_means(population, quintiles,
                            population.monetary + population.nonmonetary_total)
    for result, rows in build_scenario_table(population, quintiles, results):
        net = reference_means(population, quintiles, result.net)
        delta = reference_means(population, quintiles, result.net - results[0].net)
        want = [(q, n, m, t, d, 100.0 * d / m if m else 0.0)
                for q, n, m, t, d in zip((1, 2, 3, 4, 5, 0), net, mon, total, delta)]
        got = [(r.quintile, r.mean_net_tax, r.mean_monetary_expenditure,
                r.mean_total_expenditure, r.delta_vs_baseline, r.delta_share_pct)
               for r in rows]
        assert repr(got) == repr(want), result.name
