"""CSV ingestion, writer round-trip, and the synthetic generator."""

import hashlib
import math
import random
from dataclasses import replace

import pytest

from ivasim.microdata import (
    FIXED_COLUMNS,
    Household,
    MicrodataError,
    Population,
    Provenance,
    generate_synthetic,
    _read_rows,
    load_population,
    write_population,
)
from ivasim.schedule import bundled_schedule_path, load_schedule


@pytest.fixture(scope="module")
def plp68():
    return load_schedule(bundled_schedule_path("plp68"))


@pytest.fixture(scope="module")
def uniform():
    return load_schedule(bundled_schedule_path("uniform"))


def write_csv(tmp_path, text, name="households.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


SMALL_CSV = """id,weight,residents,income_pc,nonmonetary_total,consumo
1,10.0,2,800.0,50.0,1200.0
2,20.0,1,300.0,0.0,450.5
3,5.5,4,1500.0,120.0,3000.0
"""


def test_load_three_row_fixture(tmp_path, uniform):
    p = load_population(write_csv(tmp_path, SMALL_CSV), uniform)
    assert len(p) == 3
    assert p.provenance.kind == "file"
    h = p.households[1]
    assert h.id == 2
    assert h.weight == 20.0
    assert h.expenditures["consumo"] == 450.5
    assert h.per_capita_total() == pytest.approx(450.5)


def test_missing_category_column(tmp_path, plp68):
    with pytest.raises(MicrodataError, match="cesta_basica"):
        load_population(write_csv(tmp_path, SMALL_CSV), plp68)


def test_unknown_extra_column(tmp_path, uniform):
    text = SMALL_CSV.replace(",consumo", ",consumo,misc").replace("1200.0", "1200.0,1")
    with pytest.raises(MicrodataError, match="misc"):
        load_population(write_csv(tmp_path, text), uniform)


def test_zero_weight_cites_row(tmp_path, uniform):
    text = SMALL_CSV.replace("2,20.0", "2,0.0")
    with pytest.raises(MicrodataError, match="row 3"):
        load_population(write_csv(tmp_path, text), uniform)


def test_negative_expenditure_cites_row(tmp_path, uniform):
    text = SMALL_CSV.replace("450.5", "-450.5")
    with pytest.raises(MicrodataError, match="row 3"):
        load_population(write_csv(tmp_path, text), uniform)


def test_non_numeric_cell_cites_row_and_column(tmp_path, uniform):
    text = SMALL_CSV.replace("450.5", "n/a")
    with pytest.raises(MicrodataError, match="row 3.*consumo"):
        load_population(write_csv(tmp_path, text), uniform)


def test_duplicate_id_rejected(tmp_path, uniform):
    text = SMALL_CSV.replace("\n2,", "\n1,")
    with pytest.raises(MicrodataError, match="duplicate household id 1"):
        load_population(write_csv(tmp_path, text), uniform)


def test_zero_residents_rejected(tmp_path, uniform):
    text = SMALL_CSV.replace("1,10.0,2", "1,10.0,0")
    with pytest.raises(MicrodataError, match="residents"):
        load_population(write_csv(tmp_path, text), uniform)


def test_ragged_row_rejected(tmp_path, uniform):
    text = SMALL_CSV + "4,1.0,1\n"
    with pytest.raises(MicrodataError, match="row 5"):
        load_population(write_csv(tmp_path, text), uniform)


def test_missing_file_and_empty_file(tmp_path, uniform):
    with pytest.raises(MicrodataError, match="not found"):
        load_population(tmp_path / "nope.csv", uniform)
    with pytest.raises(MicrodataError, match="empty"):
        load_population(write_csv(tmp_path, ""), uniform)
    header_only = SMALL_CSV.splitlines()[0] + "\n"
    with pytest.raises(MicrodataError, match="no data rows"):
        load_population(write_csv(tmp_path, header_only), uniform)


def test_header_layout_enforced(tmp_path, uniform):
    text = SMALL_CSV.replace("id,weight", "weight,id")
    with pytest.raises(MicrodataError, match="header"):
        load_population(write_csv(tmp_path, text), uniform)


# -- writer round-trip -------------------------------------------------------


def test_write_load_round_trip(tmp_path, plp68):
    p = generate_synthetic(7, 50, plp68)
    path = tmp_path / "out.csv"
    write_population(p, path, plp68)
    again = load_population(path, plp68)
    assert len(again) == len(p)
    for a, b in zip(p.households, again.households):
        # repr-based formatting round-trips every float exactly
        assert a.id == b.id
        assert a.weight == b.weight
        assert a.residents == b.residents
        assert a.income_per_capita == b.income_per_capita
        assert a.nonmonetary_total == b.nonmonetary_total
        assert a.expenditures == dict(b.expenditures)


# -- synthetic generation ----------------------------------------------------


def test_generation_deterministic(plp68):
    a = generate_synthetic(42, 200, plp68)
    b = generate_synthetic(42, 200, plp68)
    assert a.households == b.households
    assert a.provenance == Provenance("synthetic", "42:200")


def test_generated_spending_bits_pinned(plp68):
    # the tables round away a last-bit change in spend; this digest does not
    p = generate_synthetic(42, 2000, plp68)
    assert hashlib.sha256(p.spend.tobytes()).hexdigest() == (
        "c8bf9d5fe3713f3731c036205e22327bd4337ab67f2e70e59b218e59fa05f257"
    )


def test_generation_varies_with_seed(plp68):
    a = generate_synthetic(42, 50, plp68)
    b = generate_synthetic(43, 50, plp68)
    assert a.households != b.households


def test_generation_varies_with_schedule(plp68, uniform):
    # the schedule fingerprint is folded into the stream
    a = generate_synthetic(42, 50, plp68)
    b = generate_synthetic(42, 50, uniform)
    assert [h.weight for h in a.households] != [h.weight for h in b.households]


def test_generated_population_satisfies_invariants(plp68):
    p = generate_synthetic(11, 2000, plp68)
    p.validate_against(plp68)
    assert [h.id for h in p.households] == list(range(1, 2001))
    for h in p.households:
        assert h.weight > 0
        assert h.residents >= 1
        assert h.income_per_capita >= 0
        assert h.nonmonetary_total >= 0
        assert all(v >= 0 for v in h.expenditures.values())
        assert h.monetary_total() > 0


def test_generated_eligibility_fraction_nontrivial(plp68):
    # the cashback threshold has to bite on a visible minority
    p = generate_synthetic(42, 2000, plp68)
    share = sum(
        h.weight for h in p.households if h.income_per_capita <= plp68.eligibility_threshold
    ) / p.total_weight()
    assert 0.15 < share < 0.40


def test_rent_participation_is_sparse(plp68):
    p = generate_synthetic(42, 2000, plp68)
    renters = sum(1 for h in p.households if h.expenditures["aluguel_imovel"] > 0)
    assert 0.2 < renters / len(p) < 0.4
    # the base reducer binds for some renters and not others
    above = sum(1 for h in p.households if h.expenditures["aluguel_imovel"] > 400.0)
    assert 0 < above < renters


def test_generation_rejects_empty(plp68):
    with pytest.raises(MicrodataError, match=">= 1"):
        generate_synthetic(42, 0, plp68)


def test_population_rejects_duplicates_and_empty():
    h = Household(1, 1.0, 1, 0.0, {"consumo": 10.0}, 0.0)
    with pytest.raises(MicrodataError, match="duplicate"):
        Population.from_households((h, h), Provenance("file", "x"))
    with pytest.raises(MicrodataError, match="at least one"):
        Population.from_households((), Provenance("file", "x"))


def test_validate_against_rejects_mismatched_schedule(plp68, uniform):
    p = generate_synthetic(42, 5, plp68)
    with pytest.raises(MicrodataError, match="consumo"):
        p.validate_against(uniform)


def test_household_total_helpers():
    h = Household(9, 2.0, 4, 100.0, {"a": 300.0, "b": 100.0}, 80.0)
    assert h.monetary_total() == 400.0
    assert h.total_expenditure() == 480.0
    assert h.per_capita_total() == 120.0


def test_population_rejects_mixed_category_sets():
    a = Household(1, 1.0, 1, 0.0, {"consumo": 10.0}, 0.0)
    b = Household(2, 1.0, 1, 0.0, {"consumo": 5.0, "misc": 1.0}, 0.0)
    with pytest.raises(MicrodataError, match=r"household 2: unknown categories \['misc'\]"):
        Population.from_households((a, b), Provenance("file", "x"))


def test_columns_built_at_load_and_synthesis_agree(tmp_path, plp68):
    p = generate_synthetic(5, 40, plp68)
    path = tmp_path / "hh.csv"
    write_population(p, path, plp68)
    for other in (load_population(path, plp68),
                  Population.from_households(p.households, p.provenance)):
        assert other.category_ids == p.category_ids == plp68.category_ids()
        for name in ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total",
                     "spend"):
            assert getattr(other, name).tobytes() == getattr(p, name).tobytes(), name
    assert not p.spend.flags.writeable


def test_from_households_sorts_by_id_and_rows_are_views_of_the_columns(plp68):
    source = generate_synthetic(9, 30, plp68)
    shuffled = list(source.households)
    random.Random(4).shuffle(shuffled)
    columns = (source.provenance, source.category_ids, source.ids, source.weight,
               source.residents, source.income_per_capita, source.nonmonetary_total,
               source.spend)
    direct = Population(*columns)
    stacked = Population.from_households(shuffled, source.provenance)
    rows_before = [stacked.row(i) for i in range(len(stacked))]
    assert stacked.households == tuple(sorted(shuffled, key=lambda h: h.id))
    assert rows_before == [stacked.row(i) for i in range(len(stacked))] == list(stacked.households)
    assert stacked.category_ids == direct.category_ids
    for name in ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total", "spend"):
        assert getattr(stacked, name).tobytes() == getattr(direct, name).tobytes(), name
        assert getattr(stacked, name).dtype == getattr(direct, name).dtype, name
    assert stacked.spend.flags.f_contiguous


@pytest.mark.parametrize("name", FIXED_COLUMNS)
def test_category_named_like_a_fixed_column_round_trips(tmp_path, uniform, name):
    schedule = replace(uniform, categories=(replace(uniform.categories[0], id=name),))
    p = generate_synthetic(3, 40, schedule)
    path = tmp_path / "hh.csv"
    write_population(p, path, schedule)
    for other in (load_population(path, schedule), _read_rows(path, schedule)):
        assert other.category_ids == (name,)
        for column in ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total",
                       "spend"):
            assert getattr(other, column).tobytes() == getattr(p, column).tobytes(), column


def test_id_beyond_64_bits_rejected(tmp_path, uniform):
    text = SMALL_CSV.replace("\n3,", f"\n{2**63},")
    with pytest.raises(MicrodataError, match="row 4: column 'id': outside the 64-bit"):
        load_population(write_csv(tmp_path, text), uniform)


def test_duplicate_id_in_arrays_names_first_repeat(uniform):
    h = [Household(i, 1.0, 1, 0.0, {"consumo": 1.0}, 0.0) for i in (5, 3, 9, 3, 5)]
    with pytest.raises(MicrodataError, match="duplicate household id 3"):
        Population.from_households(h, Provenance("file", "x"))


@pytest.mark.parametrize("old, new, message", [
    ("\n2,20.0", "\n2_0,20.0", "column 'id': not an integer: '2_0'"),
    ("20.0,1,", "20.0,١,", "column 'residents': not an integer: '١'"),
    ("450.5", "4_50.5", "column 'consumo': not a number: '4_50.5'"),
    ("450.5", "٤٥٠", "column 'consumo': not a number: '٤٥٠'"),
])
def test_numbers_are_plain_ascii(tmp_path, uniform, old, new, message):
    # int() and float() take these; the households reader does not
    path = write_csv(tmp_path, SMALL_CSV.replace(old, new))
    with pytest.raises(MicrodataError) as exc:
        load_population(path, uniform)
    assert str(exc.value) == f"{path}: row 3: {message}"
