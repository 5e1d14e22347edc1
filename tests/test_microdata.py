"""CSV ingestion, writer round-trip, and the synthetic generator."""

import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ivasim import csvbody, microdata
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
from ivasim.solver import solve_with_cashback

from helpers import repr_csv


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


@pytest.mark.parametrize("edits, row", [
    ({b",consumo": b",cons\xffumo"}, 1),
    ({b"450.5": b"4\xff50.5"}, 3),
    # a quoted cell spanning two lines is one row, as in every other row error
    ({b"1,10.0,": b'1,"10.0\n",', b"450.5": b"4\xff50.5"}, 3),
], ids=["header", "body", "after_a_two_line_row"])
def test_byte_that_is_not_utf8_cites_row(tmp_path, uniform, edits, row):
    text = SMALL_CSV.encode()
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "households.csv"
    path.write_bytes(text)
    with pytest.raises(MicrodataError) as excinfo:
        load_population(path, uniform)
    assert str(excinfo.value) == f"{path}: row {row}: byte 0xff is not UTF-8 text"


def test_utf8_text_outside_ascii_is_read_as_text(tmp_path, uniform):
    # a valid multi-byte character is no decoding error: the header check names it
    text = SMALL_CSV.replace(",consumo", ",consumo_ç")
    with pytest.raises(MicrodataError, match="unknown column\\(s\\) \\['consumo_ç'\\]"):
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


def test_writer_matches_the_repr_writer(tmp_path, plp68):
    p = generate_synthetic(7, 20000, plp68)
    write_population(p, tmp_path / "kernel.csv", plp68)
    repr_csv(p, tmp_path / "repr.csv", plp68)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "repr.csv").read_bytes()


def test_written_bytes_pinned(tmp_path, plp68):
    # the file generate --synthetic 42:2000 writes, as every earlier writer wrote it
    path = tmp_path / "households.csv"
    write_population(generate_synthetic(42, 2000, plp68), path, plp68)
    data = path.read_bytes()
    assert len(data) == 838364
    assert hashlib.sha256(data).hexdigest() == (
        "4699646aff14100aee107c14e01e82d9e516efb6a3a5f184ef44ff29930dd164"
    )


# each of the writer's paths: short decimals, a whole number, zero and its
# sign, exponent forms below 1e-4 and from 1e16, powers of two, the largest
# double below 1e16, an integer above 2**53 and the smallest subnormal
EDGE_CELLS = [repr(x) for x in (0.1, 12.5, 150.0, 0.0, -0.0, 1e-05, 0.0001, 2.0**-3,
                                9999999999999998.0, 1e16, float(2**53 + 2), 5e-324)]


def test_writer_matches_the_repr_writer_on_edge_cells(tmp_path, uniform):
    rows = []
    for i, cell in enumerate(EDGE_CELLS):
        other = EDGE_CELLS[(i + 5) % len(EDGE_CELLS)]
        weight = cell if float(cell) > 0 else "2.0"
        rows.append(f"{10 * i + 1},{weight},{i + 1},{other},{cell},{cell}")
    source = write_csv(tmp_path, SMALL_CSV.splitlines()[0] + "\n" + "\n".join(rows) + "\n")
    p = load_population(source, uniform)
    write_population(p, tmp_path / "kernel.csv", uniform)
    repr_csv(p, tmp_path / "repr.csv", uniform)
    written = (tmp_path / "kernel.csv").read_bytes()
    assert written == (tmp_path / "repr.csv").read_bytes()
    assert written == source.read_bytes()
    again = load_population(tmp_path / "kernel.csv", uniform)
    assert again.spend.tobytes() == p.spend.tobytes()  # -0.0 included


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


def test_row_check_names_the_first_bad_row_in_input_order():
    # row 0 breaks only the last spend column; row 2 breaks the weight, which is
    # checked first; and the rows are not yet in id order
    spend = np.ones((3, 4))
    spend[0, 3] = -1.0
    weight = np.array([1.0, 1.0, 0.0])
    with pytest.raises(MicrodataError) as exc:
        Population(Provenance("file", "x"), ("a", "b", "c", "d"), np.array([7, 5, 2]), weight,
                   np.ones(3, np.int64), np.zeros(3), np.zeros(3), spend)
    assert str(exc.value) == "household 7: expenditure 'd' must be >= 0, got -1.0"


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


# -- the body in blocks ------------------------------------------------------

COLUMNS = ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total", "spend")


@pytest.fixture
def parsed(monkeypatch):
    """Blocks of 1000 bytes (about two plp68 rows), and a log of how the body was read.

    The log holds "plain" or "other" for each block ``plain_columns`` saw, and
    "loadtxt" when the whole file went to the structured ``np.loadtxt``.
    """
    monkeypatch.setattr(csvbody, "_BLOCK_BYTES", 1000)
    log = []
    plain_columns, read_structured = csvbody.plain_columns, microdata._read_structured

    def plain_spy(block, k, int_columns):
        columns = plain_columns(block, k, int_columns)
        log.append("plain" if columns is not None else "other")
        return columns

    def structured_spy(*args):
        log.append("loadtxt")
        return read_structured(*args)

    monkeypatch.setattr(csvbody, "plain_columns", plain_spy)
    monkeypatch.setattr(microdata, "_read_structured", structured_spy)
    return log


def csv_lines(tmp_path, plp68, n=40):
    """The header and rows write_population writes for a synthetic population."""
    path = tmp_path / "written.csv"
    write_population(generate_synthetic(7, n, plp68), path, plp68)
    return path.read_text(encoding="utf-8").splitlines()


def reads_like_row_reader(path, schedule):
    """load_population's columns, asserted bit-identical to the row reader's."""
    population = load_population(path, schedule)
    reference = _read_rows(path, schedule)
    for name in COLUMNS:
        a, b = getattr(population, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # signed zeros included
    return population


@pytest.mark.parametrize("block_bytes", [64, 333, 1000, 4096, 1 << 19])
def test_rows_straddling_block_boundaries(tmp_path, plp68, parsed, monkeypatch, block_bytes):
    monkeypatch.setattr(csvbody, "_BLOCK_BYTES", block_bytes)
    path = write_csv(tmp_path, "\n".join(csv_lines(tmp_path, plp68)) + "\n")
    assert len(reads_like_row_reader(path, plp68)) == 40
    assert set(parsed) == {"plain"}


def test_last_line_without_line_end(tmp_path, plp68, parsed):
    path = write_csv(tmp_path, "\n".join(csv_lines(tmp_path, plp68)))
    assert len(reads_like_row_reader(path, plp68)) == 40
    assert set(parsed) == {"plain"}


def _cell(line, j, text):
    cells = line.split(",")
    cells[j] = text
    return ",".join(cells)


@pytest.mark.parametrize("change", ["exponent", "spaces", "plus", "quoted", "quoted_line_end",
                                    "crlf"])
def test_other_block_sends_the_file_to_loadtxt(tmp_path, plp68, parsed, change):
    lines = csv_lines(tmp_path, plp68)
    if change == "exponent":
        lines[20] = _cell(lines[20], 7, "1e-05")
    elif change == "spaces":
        lines[20] = _cell(lines[20], 7, " 12.5\t")
    elif change == "plus":
        lines[20] = _cell(lines[20], 7, "+12.5")
    elif change == "quoted":
        lines[20] = _cell(lines[20], 1, '"12.5"')
    elif change == "quoted_line_end":  # a quoted cell may hold a line end
        lines[20] = _cell(lines[20], 9, '"0.25\n"')
    else:
        lines[18:22] = [line + "\r" for line in lines[18:22]]
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    assert len(reads_like_row_reader(path, plp68)) == 40
    if change == "exponent":
        assert parsed == ["loadtxt"]  # the counting pass saw a byte above "9"
    else:
        # the plain blocks before it are dropped, and no block after it is read
        assert parsed[0] == "plain" and parsed[-2:] == ["other", "loadtxt"]


@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
def test_other_line_ends_throughout(tmp_path, plp68, parsed, line_end):
    path = tmp_path / "households.csv"
    path.write_bytes((line_end.join(csv_lines(tmp_path, plp68)) + line_end).encode())
    assert len(reads_like_row_reader(path, plp68)) == 40
    assert parsed == ["loadtxt"]  # the header line alone decides


@pytest.mark.parametrize("end", ["\n", "\n\n\n"])
def test_blank_lines(tmp_path, plp68, parsed, end):
    lines = csv_lines(tmp_path, plp68)
    # blank lines after the header, between rows, filling whole blocks, and at the end
    lines[1:1] = [""] * 3
    lines[10:10] = [""]
    lines[25:25] = [""] * 2500
    path = write_csv(tmp_path, "\n".join(lines) + end)
    assert len(reads_like_row_reader(path, plp68)) == 40
    # a blank last line shows in the counting pass
    assert parsed == (["other", "loadtxt"] if end == "\n" else ["loadtxt"])


def test_header_only(tmp_path, plp68, parsed):
    path = write_csv(tmp_path, csv_lines(tmp_path, plp68)[0] + "\n")
    with pytest.raises(MicrodataError) as fast:
        load_population(path, plp68)
    with pytest.raises(MicrodataError) as reference:
        _read_rows(path, plp68)
    assert str(fast.value) == str(reference.value)
    assert parsed == ["loadtxt"]


def test_negative_zero_spending_keeps_its_sign(tmp_path, plp68, parsed):
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 8, "-0.0")
    lines[30] = _cell(lines[30], 12, "-0")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, plp68)
    assert set(parsed) == {"plain"}
    assert np.signbit(population.spend).sum() == 2


def test_integer_columns_keep_all_64_bits(tmp_path, plp68, parsed):
    lines = csv_lines(tmp_path, plp68)
    # ids a double cannot hold, one a rounding tie away from its neighbours
    lines[20] = _cell(lines[20], 0, str(2**63 - 1))
    lines[21] = _cell(lines[21], 0, str(2**53 + 1))
    lines[22] = _cell(lines[22], 0, "-" + str(2**63))
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, plp68)
    assert set(parsed) == {"plain"}
    assert {2**63 - 1, 2**53 + 1, -(2**63)} <= set(population.ids.tolist())


def test_only_float_columns_are_scaled(tmp_path, plp68, parsed, monkeypatch):
    scaled = []
    decimal_values = csvbody._decimal_values

    def spy(significand, digits):
        scaled.append(len(significand))
        return decimal_values(significand, digits)

    lines = csv_lines(tmp_path, plp68)  # the writer scales too; only the reading is counted
    monkeypatch.setattr(csvbody, "_decimal_values", spy)
    reads_like_row_reader(write_csv(tmp_path, "\n".join(lines) + "\n"), plp68)
    # id and residents are the int64 significands themselves
    assert sum(scaled) == 40 * (len(lines[0].split(",")) - 2)


@pytest.mark.parametrize("column", [0, 2])
def test_dot_in_an_integer_column_is_not_an_integer(tmp_path, plp68, parsed, column):
    lines = csv_lines(tmp_path, plp68)
    value = lines[20].split(",")[column]
    lines[20] = _cell(lines[20], column, value + ".0")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(MicrodataError) as fast:
        load_population(path, plp68)
    name = FIXED_COLUMNS[column]
    assert str(fast.value) == f"{path}: row 21: column {name!r}: not an integer: '{value}.0'"
    with pytest.raises(MicrodataError) as reference:
        _read_rows(path, plp68)
    assert str(fast.value) == str(reference.value)
    assert parsed[-2:] == ["other", "loadtxt"]


def test_cells_the_kernel_leaves_unsettled_are_read_by_float(tmp_path, plp68, parsed):
    lines = csv_lines(tmp_path, plp68)
    # a rounding tie, a tie in the integer range, and more digits than the kernel scales
    lines[20] = _cell(lines[20], 6, "4503599627370497.5")
    lines[21] = _cell(lines[21], 7, "9007199254740993")
    lines[22] = _cell(lines[22], 8, "0." + "0" * 47 + "3")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, plp68)
    assert set(parsed) == {"plain"}
    # ties round to the even neighbour
    assert {4503599627370498.0, 9007199254740992.0, 3e-48} <= set(population.spend.ravel())


@pytest.mark.parametrize("cell", ["1.2.3", ".-0", "0.-0", "-", "-.", ".", "", "1-2", "--1"])
def test_malformed_plain_cell_gives_the_row_reader_message(tmp_path, plp68, parsed, cell):
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 8, cell)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(MicrodataError) as fast:
        load_population(path, plp68)
    column = lines[0].split(",")[8]
    assert str(fast.value) == f"{path}: row 21: column {column!r}: not a number: {cell!r}"


def test_households_file_path_holds_a_few_mb_beyond_the_columns(tmp_path, plp68):
    """Traced peaks above the population's own arrays on a 20k households file.

    The bounds sit between two designs, measured with numpy 2.4 only (MiB): a
    load with 512 KB blocks, a bytearray carried between blocks and an n x k
    row-check mask peaks 6.6 above the columns, this one 2.8 (some 11
    ``_BLOCK_BYTES``, the same at 5k and 80k households); a solve with
    n-length products and 8192-row blocks 3.5, this one 1.0.  The bounds
    leave this design close to twice its measured scratch, as other numpy
    versions (1.23 was not measured) may allocate their temporaries
    differently.
    """
    path = tmp_path / "households.csv"
    write_population(generate_synthetic(3, 20_000, plp68), path, plp68)
    load_population(path, plp68)  # caches filled on the first call are not scratch
    tracemalloc.start()
    try:
        population = load_population(path, plp68)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solve_with_cashback(population, plp68, plp68.target_net_burden)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(population, name).nbytes for name in COLUMNS)
    assert load_peak - columns < 20 * csvbody._BLOCK_BYTES
    assert solve_peak - columns < 2 * 2**20
