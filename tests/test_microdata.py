"""CSV ingestion, writer round-trip, and the synthetic generator."""

import errno
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ivasim import csvbody, exactsum, microdata
from ivasim.csvbody import _read_rows
from ivasim.microdata import (
    FIXED_COLUMNS,
    MIN_WEIGHT,
    Household,
    MicrodataError,
    Population,
    Provenance,
    generate_synthetic,
    load_population,
    write_population,
)
from ivasim.schedule import bundled_schedule_path, load_schedule
from ivasim.solver import solve_with_cashback

from helpers import monetary_total, per_capita_total, repr_csv, total_expenditure


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
    assert per_capita_total(h) == pytest.approx(450.5)


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
        weight = cell if float(cell) >= MIN_WEIGHT else "2.0"  # a weight is a normal double
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


# -- work two at a time, and the body written on two threads -----------------


def pin_cpus(monkeypatch, cpus):
    """The CPUs this process may run on, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def within_a_minute(function):
    """What ``function()`` raised, or None; run on a thread that must end
    within 60 s, so that a deadlock fails the test rather than hanging it."""
    raised = []

    def run():
        try:
            function()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    return raised[0] if raised else None


def on_alternate_threads(log):
    """Each item worked by the thread that worked item 0 if it is even, and
    by another if it is odd; ``log`` holds (item, thread ident) pairs."""
    caller = dict(log)[0]
    return all((ident == caller) == (item % 2 == 0) for item, ident in log)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_in_pairs_yields_in_order_with_at_most_two_results_held(monkeypatch, n):
    pin_cpus(monkeypatch, {0, 1})
    log, taken = [], []
    before = set(threading.enumerate())

    def work(item):
        assert item <= len(taken) + 1  # items before the last two worked are taken
        started = set(threading.enumerate()) - before
        # one thread per pair, the one working the odd item: the previous
        # pair's has ended (an ended thread's ident may be reused, so idents
        # are not counted)
        assert len(started) <= 1
        if item % 2:
            assert started == {threading.current_thread()}
        log.append((item, threading.get_ident()))
        return 10 * item

    for result in csvbody._in_pairs(work, range(n)):
        taken.append(result)
    assert taken == [10 * item for item in range(n)]
    assert on_alternate_threads(log)
    assert set(threading.enumerate()) == before  # no thread outlives the loop


def test_in_pairs_under_frequent_thread_switches(monkeypatch):
    pin_cpus(monkeypatch, {0, 1})
    log, taken = [], []

    def work(item):
        assert item <= len(taken) + 1
        log.append((item, threading.get_ident()))
        return np.full(1000, item).sum()  # numpy releases the GIL here and there

    def run():
        for _ in range(3):
            taken.clear()
            for result in csvbody._in_pairs(work, range(40)):
                taken.append(result)
            assert taken == [1000 * item for item in range(40)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert within_a_minute(run) is None
    finally:
        sys.setswitchinterval(interval)
    assert on_alternate_threads(log)


@pytest.mark.parametrize("fails", [0, 1, 3])  # the caller's item, the worker's first, a later one
def test_in_pairs_raises_an_exception_once_the_worker_has_ended(monkeypatch, fails):
    pin_cpus(monkeypatch, {0, 1})
    log = []

    def work(item):
        log.append((item, threading.get_ident()))
        if item == fails:
            raise RuntimeError(f"item {item}")
        return item

    def run():
        for _ in csvbody._in_pairs(work, range(8)):
            pass

    threads = threading.active_count()
    raised = within_a_minute(run)
    assert isinstance(raised, RuntimeError) and str(raised) == f"item {fails}"
    assert threading.active_count() == threads
    # nothing worked after the failing item's pair; the worker may not have begun its item
    assert on_alternate_threads(log)
    assert sorted(item for item, _ in log)[:fails + 1] == list(range(fails + 1))
    assert max(item for item, _ in log) <= fails | 1


@pytest.mark.parametrize("how", ["close", "full_disk"])
@pytest.mark.parametrize("last", [0, 1, 2])  # a result of the caller's, the worker's, the caller's
def test_in_pairs_caller_that_stops_early_ends_the_worker(monkeypatch, how, last):
    pin_cpus(monkeypatch, {0, 1})
    worked = []

    def work(item):
        worked.append(item)
        return item

    def run():
        if how == "close":
            results = csvbody._in_pairs(work, range(8))
            for result in results:
                if result == last:
                    results.close()
        else:  # as write does: the generator is dropped when a write fails
            for result in csvbody._in_pairs(work, range(8)):
                if result == last:
                    raise OSError(errno.ENOSPC, "No space left on device")

    threads = threading.active_count()
    raised = within_a_minute(run)
    assert raised is None if how == "close" else raised.errno == errno.ENOSPC
    assert threading.active_count() == threads
    # the worker ends after the item it is on, if it has begun it
    assert sorted(worked)[:last + 1] == list(range(last + 1)) and max(worked) <= last | 1


@pytest.mark.parametrize("n, cpus", [(0, {0, 1}), (1, {0, 1}), (5, {0})])
def test_in_pairs_of_one_item_or_on_one_cpu_starts_no_thread(monkeypatch, n, cpus):
    pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(csvbody, "threading", SimpleNamespace())  # any use raises
    assert list(csvbody._in_pairs(lambda item: 10 * item, range(n))) == [10 * i for i in range(n)]


def test_a_process_that_keeps_an_unfinished_in_pairs_exits():
    # the thread of the pair under way ends after its item, so the child's
    # interpreter has no thread left to wait for at exit
    script = ("import os\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from ivasim import csvbody\n"
              "results = csvbody._in_pairs(lambda item: item, range(4))\n"
              "assert next(results) == 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(csvbody.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           timeout=10)
    assert child.returncode == 0, child.stderr


ROWS_PER_BLOCK = 10  # plp68's 25 cells a row, in blocks of 250 cells


# 1 block, 1 at its edge, 2 (one row in the second), 3, and 4 ending at a block edge
@pytest.mark.parametrize("n", [7, 10, 11, 25, 40])
def test_two_thread_write_matches_the_repr_writer_and_the_one_thread_write(
        tmp_path, plp68, monkeypatch, n):
    monkeypatch.setattr(csvbody, "_WRITE_CELLS", 250)
    log = []  # (block, thread ident) of each block rendered
    text_block = csvbody._text_block

    def block_spy(columns, int_columns, rows):
        log.append((rows.start // ROWS_PER_BLOCK, threading.get_ident()))
        return text_block(columns, int_columns, rows)

    monkeypatch.setattr(csvbody, "_text_block", block_spy)
    pin_cpus(monkeypatch, {0, 1})
    population = generate_synthetic(7, n, plp68)
    write_population(population, tmp_path / "two.csv", plp68)
    assert sorted(block for block, _ in log) == list(range(-(-n // ROWS_PER_BLOCK)))
    assert on_alternate_threads(log)
    log.clear()
    pin_cpus(monkeypatch, {0})
    write_population(population, tmp_path / "one.csv", plp68)
    assert len({ident for _, ident in log}) == 1
    repr_csv(population, tmp_path / "repr.csv", plp68)
    written = (tmp_path / "two.csv").read_bytes()
    assert written == (tmp_path / "one.csv").read_bytes()
    assert written == (tmp_path / "repr.csv").read_bytes()


# -- synthetic generation ----------------------------------------------------


def test_generation_deterministic(plp68):
    a = generate_synthetic(42, 200, plp68)
    b = generate_synthetic(42, 200, plp68)
    assert a.households == b.households
    assert a.provenance == Provenance("synthetic", "42:200")


def test_generated_spending_bits_pinned(plp68, uniform):
    # the tables round away a last-bit change in spend; this digest does not
    p = generate_synthetic(42, 2000, plp68)
    assert hashlib.sha256(p.spend.tobytes()).hexdigest() == (
        "c8bf9d5fe3713f3731c036205e22327bd4337ab67f2e70e59b218e59fa05f257"
    )
    # one category: every share is a row total over itself
    p = generate_synthetic(42, 2000, uniform)
    assert hashlib.sha256(p.spend.tobytes()).hexdigest() == (
        "30000879abe1a8892bd4cded4bfccfa830899d4475fd88f66f20923b3549b9c6"
    )


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 20, 128, 129, 300])
def test_row_totals_are_the_c_order_row_sums(k):
    # numpy's pairwise sum along a contiguous row sets the last bits; the
    # synthetic shares are pinned to them
    rows = exactsum.ROW_BLOCK
    rng = np.random.default_rng(k)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        matrix = np.asfortranarray(rng.lognormal(0.0, 3.0, size=(n, k)))
        expected = np.ascontiguousarray(matrix).sum(axis=1).tobytes()
        assert microdata._row_totals(matrix).tobytes() == expected, n
        assert microdata._row_totals(np.ascontiguousarray(matrix)).tobytes() == expected, n


def test_synthesis_holds_one_spend_matrix(plp68):
    """Traced scratch of ``generate_synthetic`` at 50k beyond the columns it
    returns, in float64 n-vectors: drawing every column into the array that
    is returned and freeing each draw once used peaks at 2.6 with numpy 2.4
    (z, the monetary totals and one category's noise, or the row totals and
    a block of rows); n-length intermediates peaked at 6.6, and a separate
    C-order matrix of draws at about 24 (18.4 MiB at 100k)."""
    generate_synthetic(42, 1000, plp68)  # caches filled on the first call are not scratch
    n = 50_000
    tracemalloc.start()
    try:
        population = generate_synthetic(42, n, plp68)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(population, name).nbytes for name in COLUMNS)
    assert peak - columns <= 3 * 8 * n


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
        assert monetary_total(h) > 0


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


@pytest.mark.parametrize("field", ["id", "residents"])
def test_population_refuses_a_household_beyond_64_bits(field):
    h = replace(Household(1, 1.0, 1, 0.0, {"consumo": 10.0}, 0.0), **{field: 2**64})
    with pytest.raises(MicrodataError, match="^household ids and residents must fit in 64 bits$"):
        Population.from_households((h,), Provenance("file", "x"))


def test_validate_against_rejects_mismatched_schedule(plp68, uniform):
    p = generate_synthetic(42, 5, plp68)
    with pytest.raises(MicrodataError, match="consumo"):
        p.validate_against(uniform)


def test_household_total_helpers():
    h = Household(9, 2.0, 4, 100.0, {"a": 300.0, "b": 100.0}, 80.0)
    assert monetary_total(h) == 400.0
    assert total_expenditure(h) == 480.0
    assert per_capita_total(h) == 120.0


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


def test_sorting_shuffled_columns_copies_spend_once(plp68):
    """Constructing a population from 100k shuffled rows holds one sorted copy of
    the columns plus a few MiB (measured 1.5 MiB above them with numpy 2.4); a
    sort through a C-order copy of ``spend`` peaks 15.3 MiB above them."""
    source = generate_synthetic(3, 100_000, plp68)
    shuffled = np.random.default_rng(5).permutation(len(source))
    columns = [getattr(source, name)[shuffled] for name in COLUMNS[:-1]]
    columns.append(np.asfortranarray(source.spend[shuffled]))
    tracemalloc.start()
    try:
        population = Population(source.provenance, source.category_ids, *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(c.nbytes for c in columns) < 4 * 2**20
    for name in COLUMNS:
        assert getattr(population, name).tobytes() == getattr(source, name).tobytes(), name
    assert population.spend.flags.f_contiguous


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


@pytest.mark.parametrize("padding", ["\x1c", "\x1d", "\x1e", "\x1f"])
@pytest.mark.parametrize("column", ["id", "weight", "residents", "consumo"])
def test_information_separators_around_a_number_are_whitespace(tmp_path, uniform, padding,
                                                               column):
    # str.strip and numpy's parser skip U+001C to U+001F; float() and int() do not
    lines = SMALL_CSV.splitlines()
    j = lines[0].split(",").index(column)
    lines[2] = _cell(lines[2], j, padding + lines[2].split(",")[j] + padding)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, uniform)
    plain = reads_like_row_reader(write_csv(tmp_path, SMALL_CSV, "plain.csv"), uniform)
    for name in COLUMNS:
        assert getattr(population, name).tobytes() == getattr(plain, name).tobytes(), name


# -- the body in blocks ------------------------------------------------------

COLUMNS = ("ids", "weight", "residents", "income_per_capita", "nonmonetary_total", "spend")


@pytest.fixture
def parsed(monkeypatch):
    """Blocks of 1000 bytes (about two plp68 rows), one CPU, and a log of how
    the body was read.

    A body of two lines or more is read as two halves, so on one CPU as the
    first half and then the second, on the calling thread.  The log holds
    "plain" or "other" for each block ``plain_columns`` saw, and "loadtxt"
    when the whole file went to the structured ``np.loadtxt``.
    """
    monkeypatch.setattr(csvbody, "_BLOCK_BYTES", 1000)
    pin_cpus(monkeypatch, {0})
    log = []
    plain_columns, read_structured = csvbody.plain_columns, csvbody._read_structured

    def plain_spy(block, k):
        columns = plain_columns(block, k)
        log.append("plain" if columns is not None else "other")
        return columns

    def structured_spy(*args):
        log.append("loadtxt")
        return read_structured(*args)

    monkeypatch.setattr(csvbody, "plain_columns", plain_spy)
    monkeypatch.setattr(csvbody, "_read_structured", structured_spy)
    return log


def fallback_log(path):
    """The ``parsed`` log of a one-CPU read that goes to ``np.loadtxt``.

    Each half (``split_at``) reads its blocks to its end, or up to and
    including its first that is not plain, whatever the other half met; then
    the whole file goes to "loadtxt".
    """
    body, split = split_at(path)
    k = len(path.read_bytes().split(b"\n", 1)[0].split(b","))
    log = []
    for start, end in ((body, split), (split, None)):
        with path.open("rb") as fh:
            fh.seek(start)
            for block in BLOCKS(fh, end):
                log.append("other" if PLAIN_COLUMNS(block, k) is None
                           else "plain")
                if log[-1] == "other":
                    break
    return log + ["loadtxt"]


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
        # the plain blocks before it are dropped, and its half reads no block after it
        assert parsed[0] == "plain" and parsed == fallback_log(path)


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
    # a blank last line shows in the counting pass; else each half stops at its blank block
    assert parsed == (["other", "other", "loadtxt"] if end == "\n" else ["loadtxt"])


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
    assert parsed == fallback_log(path)


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


def _load_both(path, schedule):
    """The messages of load_population and of the row reader, asserted equal."""
    with pytest.raises(MicrodataError) as fast:
        load_population(path, schedule)
    with pytest.raises(MicrodataError) as reference:
        _read_rows(path, schedule)
    assert str(fast.value) == str(reference.value)
    return str(fast.value)


@pytest.mark.parametrize("cell", ["-", "-.", "."])
def test_cell_without_a_digit_is_not_plain(tmp_path, plp68, parsed, cell):
    # the int64 parse may read such a cell as 0; the block goes to np.loadtxt
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 8, cell)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    column = lines[0].split(",")[8]
    assert _load_both(path, plp68) == f"{path}: row 21: column {column!r}: not a number: {cell!r}"
    assert parsed[0] == "plain" and parsed == fallback_log(path)


def test_sign_and_dot_before_the_digits_is_plain(tmp_path, plp68, parsed):
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 8, "-.5")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    column = lines[0].split(",")[8]
    # the cell is read as -0.5 by the block parse; the row check refuses it
    assert _load_both(path, plp68).endswith(f"expenditure {column!r} must be >= 0, got -0.5")
    assert set(parsed) == {"plain"}


def test_long_zero_led_significand_is_plain(tmp_path, plp68, parsed):
    # 21 digits, "000012345678901234567" without its dot: more than int64's
    # 18 safe digits, a value well inside it
    cell = "0.00012345678901234567"
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 8, cell)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, plp68)
    assert set(parsed) == {"plain"}
    assert float(cell) in set(population.spend.ravel())


def test_float_significand_beyond_64_bits_is_not_plain(tmp_path, plp68, parsed):
    cell = "12345678901234567890.5"
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 8, cell)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, plp68)
    assert parsed[0] == "plain" and parsed == fallback_log(path)
    assert float(cell) in set(population.spend.ravel())


@pytest.mark.parametrize("split", [False, True])
def test_cell_of_more_digits_than_int_reads_is_not_plain(tmp_path, plp68, parsed, request, split):
    # a valid cell that int() refuses to read from text (4300 digits at most by
    # default); the block goes to np.loadtxt, in either half of a split read
    if split:
        halves = request.getfixturevalue("halves")
    cell = "0" * 5000 + "12.5"
    lines = csv_lines(tmp_path, plp68)
    lines[30] = _cell(lines[30], 8, cell)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    population = reads_like_row_reader(path, plp68)
    assert population.spend[29, population.column_index(plp68)[3]] == 12.5
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(cell):
        assert "other" in parsed and parsed[-1] == "loadtxt"
    if split:
        assert len(halves) == 2


def test_id_of_twenty_digits_is_not_plain(tmp_path, plp68, parsed):
    lines = csv_lines(tmp_path, plp68)
    lines[20] = _cell(lines[20], 0, "9" * 20)
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    assert _load_both(path, plp68) == (f"{path}: row 21: column 'id': outside the 64-bit "
                                       f"integer range: '{'9' * 20}'")
    assert parsed[0] == "plain" and parsed == fallback_log(path)


def test_households_file_path_holds_a_few_mb_beyond_the_columns(tmp_path, plp68, monkeypatch):
    """Traced peaks above the population's own arrays on a 20k households file.

    The bounds sit between two designs, measured with numpy 2.4 only (MiB): a
    load with 512 KB blocks, a bytearray carried between blocks and an n x k
    row-check mask peaks 6.6 above the columns, this one 2.8 (some 11
    ``_BLOCK_BYTES``, the same at 5k and 80k households); a solve with
    n-length products and 8192-row blocks 3.5, this one 1.0.  The bounds
    leave this design close to twice its measured scratch, as other numpy
    versions (1.23 was not measured) may allocate their temporaries
    differently.  The load is traced without ``_lift_heap``, whose untouched
    8 MB array would set its peak; the lift is traced on its own.
    """
    path = tmp_path / "households.csv"
    write_population(generate_synthetic(3, 20_000, plp68), path, plp68)
    load_population(path, plp68)  # caches filled on the first call are not scratch
    lift_heap = csvbody._lift_heap
    monkeypatch.setattr(csvbody, "_lift_heap", lambda: None)
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
    tracemalloc.start()
    try:
        lift_heap()
        held, lift_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lift_peak >= csvbody._SCRATCH_BYTES and held < 2**16  # the lift frees what it takes


def test_rejected_households_file_holds_no_more_than_an_accepted_read(tmp_path, plp68,
                                                                      monkeypatch):
    """The traced peak of a plain 20k households file rejected at its last row.

    The parsed columns (3.8 MiB) are freed before the row reader walks the
    file, which keeps no row, only the ids seen: measured 6.2 MiB with numpy
    2.4.  A rejection that built every row's ``Household`` and a
    ``Population`` while the columns were held peaked at 28.5 MiB.  Traced
    without ``_lift_heap``, as the accepted read is above.
    """
    path = tmp_path / "households.csv"
    write_population(generate_synthetic(3, 20_000, plp68), path, plp68)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = _cell(lines[-1], lines[0].split(",").index("reduzida_40"), "-1.5")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = (f"{path}: row 20001: household 20000: "
               "expenditure 'reduzida_40' must be >= 0, got -1.5")
    with pytest.raises(MicrodataError, match="row 20001"):  # caches filled on the first call
        load_population(path, plp68)
    monkeypatch.setattr(csvbody, "_lift_heap", lambda: None)
    tracemalloc.start()
    try:
        with pytest.raises(MicrodataError) as exc:
            load_population(path, plp68)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 12 * 2**20


# -- the body in two halves ----------------------------------------------------


BLOCKS = csvbody.blocks  # the reader's, whatever a test spies on
BLOCK_BYTES = csvbody._BLOCK_BYTES  # the reader's, whatever a test sets
PLAIN_COLUMNS = csvbody.plain_columns


@pytest.fixture
def halves(parsed, monkeypatch):
    """Two CPUs, and a log of the (start, end) each half's ``blocks`` got."""
    pin_cpus(monkeypatch, {0, 1})
    log = []
    blocks = csvbody.blocks

    def blocks_spy(fh, end=None):
        log.append((fh.tell(), end))
        return blocks(fh, end)

    monkeypatch.setattr(csvbody, "blocks", blocks_spy)
    return log


def split_at(path):
    """The body's start, and where it splits: the first line start at or after its middle."""
    data = path.read_bytes()
    body = data.index(b"\n") + 1
    return body, data.index(b"\n", (body + len(data)) // 2 - 1) + 1


def block_edges(path):
    """The offsets at which a one-thread read ends its blocks."""
    with path.open("rb") as fh:
        edge, edges = csvbody.body_start(fh), []
        for block in BLOCKS(fh):
            edge += len(block)
            edges.append(edge)
    return edges


@pytest.mark.parametrize("case", ["inside_a_block", "at_a_block_edge", "one_row_second_half",
                                  "unended_last_line", "under_two_blocks"])
def test_split_read_matches_the_one_thread_read(tmp_path, plp68, parsed, halves, monkeypatch,
                                                case):
    lines = csv_lines(tmp_path, plp68)
    if case == "one_row_second_half":  # the longer row first, so the middle falls in it
        lines = [lines[0], *sorted(lines[1:3], key=len, reverse=True)]
        monkeypatch.setattr(csvbody, "_BLOCK_BYTES", 300)  # about a row a block
    path = write_csv(tmp_path, "\n".join(lines) + ("" if case == "unended_last_line" else "\n"))
    body, split = split_at(path)
    if case == "at_a_block_edge":  # the largest blocks that split the body, one ending at the split
        for block_bytes in range((path.stat().st_size - body) // 2, 0, -1):
            monkeypatch.setattr(csvbody, "_BLOCK_BYTES", block_bytes)
            if split in block_edges(path):
                break
        assert block_bytes > 1000
    elif case == "inside_a_block":
        monkeypatch.setattr(csvbody, "_BLOCK_BYTES", 1500)
        assert split not in block_edges(path)
    elif case == "under_two_blocks":
        monkeypatch.setattr(csvbody, "_BLOCK_BYTES", BLOCK_BYTES)
        assert path.stat().st_size - body < 2 * BLOCK_BYTES
    population = reads_like_row_reader(path, plp68)
    assert set(halves) == {(body, split), (split, None)}
    assert set(parsed) == {"plain"}
    monkeypatch.setattr(csvbody, "_BLOCK_BYTES", 1 << 30)
    pin_cpus(monkeypatch, {0})
    reference = load_population(path, plp68)  # one block a half, both on the calling thread
    for name in COLUMNS:
        assert getattr(population, name).tobytes() == getattr(reference, name).tobytes(), name
    if case == "one_row_second_half":
        assert path.read_bytes()[split:].count(b"\n") == 1


def test_one_cpu_reads_the_halves_on_the_calling_thread(tmp_path, plp68, monkeypatch):
    path = tmp_path / "households.csv"
    write_population(generate_synthetic(3, 4000, plp68), path, plp68)
    assert path.stat().st_size > 4 * csvbody._BLOCK_BYTES
    pin_cpus(monkeypatch, {0})
    monkeypatch.setattr(csvbody, "threading", SimpleNamespace())  # no Thread, no Event
    starts = []

    def blocks_spy(fh, end=None):
        starts.append(fh.tell())
        return BLOCKS(fh, end)

    monkeypatch.setattr(csvbody, "blocks", blocks_spy)
    assert len(reads_like_row_reader(path, plp68)) == 4000
    assert starts == list(split_at(path))  # both halves, in turn


def test_split_read_under_frequent_thread_switches(tmp_path, plp68, parsed, halves, monkeypatch):
    # blocks of a row or two, and the interpreter switching threads as often as it can
    monkeypatch.setattr(csvbody, "_BLOCK_BYTES", 400)
    path = write_csv(tmp_path, "\n".join(csv_lines(tmp_path, plp68, n=200)) + "\n")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert len(reads_like_row_reader(path, plp68)) == 200
    finally:
        sys.setswitchinterval(interval)
    assert set(parsed) == {"plain"} and len(halves) == 10


@pytest.mark.parametrize("row", [3, 36])  # in the first half, in the second
@pytest.mark.parametrize("change", ["plus", "cr"])
def test_other_block_in_either_half_sends_the_file_to_loadtxt(tmp_path, plp68, parsed, halves,
                                                             change, row):
    lines = csv_lines(tmp_path, plp68)
    lines[row] = _cell(lines[row], 7, "+12.5") if change == "plus" else lines[row] + "\r"
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    assert len(reads_like_row_reader(path, plp68)) == 40
    assert len(halves) == 2
    assert "other" in parsed and parsed[-1] == "loadtxt"


@pytest.mark.parametrize("row", [3, 36])
def test_rejected_file_in_either_half_gives_the_row_reader_message(tmp_path, plp68, parsed,
                                                                   halves, row):
    lines = csv_lines(tmp_path, plp68)
    lines[row] = _cell(lines[row], 8, "1.2.3")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    column = lines[0].split(",")[8]
    assert _load_both(path, plp68) == (f"{path}: row {row + 1}: column {column!r}: "
                                       f"not a number: '1.2.3'")
    assert len(halves) == 2 and parsed[-1] == "loadtxt"


@pytest.mark.parametrize("change", [-1, 1])
def test_rows_other_than_counted_send_the_file_to_loadtxt(tmp_path, plp68, parsed, halves,
                                                         monkeypatch, change):
    # as if the file grew or shrank after the counting pass
    count_rows = csvbody.count_rows

    def miscounted(fh, middle):
        rows, split, first = count_rows(fh, middle)
        return rows + change, split, first

    monkeypatch.setattr(csvbody, "count_rows", miscounted)
    path = write_csv(tmp_path, "\n".join(csv_lines(tmp_path, plp68)) + "\n")
    assert len(reads_like_row_reader(path, plp68)) == 40
    assert "other" not in parsed and parsed[-1] == "loadtxt"


@pytest.mark.parametrize("row", [1, 21])  # the first block of the first half, of the second
def test_other_half_reads_to_its_end_after_a_block_that_is_not_plain(tmp_path, plp68, parsed,
                                                                    halves, row):
    # the halves share only their rows: the one that meets the block stops, the other
    # parses all its blocks, on its own thread, and then the file goes to np.loadtxt
    lines = csv_lines(tmp_path, plp68)
    lines[row] = _cell(lines[row], 7, "+12.5")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    assert len(reads_like_row_reader(path, plp68)) == 40
    assert len(halves) == 2 and parsed[-1] == "loadtxt"
    assert sorted(parsed) == sorted(fallback_log(path))
    assert parsed.count("plain") >= 8  # the other half's blocks of about two rows


@pytest.mark.parametrize("half", ["first", "second"])
def test_error_in_either_half_reaches_the_caller_and_ends_the_worker(tmp_path, plp68, parsed,
                                                                     halves, monkeypatch, half):
    plain_spy = csvbody.plain_columns

    def failing(block, k):
        if (threading.current_thread() is threading.main_thread()) == (half == "first"):
            raise RuntimeError(f"{half} half")
        return plain_spy(block, k)

    monkeypatch.setattr(csvbody, "plain_columns", failing)
    path = write_csv(tmp_path, "\n".join(csv_lines(tmp_path, plp68)) + "\n")
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^{half} half$"):
        load_population(path, plp68)
    assert threading.active_count() == threads
    assert "loadtxt" not in parsed  # the error, not the fallback, reaches the caller
    # the worker reads its half unless the first fails before it begins
    body, split = split_at(path)
    assert set(halves) == {(body, split), (split, None)} or (half == "first"
                                                             and halves == [(body, split)])


def test_error_in_the_worker_reaches_the_caller_whose_half_was_not_plain(tmp_path, plp68, parsed,
                                                                         halves, monkeypatch):
    # the calling thread's half is not plain, so the file would go to np.loadtxt;
    # the worker's error is collected all the same
    plain_spy = csvbody.plain_columns

    def failing(block, k):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("second half")
        return plain_spy(block, k)

    monkeypatch.setattr(csvbody, "plain_columns", failing)
    lines = csv_lines(tmp_path, plp68)
    lines[1] = _cell(lines[1], 7, "+12.5")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(RuntimeError, match="^second half$"):
        load_population(path, plp68)
    assert parsed == ["other"] and len(halves) == 2


@pytest.mark.parametrize("warns", [True, False])
def test_second_half_parse_that_stops_early_sends_the_file_to_loadtxt(tmp_path, plp68, parsed,
                                                                     halves, monkeypatch, warns):
    # numpy 1.x stops np.fromstring at unmatched text with a DeprecationWarning
    # and returns what it parsed; a worker that does not see the reader's
    # warnings-as-errors filter gets the short parse, and the size check refuses it
    fromstring = np.fromstring

    def short_parse(text, dtype, sep):
        values = fromstring(text, dtype, sep=sep)
        if threading.current_thread() is threading.main_thread():
            return values
        if warns:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return values[:-1]

    monkeypatch.setattr(np, "fromstring", short_parse)
    path = write_csv(tmp_path, "\n".join(csv_lines(tmp_path, plp68)) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        population = load_population(path, plp68)
    assert caught == []
    assert "other" in parsed and parsed[-1] == "loadtxt"
    monkeypatch.setattr(np, "fromstring", fromstring)
    reference = _read_rows(path, plp68)
    for name in COLUMNS:
        assert getattr(population, name).tobytes() == getattr(reference, name).tobytes(), name


def test_block_parse_holds_under_six_blocks_of_scratch(tmp_path, plp68):
    """Two blocks are parsed at once, so one may hold about half the scratch
    it held on one thread: 9.3 ``_BLOCK_BYTES`` then, 3.1 now (numpy 2.4)."""
    path = tmp_path / "households.csv"
    write_population(generate_synthetic(3, 20_000, plp68), path, plp68)
    with path.open("rb") as fh:
        csvbody.body_start(fh)
        block = next(csvbody.blocks(fh))
    assert len(block) > csvbody._BLOCK_BYTES - 1000
    k = len(FIXED_COLUMNS) + len(plp68.categories)
    csvbody.plain_columns(block, k)  # caches filled on the first call are not scratch
    tracemalloc.start()
    try:
        columns = csvbody.plain_columns(block, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns is not None
    assert peak < 6 * csvbody._BLOCK_BYTES
