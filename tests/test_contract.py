"""The command line's contract on drawn inputs, through ``ivasim.cli.main``.

Each case is a schedule (plp68, or a drawn one of one to three categories)
and a small households file, valid or mutated: cells at either end of the
doubles (subnormal to the largest), subnormal weights, cells that are not
valid numbers, and removal selectors that list several tokens.  Whatever the
input:

* ``main`` returns 0, 1 or 2 and raises nothing; the suite makes every
  warning an error, so an overflow warning fails too;
* a ``tables`` run that returns 0 writes a table 1 whose total row reads
  100.0 (0.0 in a quintile where no household spends) and a table 3 whose
  reform totals are revenue neutral;
* a run that returns 1 or 2 prints one ``error:`` line and writes no table;
* on plp68, ``validate`` returns 1 exactly when ``solve`` returns 1, and
  for a drawn ``--target-burden`` it returns 1 whenever ``solve`` does.

The two files of the overflow report, from ``generate --synthetic 1:50``
with two weights or two ``cesta_basica`` cells set to 1e308, are fixed cases
for ``solve``, ``tables`` and ``validate``.
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivasim.cli import main
from ivasim.microdata import FIXED_COLUMNS
from ivasim.schedule import bundled_schedule_path, load_schedule

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
PLP68 = load_schedule(bundled_schedule_path("plp68"))
PLP68_IDS, PLP68_GROUPS = PLP68.category_ids(), PLP68.groups()
EXTREMES = (0.0, 5e-324, 1e-310, 1e-300, 1e300, 1e307, 1e308, sys.float_info.max)
NOT_VALID = ("nan", "inf", "-1.0", "", "x")


def run(*argv):
    """``main(argv)``'s return code, stdout and stderr; a failed command other
    than ``validate``, which reports on stdout, prints one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc in (0, 1, 2)
    if rc and argv[0] != "validate":
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return rc, out.getvalue(), err.getvalue()


@st.composite
def schedules(draw):
    """The name plp68 and its category ids, or a drawn schedule's JSON text and ids."""
    if draw(st.booleans()):
        return "plp68", PLP68_IDS
    categories = []
    for j in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["reference_rate", "zero_rate", "reduced_fraction",
                                     "rent_regime", "untaxed"]) if j else st.just("reference_rate"))
        treatment = {"kind": kind}
        if kind == "reduced_fraction":
            treatment["fraction"] = draw(st.floats(0.1, 0.9))
        elif kind == "rent_regime":
            treatment.update(fraction=draw(st.floats(0.1, 1.0)),
                             reducer=draw(st.sampled_from([0.0, 50.0, 400.0])))
        categories.append({
            "id": f"c{j}", "label": f"c{j}", "group": draw(st.sampled_from(["g0", "g1"])),
            "treatment": treatment,
            "cashback_class": draw(st.sampled_from(["standard", "utility_enhanced"])),
            "in_denominator": draw(st.booleans()),
            "baseline_effective": draw(st.floats(0.05, 0.3)),
        })
    raw = {
        "name": "drawn",
        "categories": categories,
        "cashback": {"utility_refund_share": draw(st.floats(0.0, 0.5)),
                     "standard_refund_share": draw(st.floats(0.0, 0.3))},
        "eligibility_threshold": draw(st.sampled_from([0.0, 300.0, 1e308])),
        "target_net_burden": draw(st.floats(0.05, 0.3)),
    }
    return json.dumps(raw), tuple(c["id"] for c in categories)


@st.composite
def households(draw, category_ids):
    """The text of a households file: ordinary rows, then some cells replaced by
    extreme values, and now and then one by a cell that is not valid."""
    n = draw(st.integers(1, 20))
    rows = [[str(i), repr(draw(st.floats(50.0, 150.0))), str(draw(st.integers(1, 6))),
             repr(draw(st.floats(0.0, 2000.0))), repr(draw(st.floats(0.0, 500.0))),
             *(repr(draw(st.floats(0.0, 500.0))) for _ in category_ids)]
            for i in draw(st.permutations(range(1, n + 1)))]
    if draw(st.integers(0, 3)) == 0:  # every weight tiny: subnormal, or just above
        for row in rows:
            row[1] = repr(draw(st.sampled_from([5e-324, 1e-310, sys.float_info.min, 1e-300])))
    floats = [1, 3, 4, *range(len(FIXED_COLUMNS), len(rows[0]))]  # all but id and residents
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(floats))] = repr(draw(st.sampled_from(EXTREMES)))
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[2] = str(10**18)  # residents
    if draw(st.integers(0, 4)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(NOT_VALID))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([[*FIXED_COLUMNS, *category_ids], *rows])
    return text.getvalue()


@st.composite
def selectors(draw, category_ids, groups):
    """Removal selectors of one to three tokens, joined by commas."""
    tokens = st.sampled_from([*category_ids, *groups, "zero_rate", "reference_rate", "zz"])
    return draw(st.lists(st.lists(tokens, min_size=1, max_size=3).map(",".join),
                         max_size=2, unique=True))


@st.composite
def cases(draw):
    schedule, category_ids = draw(schedules())
    groups = (PLP68_GROUPS if schedule == "plp68"
              else sorted({c["group"] for c in json.loads(schedule)["categories"]}))
    return schedule, draw(households(category_ids)), draw(selectors(category_ids, groups))


def inputs(directory, schedule, text):
    """The --schedule and --households arguments for a schedule and a households file."""
    if schedule != "plp68":
        path = directory / "schedule.json"
        path.write_text(schedule, encoding="utf-8")
        schedule = str(path)
    (directory / "households.csv").write_text(text, encoding="utf-8")
    return ["--schedule", schedule, "--households", str(directory / "households.csv")]


def table(path):
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_tables(out):
    """Table 1's total row sums to 100 where households spend; table 3's reforms are neutral."""
    total = table(out / "table1_budget_shares.csv")[-1]
    assert total["group"] == "total"
    assert total["total"] == "100.0", total
    assert {total[f"q{q}"] for q in range(1, 6)} <= {"100.0", "0.0"}, total
    totals = [r for r in table(out / "table3_scenarios.csv") if r["quintile"] == "total"]
    assert totals[0]["scenario"] == "baseline"
    baseline = float(totals[0]["mean_net_tax"])
    for row in totals[1:]:
        assert abs(float(row["mean_net_tax"]) - baseline) <= 1.0 + 1e-6 * abs(baseline), row
        assert abs(float(row["delta_vs_baseline"])) <= 1.0 + 1e-6 * abs(baseline), row


@SETTINGS
@given(cases())
def test_tables_exits_0_1_or_2_and_writes_tables_only_on_success(case):
    schedule, text, removals = case
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        out = directory / "out"
        remove = [arg for selector in removals for arg in ("--remove", selector)]
        rc, _, _ = run("tables", *inputs(directory, schedule, text), "--out", str(out), *remove)
        if rc == 0:
            check_tables(out)
        else:
            assert not out.exists()


@SETTINGS
@given(households(PLP68_IDS))
def test_validate_fails_exactly_when_solve_exits_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        args = inputs(Path(tmp), "plp68", text)
        solved, _, _ = run("solve", *args)
        validated, report, _ = run("validate", *args)
    assert (validated == 1) == (solved == 1), report
    assert validated in (0, 1)


@SETTINGS
@given(st.one_of(st.floats(), st.sampled_from([0.0, 0.201, 0.999, 1.0, 5.0])))
@example(5.0)
def test_validate_fails_when_solve_exits_1_on_the_target(target):
    args = ("--synthetic", "1:50", f"--target-burden={target!r}")
    solved, _, _ = run("solve", *args)
    validated, report, _ = run("validate", *args)
    if solved == 1:
        assert validated == 1, report
        assert "FAIL effective rates well-formed: --target-burden: " in report
    if target == 5.0:
        assert ("\nFAIL effective rates well-formed: --target-burden: "
                "target net burden must be in [0, 1), got 5.0\n") in report
    assert validated in (0, 1)


def overflow_file(directory, column):
    """``generate --synthetic 1:50`` with two cells of ``column`` set to 1e308."""
    path = directory / f"{column}_1e308.csv"
    assert run("generate", "--synthetic", "1:50", "--out", str(path))[0] == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    j = lines[0].split(",").index(column)
    for i in (1, 2):
        cells = lines[i].split(",")
        cells[j] = "1e308"
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("column, solve_error, tables_error", [
    ("weight", "the weighted in-denominator expenditure overflows a double",
     "the total weight overflows a double"),
    ("cesta_basica", "the weighted in-denominator expenditure overflows a double",
     "the weighted total expenditure overflows a double"),
])
def test_overflowing_totals_exit_1_naming_the_total(tmp_path, column, solve_error, tables_error):
    path = overflow_file(tmp_path, column)
    assert run("solve", "--households", str(path))[1:] == ("", f"error: {solve_error}\n")
    out = tmp_path / "out"
    assert run("tables", "--households", str(path), "--out", str(out))[1:] == (
        "", f"error: {tables_error}\n")
    assert not out.exists()
    rc, report, err = run("validate", "--households", str(path))
    assert rc == 1
    assert err == ""  # no numpy warning either
    assert f"FAIL totals well-formed: {solve_error}\n" in report
    assert report.endswith("1 check(s) failed\n")
