"""Tests of the benchmark's own checker and coverage guard.

Run from the repository root with ``python -m pytest perfbench/tests``; the
repository's test suite does not collect them.  Each test drives the real
command line on a few hundred households and then damages its output the way
a broken program could; the damage must show in ``failed_frac``.
"""

import csv
import time

import pytest

import run
from tracing import TABLES_CALLS, missing_calls, raw_sums

N = 300
SEED = 3


@pytest.fixture(scope="module")
def info():
    return run.probe(["info"], time.monotonic() + 60)


def make_bench(tmp_path, info, command):
    w = run.Workload(f"{command}_test", command, N, from_csv=False)
    return run.Bench(w, SEED, 1, tmp_path, info, time.monotonic() + 120)


def invoke(bench):
    """One real invocation, checked and tallied like a timed one; its output path."""
    out = bench.out_path("timed")
    code = bench.cli(run.cli_args(bench.w, bench.population(N), out)).code
    bench.check("timed", "timed", code, out, N)
    return out


def rewrite_csv(path, edit):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_clean_outputs_pass(tmp_path, info):
    bench = make_bench(tmp_path, info, "tables")
    invoke(bench)
    invoke(bench)
    assert bench.tally.attempted == 2
    assert bench.tally.failed_frac == 0.0, bench.tally.problems


def test_tampered_table_file_fails(tmp_path, info):
    bench = make_bench(tmp_path, info, "tables")
    invoke(bench)
    out = invoke(bench)
    table3 = out / "table3_scenarios.csv"
    table3.write_text(table3.read_text(encoding="utf-8").replace("baseline,1,", "baseline,1,1"),
                      encoding="utf-8")
    bench.check("tampered", "timed", 0, out, N)
    assert bench.tally.failed == 1
    assert "differs from the first timed invocation" in bench.tally.problems[0]
    assert bench.tally.failed_frac > 0


def test_table1_total_not_100_fails(tmp_path, info):
    bench = make_bench(tmp_path, info, "tables")
    out = invoke(bench)
    rewrite_csv(out / "table1_budget_shares.csv",
                lambda rows: rows[-1].__setitem__(1, "99.9"))
    bench.check("tampered", "timed", 0, out, N)
    assert bench.tally.failed_frac > 0
    assert "table 1" in bench.tally.problems[0]


def test_table2_row_with_extra_field_fails(tmp_path, info):
    bench = make_bench(tmp_path, info, "tables")
    out = invoke(bench)
    rewrite_csv(out / "table2_rate_impacts.csv", lambda rows: rows[2].append("extra"))
    bench.check("tampered", "timed", 0, out, N)
    assert bench.tally.failed_frac > 0
    assert "do not have 4 fields" in bench.tally.problems[0]


def test_perturbed_rate_fails(tmp_path, info):
    bench = make_bench(tmp_path, info, "solve")
    out = invoke(bench)
    assert bench.tally.failed_frac == 0.0, bench.tally.problems

    def perturb(rows):
        rows[-1][1] = repr(float(rows[-1][1]) + 1e-6)

    rewrite_csv(out, perturb)
    bench.check("perturbed", "perturbed", 0, out, N)
    assert bench.tally.failed == 1
    assert "misses target" in bench.tally.problems[0]
    assert bench.tally.failed_frac > 0


def test_non_zero_exit_fails(tmp_path, info):
    bench = make_bench(tmp_path, info, "tables")
    out = bench.out_path("timed")
    code = bench.cli(["tables", "--schedule", "no_such_schedule", "--synthetic", "1:10",
                      "--out", str(out)]).code
    bench.check("bad schedule", "timed", code, out, N)
    assert code == 1
    assert bench.tally.failed_frac == 1.0


def test_coverage_guard(tmp_path, info):
    bench = make_bench(tmp_path, info, "tables")
    out = bench.out_path("timed")
    result = bench.inproc(True, run.cli_args(bench.w, bench.population(N), out))
    assert result["returncode"] == 0
    sums = raw_sums(result)
    assert missing_calls(sums, TABLES_CALLS) == []
    # a wrapper installed on the defining module alone would count nothing
    del sums["engine.household"]
    assert missing_calls(sums, TABLES_CALLS) == ["engine.household"]
