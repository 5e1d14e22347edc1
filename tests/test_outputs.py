"""Byte-level checks of the written tables: golden files, CSV quoting, locale."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import ivasim
from ivasim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_42_2000"
TABLE_FILES = (
    "table1_budget_shares.csv",
    "table1_budget_shares.txt",
    "table2_rate_impacts.csv",
    "table2_rate_impacts.txt",
    "table3_scenarios.csv",
    "table3_scenarios.txt",
)


def test_tables_match_golden_files(tmp_path):
    # golden files written by `ivasim tables --schedule plp68 --synthetic 42:2000`
    assert main(["tables", "--schedule", "plp68", "--synthetic", "42:2000",
                 "--out", str(tmp_path)]) == 0
    for name in TABLE_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_comma_selector_round_trips_through_csv_reader(tmp_path):
    assert main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
                 "--out", str(tmp_path), "--remove", "cesta_basica,gasolina"]) == 0
    with open(tmp_path / "table2_rate_impacts.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "selector", "rate_outside_pct", "delta_pp"]
    assert [len(r) for r in rows] == [4, 4, 4, 4]
    assert rows[2][:2] == ["Sem cesta_basica,gasolina", "cesta_basica,gasolina"]
    for name in ("table1_budget_shares.csv", "table3_scenarios.csv"):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len({len(r) for r in rows}) == 1, name


def test_outputs_do_not_depend_on_locale(tmp_path):
    args = ["-m", "ivasim.cli", "tables", "--schedule", "plp68", "--synthetic", "11:300"]
    src = str(Path(ivasim.__file__).resolve().parents[1])
    plain = dict(os.environ, PYTHONPATH=src)
    ascii_locale = dict(plain, LC_ALL="C", PYTHONCOERCECLOCALE="0")
    ascii_locale.pop("PYTHONUTF8", None)
    runs = {
        "utf8": ([sys.executable, *args], plain),
        "ascii": ([sys.executable, "-X", "utf8=0", *args], ascii_locale),
    }
    for name, (argv, env) in runs.items():
        done = subprocess.run(argv + ["--out", str(tmp_path / name)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (name, done.stderr)
    for name in TABLE_FILES + ("manifest.json",):
        assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes(), name
