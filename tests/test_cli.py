"""End-to-end checks of the command-line interface and its exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ivasim
from ivasim import solver
from ivasim.cli import main, parse_seed_size, resolve_schedule
from ivasim.microdata import (
    Household,
    MicrodataError,
    Population,
    Provenance,
    generate_synthetic,
    write_population,
)
from ivasim.schedule import bundled_schedule_path, load_schedule

TABLE_FILES = (
    "table1_budget_shares.csv",
    "table1_budget_shares.txt",
    "table2_rate_impacts.csv",
    "table2_rate_impacts.txt",
    "table3_scenarios.csv",
    "table3_scenarios.txt",
)


# -- solve -------------------------------------------------------------------


def test_solve_plp68_synthetic_converges(capsys):
    assert main(["solve", "--schedule", "plp68.json", "--synthetic", "42:10000"]) == 0
    out = capsys.readouterr().out
    assert "reference rate (inside):  0.2636" in out
    assert "reference rate (outside): 0.3580" in out
    assert "iterations: 5" in out


def test_solve_uniform_hits_identity_rate(capsys):
    rc = main(
        ["solve", "--schedule", "uniform", "--target-burden", "0.201",
         "--synthetic", "42:10000"]
    )
    assert rc == 0
    assert "reference rate (outside): 0.2516" in capsys.readouterr().out


def test_solve_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(
        ["solve", "--schedule", "plp68", "--synthetic", "7:400",
         "--trace", str(trace)]
    )
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,t_ref_outside,cashback_total,net_burden"
    indices = [int(line.split(",")[0]) for line in lines[1:]]
    assert indices == list(range(len(indices)))
    last = lines[-1].split(",")
    assert abs(float(last[3]) - 0.201) < 1e-7


def test_solve_whose_trace_cannot_be_written_prints_no_result(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.csv"
    rc = main(["solve", "--schedule", "plp68", "--synthetic", "7:400", "--trace", str(trace)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_solve_from_a_households_file_loads_no_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto, megabytes of RSS; a solve makes no digest
    csv_path = tmp_path / "hh.csv"
    assert main(["generate", "--schedule", "plp68", "--synthetic", "7:300",
                 "--out", str(csv_path)]) == 0
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from ivasim.cli import main\n"
        f"assert main(['solve', '--households', {str(csv_path)!r}, '--trace', "
        f"{str(tmp_path / 'trace.csv')!r}]) == 0\n"
        "print(sorted(m for m in set(sys.modules) - before if 'hashlib' in m))\n"
    )
    src = str(Path(ivasim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"



@pytest.mark.parametrize("command, loads_csvbody", [
    (["tables", "--synthetic", "42:300", "--out", "{tmp}/tables"], False),
    (["solve", "--synthetic", "42:300"], False),
    (["solve", "--households", "{tmp}/hh.csv"], True),
    (["generate", "--synthetic", "7:300", "--out", "{tmp}/written.csv"], True),
], ids=["tables-synthetic", "solve-synthetic", "solve-households", "generate"])
def test_households_file_module_loads_only_when_a_file_is_read_or_written(
    tmp_path, command, loads_csvbody
):
    assert main(["generate", "--schedule", "plp68", "--synthetic", "7:300",
                 "--out", str(tmp_path / "hh.csv")]) == 0
    argv = [arg.format(tmp=tmp_path) for arg in command]
    code = (
        "import sys\n"
        "from ivasim.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('ivasim.csvbody' in sys.modules)\n"
    )
    src = str(Path(ivasim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads_csvbody)

def test_ids_need_only_be_unique_64_bit_integers(tmp_path, capsys):
    csv_path = tmp_path / "hh.csv"
    csv_path.write_text("id,weight,residents,income_pc,nonmonetary_total,consumo\n"
                        "-5,1.0,2,500.0,0.0,100.0\n0,2.0,1,900.0,10.0,250.0\n")
    assert main(["solve", "--schedule", "uniform", "--households", str(csv_path)]) == 0
    assert main(["validate", "--schedule", "uniform", "--households", str(csv_path)]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_missing_schedule_file_names_path(capsys):
    rc = main(["solve", "--schedule", "/nowhere/plan.json", "--synthetic", "1:10"])
    assert rc == 1
    assert "/nowhere/plan.json" in capsys.readouterr().err


def test_missing_households_file_exits_1(capsys):
    rc = main(["solve", "--schedule", "plp68", "--households", "/nowhere/hh.csv"])
    assert rc == 1
    assert "hh.csv" in capsys.readouterr().err


def test_population_source_is_mutually_exclusive():
    with pytest.raises(SystemExit):
        main(["solve", "--schedule", "plp68", "--synthetic", "1:10",
              "--households", "x.csv"])
    with pytest.raises(SystemExit):
        main(["solve", "--schedule", "plp68"])


def test_bad_synthetic_spec_exits_1(capsys):
    assert main(["solve", "--schedule", "plp68", "--synthetic", "fifty"]) == 1
    assert "SEED:N" in capsys.readouterr().err


def test_unreachable_target_exits_2(capsys):
    rc = main(
        ["solve", "--schedule", "uniform", "--synthetic", "3:50",
         "--target-burden", "0.99999"]
    )
    assert rc == 2
    assert "unreachable" in capsys.readouterr().err


def test_solve_that_does_not_converge_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(solver, "MAX_OUTER_ITERATIONS", 0)
    assert main(["solve", "--synthetic", "1:300"]) == 2
    assert capsys.readouterr() == (
        "", "error: reference rate did not converge after 0 iterations\n")


def test_out_of_range_target_exits_1(capsys):
    rc = main(
        ["solve", "--schedule", "uniform", "--synthetic", "3:50",
         "--target-burden", "1.5"]
    )
    assert rc == 1
    assert "--target-burden" in capsys.readouterr().err


def test_out_of_range_target_gives_the_solver_rule(capsys):
    # the CLI reports the solver's own check, as an input error
    for target in ("1.0", "-0.1", "nan"):
        rc = main(["solve", "--schedule", "uniform", "--synthetic", "3:50",
                   "--target-burden", target])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: --target-burden: target net burden must be in [0, 1), "
                       f"got {float(target)}\n")


def test_parse_seed_size():
    assert parse_seed_size("42:10000") == (42, 10000)
    with pytest.raises(MicrodataError):
        parse_seed_size("42")
    with pytest.raises(MicrodataError):
        parse_seed_size("-1:10")
    with pytest.raises(MicrodataError):
        parse_seed_size("1:0")


def test_resolve_schedule_prefers_local_file(tmp_path):
    local = tmp_path / "plp68.json"
    local.write_text(bundled_schedule_path("uniform").read_text())
    sched = resolve_schedule(str(local))
    assert len(sched.categories) == 1  # the local file, not the bundled one


def test_directory_does_not_shadow_a_bundled_schedule(tmp_path, monkeypatch, capsys):
    # an earlier ``tables --out plp68`` leaves such a directory behind
    (tmp_path / "plp68").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--synthetic", "1:100"]) == 0
    assert "reference rate (inside)" in capsys.readouterr().out
    assert main(["validate", "--synthetic", "1:100"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # a directory with no bundled schedule of its name is named in the error
    (tmp_path / "mine").mkdir()
    assert main(["solve", "--schedule", "mine", "--synthetic", "1:100"]) == 1
    assert capsys.readouterr().err == "error: schedule file not found: mine\n"


# -- tables ------------------------------------------------------------------


def test_tables_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
               "--out", str(out)])
    assert rc == 0
    for name in TABLE_FILES:
        assert (out / name).exists(), name
    assert (out / "manifest.json").exists()
    stdout = capsys.readouterr().out
    assert stdout.count("table") >= 3


def test_tables_rerun_is_byte_identical(tmp_path):
    args = ["tables", "--schedule", "plp68", "--synthetic", "11:300"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in TABLE_FILES + ("manifest.json",):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_tables_single_removal(tmp_path):
    out = tmp_path / "run"
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
               "--out", str(out), "--remove", "cesta_basica"])
    assert rc == 0
    lines = (out / "table2_rate_impacts.csv").read_text().splitlines()
    # header + cashback-free anchor + one removal + cashback row
    assert len(lines) == 4
    assert "cesta_basica" in lines[2]


def test_tables_scenario_selection(tmp_path):
    out = tmp_path / "run"
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
               "--out", str(out), "--scenario", "plp68"])
    assert rc == 0
    lines = (out / "table3_scenarios.csv").read_text().splitlines()
    # header + 6 quintile rows for each of baseline and plp68
    assert len(lines) == 1 + 6 * 2


def test_tables_unknown_removal_selector_exits_1(tmp_path, capsys):
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
               "--out", str(tmp_path / "run"), "--remove", "navios"])
    assert rc == 1
    assert "navios" in capsys.readouterr().err
    assert not list((tmp_path / "run").glob("table*"))


def test_tables_transfer_swap_needs_the_swapped_group(tmp_path, capsys, monkeypatch):
    # the transfer swap retaxes cesta_basica, which the uniform schedule lacks:
    # the run is refused before any solve
    solves = []

    def counted(solve):
        return lambda *args, **kwargs: solves.append(solve.__name__) or solve(*args, **kwargs)

    for module, name in ((ivasim.cli, "marginal_rate_impact"),
                         (ivasim.analysis, "solve_given_cashback"),
                         (ivasim.analysis, "solve_with_cashback")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    rc = main(["tables", "--schedule", "uniform", "--synthetic", "11:300",
               "--out", str(tmp_path / "run"), "--scenario", "plp68_transfer_swap"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "plp68_transfer_swap" in err and "cesta_basica" in err
    assert solves == []
    assert not list((tmp_path / "run").glob("table*"))


def test_tables_default_scenarios_leave_out_a_swap_without_its_group(tmp_path):
    out = tmp_path / "run"
    rc = main(["tables", "--schedule", "uniform", "--synthetic", "11:300",
               "--out", str(out)])
    assert rc == 0
    expected = ["baseline", "uniform_vat", "plp68"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scenarios"] == expected
    rows = (out / "table3_scenarios.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows[5::6]] == expected


@pytest.mark.parametrize("flag,value", [("--scenario", "plp68"),
                                        ("--remove", "cesta_basica")])
def test_tables_repeated_flag_value_exits_1(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
               "--out", str(out), flag, value, flag, value])
    assert rc == 1
    assert f"{flag} {value!r} is given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_tables_with_an_empty_quintile_exits_1(tmp_path, capsys):
    # three households fill quintiles 1 and 3 only
    out = tmp_path / "run"
    rc = main(["tables", "--schedule", "plp68", "--synthetic", "3:3", "--out", str(out)])
    assert rc == 1
    assert "quintile(s) 2, 4, 5 hold no household" in capsys.readouterr().err
    assert not out.exists()


def _no_spending_csv(path):
    """Ten households whose category cells are all zero."""
    ids = load_schedule(bundled_schedule_path("plp68")).category_ids()
    rows = [f"{i},100.0,2,500.0,{100.0 * i!r}," + ",".join(["0"] * len(ids)) for i in range(1, 11)]
    header = "id,weight,residents,income_pc,nonmonetary_total," + ",".join(ids)
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


@pytest.mark.parametrize("command", ["solve", "tables"])
def test_no_in_denominator_spending_exits_1(tmp_path, capsys, command):
    csv_path = _no_spending_csv(tmp_path / "hh.csv")
    out = tmp_path / "run"
    extra = ["--out", str(out)] if command == "tables" else []
    rc = main([command, "--schedule", "plp68", "--households", str(csv_path), *extra])
    assert rc == 1
    assert "no in-denominator expenditure" in capsys.readouterr().err
    assert not out.exists()


def test_an_overflow_no_check_names_exits_1_with_one_error_line(monkeypatch, capsys):
    def overflowing(*args):
        raise OverflowError("intermediate overflow in fsum")

    monkeypatch.setattr(ivasim.cli, "solve_with_cashback", overflowing)
    assert main(["solve", "--synthetic", "1:50"]) == 1
    assert capsys.readouterr().err == "error: intermediate overflow in fsum\n"


def test_an_allocation_numpy_refuses_exits_1_with_one_error_line(capsys):
    # 728 TiB of residents: past any host's memory and the 47-bit user address
    # space, so refused at allocation whatever the kernel's overcommit policy
    assert main(["solve", "--synthetic", "1:100000000000000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Unable to allocate ") and err.count("\n") == 1


def test_tables_whose_weighted_persons_overflow_exits_1(tmp_path, capsys):
    # 300 households of weight 5e305 and two residents are 3e308 persons; the
    # spending, divided by 5000, keeps every weighted expenditure total finite
    plp68 = load_schedule(bundled_schedule_path("plp68"))
    drawn = generate_synthetic(1, 300, plp68)
    csv_path = tmp_path / "hh.csv"
    population = Population(Provenance("file", str(csv_path)), drawn.category_ids, drawn.ids,
                            np.full(300, 5e305), np.full(300, 2), drawn.income_per_capita,
                            drawn.nonmonetary_total / 5000, drawn.spend / 5000)
    write_population(population, csv_path, plp68)
    out = tmp_path / "out"
    assert main(["tables", "--households", str(csv_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: the weighted number of persons overflows a double\n"
    assert not out.exists()


def test_manifest_is_deterministic_metadata(tmp_path):
    out = tmp_path / "run"
    main(["tables", "--schedule", "plp68", "--synthetic", "11:300",
          "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "config", "config_sha256", "schedule_fingerprint", "versions"
    }
    sched = load_schedule(bundled_schedule_path("plp68"))
    assert manifest["schedule_fingerprint"] == sched.fingerprint()
    assert manifest["config"]["population"] == {
        "kind": "synthetic", "source": "11:300"
    }
    assert "time" not in json.dumps(manifest).lower()


# -- validate and generate ----------------------------------------------------


def test_generate_then_validate_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "hh.csv"
    assert main(["generate", "--schedule", "plp68", "--synthetic", "7:50",
                 "--out", str(csv_path)]) == 0
    assert main(["validate", "--schedule", "plp68",
                 "--households", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("ok   ") == 4


def test_validate_rejects_selective_with_standard_cashback(tmp_path, capsys):
    raw = json.loads(bundled_schedule_path("plp68").read_text())
    for cat in raw["categories"]:
        if cat["id"] == "bebidas_alcoolicas":
            cat["cashback_class"] = "standard"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    rc = main(["validate", "--schedule", str(bad), "--synthetic", "1:10"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL schedule loads" in out
    assert "selective-tax categories must have cashback_class 'excluded'" in out


def test_validate_rejects_unknown_category_column(tmp_path, capsys):
    csv_path = tmp_path / "hh.csv"
    main(["generate", "--schedule", "plp68", "--synthetic", "7:20",
          "--out", str(csv_path)])
    text = csv_path.read_text()
    csv_path.write_text(text.replace("cesta_basica", "mystery_goods", 1))
    rc = main(["validate", "--schedule", "plp68", "--households", str(csv_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL population loads" in out
    assert "mystery_goods" in out


def test_households_header_naming_a_category_twice_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "hh.csv"
    main(["generate", "--schedule", "plp68", "--synthetic", "7:20", "--out", str(csv_path)])
    text = csv_path.read_text()
    csv_path.write_text(text.replace("outros_aliquota_zero", "cesta_basica", 1))
    capsys.readouterr()
    assert main(["solve", "--schedule", "plp68", "--households", str(csv_path)]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}: duplicate column(s): ['cesta_basica']\n"


NOT_UTF8_CSV = (b"id,weight,residents,income_pc,nonmonetary_total,consumo\n"
                b"1,1.0,2,500.0,0.0,100.0\n2,1.0,2,500.\xff0,0.0,100.0\n")


def test_solve_names_file_and_row_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    csv_path = tmp_path / "hh.csv"
    csv_path.write_bytes(NOT_UTF8_CSV)
    rc = main(["solve", "--schedule", "uniform", "--households", str(csv_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {csv_path}: row 3: byte 0xff is not UTF-8 text\n"


def test_validate_reports_a_byte_that_is_not_utf8(tmp_path, capsys):
    csv_path = tmp_path / "hh.csv"
    csv_path.write_bytes(NOT_UTF8_CSV)
    rc = main(["validate", "--schedule", "uniform", "--households", str(csv_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert f"FAIL population loads: {csv_path}: row 3: byte 0xff is not UTF-8 text" in out
    assert "1 check(s) failed" in out


def test_validate_skips_dependent_checks_on_schedule_failure(capsys):
    rc = main(["validate", "--schedule", "/nowhere/x.json", "--synthetic", "1:10"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "skip population loads" in out
    assert "skip totals well-formed" in out


def _plp68_variant(tmp_path, edit):
    """plp68 written to a file after ``edit(raw)``; json writes NaN as ``NaN``."""
    raw = json.loads(bundled_schedule_path("plp68").read_text())
    edit(raw)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    return path


def _category(raw, cid):
    return next(c for c in raw["categories"] if c["id"] == cid)


def _overflowing_is(raw):
    # an IS rate this large composes to an inside rate of 1.0, which Rate refuses
    _category(raw, "bebidas_alcoolicas")["treatment"]["is_rate"] = {
        "value": 1e300, "basis": "outside"
    }


def test_validate_reports_invalid_effective_rate_and_runs_population_checks(
    tmp_path, capsys
):
    rc = main(["validate", "--schedule", str(_plp68_variant(tmp_path, _overflowing_is)),
               "--synthetic", "1:50"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ok   schedule loads" in out
    assert "FAIL effective rates well-formed: category 'bebidas_alcoolicas': inside rate" in out
    assert "'bebidas_alcoolicas': category" not in out
    assert "ok   population loads" in out
    assert "ok   totals well-formed" in out
    assert "1 check(s) failed" in out


@pytest.mark.parametrize("command", ["solve", "tables"])
def test_inside_rate_out_of_range_names_the_category(tmp_path, capsys, command):
    schedule = _plp68_variant(tmp_path, _overflowing_is)
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "tables" else []
    rc = main([command, "--schedule", str(schedule), "--synthetic", "1:50", *extra])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: category 'bebidas_alcoolicas': inside rate must be < 1 "
        "(the tax cannot consume the whole price), got 1.0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.update(eligibility_threshold=float("nan")),
         "eligibility_threshold must be >= 0, got nan"),
        (lambda raw: _category(raw, "aluguel_imovel")["treatment"].update(reducer=float("nan")),
         "category 'aluguel_imovel'.reducer: rent_regime reducer must be >= 0, got nan"),
        (lambda raw: _category(raw, "gasolina").update(
            treatment={"kind": "selective", "is_rate": 0.19, "vat_fraction": float("nan")},
            cashback_class="excluded"),
         "category 'gasolina'.vat_fraction: selective vat_fraction must be >= 0, got nan"),
    ],
    ids=["eligibility_threshold", "reducer", "vat_fraction"],
)
def test_solve_rejects_nan_schedule_parameter(tmp_path, capsys, edit, message):
    path = _plp68_variant(tmp_path, edit)
    assert "NaN" in path.read_text()
    rc = main(["solve", "--schedule", str(path), "--synthetic", "42:2000"])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw.update(eligibility_threshold=float("inf")),
         "eligibility_threshold must be finite, got inf"),
        (lambda raw: _category(raw, "aluguel_imovel")["treatment"].update(reducer=float("inf")),
         "category 'aluguel_imovel'.reducer: rent_regime reducer must be finite, got inf"),
        (lambda raw: _category(raw, "gasolina").update(
            treatment={"kind": "selective", "is_rate": 0.19, "vat_fraction": float("inf")},
            cashback_class="excluded"),
         "category 'gasolina'.vat_fraction: selective vat_fraction must be finite, got inf"),
        (lambda raw: _category(raw, "gasolina").update(
            treatment={"kind": "selective", "is_rate": float("inf")},
            cashback_class="excluded"),
         "category 'gasolina'.is_rate: rate value must be finite, got inf"),
        (lambda raw: _category(raw, "gasolina").update(
            baseline_effective={"value": float("inf"), "basis": "outside"}),
         "category 'gasolina'.baseline_effective: rate value must be finite, got inf"),
    ],
    ids=["eligibility_threshold", "reducer", "vat_fraction", "is_rate", "baseline_effective"],
)
def test_solve_and_validate_reject_infinite_schedule_parameter(tmp_path, capsys, edit, message):
    path = _plp68_variant(tmp_path, edit)
    assert "Infinity" in path.read_text()
    rc = main(["solve", "--schedule", str(path), "--synthetic", "42:2000"])
    assert rc == 1
    assert message in capsys.readouterr().err
    rc = main(["validate", "--schedule", str(path), "--synthetic", "1:50"])
    assert rc == 1
    assert f"FAIL schedule loads: {path}: {message}" in capsys.readouterr().out


def test_solve_names_the_field_of_an_out_of_range_treatment_parameter(tmp_path, capsys):
    path = _plp68_variant(
        tmp_path, lambda raw: _category(raw, "aluguel_imovel")["treatment"].update(fraction=1.5))
    rc = main(["solve", "--schedule", str(path), "--synthetic", "42:2000"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: category 'aluguel_imovel'.fraction: "
        f"rent_regime fraction must be in (0, 1], got 1.5\n"
    )


def test_solve_rejects_unhashable_treatment_kind(tmp_path, capsys):
    def edit(raw):
        _category(raw, "gasolina")["treatment"] = {"kind": ["x"]}

    rc = main(["solve", "--schedule", str(_plp68_variant(tmp_path, edit)),
               "--synthetic", "42:2000"])
    assert rc == 1
    assert "category 'gasolina': unknown treatment kind ['x']" in capsys.readouterr().err


# -- households files -------------------------------------------------------------


def test_underscore_separator_rejected_with_path(tmp_path, capsys):
    # float() reads "1_000" as 1000.0; the households reader takes plain decimals only
    csv_path = tmp_path / "hh.csv"
    assert main(["generate", "--schedule", "uniform", "--synthetic", "3:4",
                 "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[-1] = "1_000"
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["solve", "--schedule", "uniform", "--households", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert f"{csv_path}: row 3: column 'consumo': not a number: '1_000'" in err


def test_cli_builds_household_rows_only_for_the_spot_check(tmp_path, monkeypatch):
    built = []
    post_init = Household.__post_init__

    def counted(self):
        built.append(self.id)
        post_init(self)

    monkeypatch.setattr(Household, "__post_init__", counted)
    assert main(["tables", "--schedule", "plp68", "--synthetic", "42:2000",
                 "--out", str(tmp_path / "run")]) == 0
    assert 0 < len(built) <= 6 * 4  # six sampled rows per scenario, baseline included
    built.clear()
    csv_path = tmp_path / "hh.csv"
    assert main(["generate", "--schedule", "plp68", "--synthetic", "42:2000",
                 "--out", str(csv_path)]) == 0
    assert main(["solve", "--schedule", "plp68", "--households", str(csv_path)]) == 0
    assert built == []


def test_manifest_identifies_households_file_by_content(tmp_path):
    csv_path = tmp_path / "hh.csv"

    def tables(seed, out):
        assert main(["generate", "--schedule", "plp68", "--synthetic", f"{seed}:300",
                     "--out", str(csv_path)]) == 0
        assert main(["tables", "--schedule", "plp68", "--households", str(csv_path),
                     "--remove", "cesta_basica", "--out", str(out)]) == 0
        return (out / "manifest.json").read_bytes()

    first = tables(1, tmp_path / "a")
    second = tables(2, tmp_path / "b")
    config = json.loads(second)["config"]["population"]
    data = csv_path.read_bytes()
    assert config == {"kind": "file", "source": str(csv_path),
                      "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    assert json.loads(first)["config_sha256"] != json.loads(second)["config_sha256"]
    assert tables(2, tmp_path / "c") == second
