"""Command-line interface.

Subcommands:

* ``solve``     calibrate the revenue-neutral reference rate
* ``tables``    write the budget-share, rate-impact, and scenario tables
* ``validate``  check a schedule and population against all invariants
* ``generate``  emit a synthetic household CSV

Exit codes: 0 success, 1 input or validation error (or an array too large
to allocate), 2 numerical non-convergence or a failed spot-check of the
columnar path.  Every command is deterministic given its arguments, so a
rerun with the same flags reproduces its outputs byte for byte; files are
written as UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy

from . import __version__
from .analysis import (
    SWAP_GROUP,
    ScenarioName,
    assign_quintiles,
    budget_share_table,
    build_scenario_table,
    compute_scenarios,
    render_budget_shares_csv,
    render_budget_shares_text,
    render_rate_impacts_csv,
    render_rate_impacts_text,
    render_scenarios_csv,
    render_scenarios_text,
    scenario_names,
)
from .engine import IncidenceCalculator, rate_vector
from .microdata import (
    MicrodataError,
    Population,
    generate_synthetic,
    load_population,
    write_population,
)
from .rates import Rate
from .schedule import (
    Schedule,
    ScheduleError,
    bundled_schedule_path,
    default_removal_selectors,
    load_schedule,
)
from .solver import SolverError, check_target, marginal_rate_impact, solve_with_cashback


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors: exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ivasim",
        description="Consumption-tax microsimulation: reference-rate "
        "calibration and distributional tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_inputs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--schedule",
            default="plp68",
            metavar="PATH|NAME",
            help="schedule JSON file, or the name of a bundled schedule "
            "(plp68, uniform); default plp68",
        )
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--households", metavar="CSV", help="household microdata file"
        )
        source.add_argument(
            "--synthetic",
            metavar="SEED:N",
            help="generate N synthetic households from SEED",
        )
        p.add_argument(
            "--target-burden",
            type=float,
            default=None,
            metavar="B",
            help="net-burden target; default comes from the schedule",
        )

    p_solve = sub.add_parser(
        "solve", help="calibrate the revenue-neutral reference rate"
    )
    add_inputs(p_solve)
    p_solve.add_argument(
        "--trace", metavar="CSV", help="write the per-iteration solve trace"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_tables = sub.add_parser(
        "tables", help="write the three distributional tables plus a manifest"
    )
    add_inputs(p_tables)
    p_tables.add_argument(
        "--out", required=True, metavar="DIR", help="output directory"
    )
    p_tables.add_argument(
        "--remove",
        action="append",
        metavar="SELECTOR",
        help="treatment removal for the rate-impact table (repeatable); "
        "default: every favored-treatment group in the schedule",
    )
    p_tables.add_argument(
        "--scenario",
        action="append",
        choices=[n.value for n in ScenarioName],
        help="scenario to include (repeatable); default: all reforms, less the "
        f"transfer swap when the schedule has no {SWAP_GROUP} group or category",
    )
    p_tables.set_defaults(func=cmd_tables)

    p_validate = sub.add_parser(
        "validate", help="check schedule and population invariants"
    )
    add_inputs(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_generate = sub.add_parser(
        "generate", help="write a synthetic household CSV"
    )
    p_generate.add_argument(
        "--schedule", default="plp68", metavar="PATH|NAME",
        help="schedule whose categories the CSV should carry",
    )
    p_generate.add_argument(
        "--synthetic", required=True, metavar="SEED:N",
        help="seed and household count",
    )
    p_generate.add_argument(
        "--out", required=True, metavar="CSV", help="output file"
    )
    p_generate.set_defaults(func=cmd_generate)

    return parser


# -- input resolution --------------------------------------------------------


def resolve_schedule(value: str) -> Schedule:
    """Load the schedule file ``value`` names, else the bundled schedule of that name.

    Only a file shadows a bundled name: a directory called ``plp68`` does not.
    """
    path = Path(value)
    if path.is_file():
        return load_schedule(path)
    try:
        bundled = bundled_schedule_path(value)
    except ScheduleError:
        raise ScheduleError(f"schedule file not found: {value}") from None
    return load_schedule(bundled)


def parse_seed_size(value: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+):(\d+)", value)
    if m is None:
        raise MicrodataError(f"--synthetic expects SEED:N, got {value!r}")
    seed, n = int(m.group(1)), int(m.group(2))
    if n < 1:
        raise MicrodataError("--synthetic size must be at least 1")
    return seed, n


def _resolve_population(args: argparse.Namespace, schedule: Schedule) -> Population:
    if args.households is not None:
        return load_population(args.households, schedule)
    seed, n = parse_seed_size(args.synthetic)
    return generate_synthetic(seed, n, schedule)


def _resolve_target(args: argparse.Namespace, schedule: Schedule) -> float:
    if args.target_burden is None:
        return schedule.target_net_burden
    try:
        check_target(args.target_burden)
    except SolverError as exc:  # an input error here: exit 1, not 2
        raise ValueError(f"--target-burden: {exc}") from None
    return args.target_burden


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    schedule = resolve_schedule(args.schedule)
    population = _resolve_population(args, schedule)
    target = _resolve_target(args, schedule)
    result = solve_with_cashback(population, schedule, target)
    # the trace is written first, so a run that fails prints no result
    if args.trace:
        with open(args.trace, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "t_ref_outside", "cashback_total", "net_burden"])
            for row in result.trace:
                writer.writerow(
                    [
                        row.iteration,
                        repr(row.t_ref_outside),
                        repr(row.cashback_total),
                        repr(row.net_burden),
                    ]
                )
    print(f"reference rate (inside):  {result.t_ref_inside.value:.4f}")
    print(f"reference rate (outside): {result.t_ref.value:.4f}")
    print(f"iterations: {result.iterations}")
    print(f"residual: {result.residual:.3e}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _check_no_repeats(flag: str, values: Sequence[str] | None) -> None:
    seen: set[str] = set()
    for value in values or ():
        if value in seen:
            raise ValueError(f"{flag} {value!r} is given more than once")
        seen.add(value)


def cmd_tables(args: argparse.Namespace) -> int:
    _check_no_repeats("--remove", args.remove)
    _check_no_repeats("--scenario", args.scenario)
    schedule = resolve_schedule(args.schedule)
    population = _resolve_population(args, schedule)
    target = _resolve_target(args, schedule)

    # every table is computed before any file is written, so a failed run
    # leaves no partial output behind
    quintiles = assign_quintiles(population)
    empty = quintiles.empty()
    if empty:
        raise ValueError(
            f"quintile(s) {', '.join(map(str, empty))} hold no household; "
            f"the tables need at least one household in each of the five quintiles"
        )
    shares = budget_share_table(population, schedule, quintiles)
    selectors = list(args.remove) if args.remove else list(default_removal_selectors(schedule))
    names = scenario_names(schedule, [ScenarioName(n) for n in args.scenario or ()])
    impacts = marginal_rate_impact(population, schedule, selectors, target)
    results = compute_scenarios(population, schedule, names)
    table = build_scenario_table(population, quintiles, results)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _emit(out, "table1_budget_shares",
          render_budget_shares_csv(shares), render_budget_shares_text(shares))
    print(f"table1_budget_shares: {len(shares) - 1} groups")
    _emit(out, "table2_rate_impacts",
          render_rate_impacts_csv(impacts), render_rate_impacts_text(impacts))
    print(f"table2_rate_impacts: {len(impacts)} rows")
    _emit(out, "table3_scenarios",
          render_scenarios_csv(table), render_scenarios_text(table))
    print(f"table3_scenarios: {len(results)} scenarios")

    config = {
        "command": "tables",
        "schedule": args.schedule,
        "population": _population_identity(population),
        "target_burden": target,
        "removals": selectors,
        "scenarios": [r.name.value for r in results],
    }
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config,
        "config_sha256": _sha256(blob.encode()).hexdigest(),
        "schedule_fingerprint": schedule.fingerprint(),
        "versions": {
            "ivasim": __version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"manifest written to {manifest_path}")
    return 0


def _sha256(data: bytes = b""):
    """A sha256 digest of ``data``.

    hashlib is imported here, as in ``Schedule.fingerprint``: loading it maps
    OpenSSL, and ``solve`` makes no digest.
    """
    import hashlib

    return hashlib.sha256(data)


def _population_identity(population: Population) -> dict:
    """Provenance, plus the content hash and size of a households file."""
    identity = {"kind": population.provenance.kind, "source": population.provenance.source}
    if population.provenance.kind == "file":
        digest = _sha256()
        size = 0
        with open(population.provenance.source, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
        identity.update(sha256=digest.hexdigest(), bytes=size)
    return identity


def _emit(out: Path, stem: str, csv_text: str, txt_text: str) -> None:
    (out / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
    (out / f"{stem}.txt").write_text(txt_text, encoding="utf-8")


def cmd_validate(args: argparse.Namespace) -> int:
    failures = 0

    def ok(name: str, detail: str = "") -> None:
        print(f"ok   {name}" + (f" ({detail})" if detail else ""))

    def fail(name: str, exc: Exception | str) -> None:
        nonlocal failures
        failures += 1
        print(f"FAIL {name}: {exc}")

    schedule = None
    try:
        schedule = resolve_schedule(args.schedule)
    except (ScheduleError, OSError) as exc:
        fail("schedule loads", exc)
    else:
        ok("schedule loads", f"{len(schedule.categories)} categories")

    if schedule is not None:
        try:  # at the target solve and tables take
            target = _resolve_target(args, schedule)
            rate_vector(schedule, Rate.outside(target / (1.0 - target)))
        except ValueError as exc:  # names --target-burden, or the first category out of range
            fail("effective rates well-formed", exc)
        else:
            ok("effective rates well-formed")

    population = None
    if schedule is not None:
        try:
            population = _resolve_population(args, schedule)
        except (MicrodataError, OSError) as exc:
            fail("population loads", exc)
        else:
            ok("population loads", f"{len(population)} households")
    else:
        print("skip population loads (schedule failed)")

    if population is None:
        reason = "schedule failed" if schedule is None else "population failed"
        print(f"skip totals well-formed ({reason})")
    else:
        try:  # the guard solve and tables run first
            IncidenceCalculator(population, schedule)
        except MicrodataError as exc:
            fail("totals well-formed", exc)
        else:
            ok("totals well-formed")

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    schedule = resolve_schedule(args.schedule)
    seed, n = parse_seed_size(args.synthetic)
    population = generate_synthetic(seed, n, schedule)
    write_population(population, args.out, schedule)
    print(f"wrote {n} households to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        # covers ScheduleError, MicrodataError, scenario input errors, and a
        # sum past the largest double that no check names
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation it refused
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
