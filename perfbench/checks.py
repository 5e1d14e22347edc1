"""Output checks for the benchmark.

Every invocation the benchmark makes is checked, not only the first one, and
one that exits non-zero or fails a check counts in ``failed_frac``. The checks
read only the files the command line wrote; for ``solve``, the net burden
at the solved rate comes from the scalar reference path (``probe.py``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Sequence

TABLE_FILES = (
    "table1_budget_shares.csv",
    "table1_budget_shares.txt",
    "table2_rate_impacts.csv",
    "table2_rate_impacts.txt",
    "table3_scenarios.csv",
    "table3_scenarios.txt",
    "manifest.json",
)
TRACE_HEADER = ["iter", "t_ref_outside", "cashback_total", "net_burden"]

# The solver stops once the rate moves by less than its fixed-point tolerance
# (ivasim.solver.FIXED_POINT_TOLERANCE, 1e-8); the net burden it reaches then
# lies well within that distance of the target.  A rate that is off by 1e-6
# misses the target by about 3e-7 on the plp68 schedule.
BURDEN_TOLERANCE = 1e-8


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_csv(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header, body rows, and problems: every row must match the header's width."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], [], [f"{path.name}: empty"]
    header, body = rows[0], rows[1:]
    bad = [line for line, row in enumerate(body, start=2) if len(row) != len(header)]
    problems = [f"{path.name}: lines {bad} do not have {len(header)} fields"] if bad else []
    return header, body, problems


def check_tables(out: Path, removals: int, scenarios: Sequence[str]) -> list[str]:
    """Problems in the output directory of one ``ivasim tables`` invocation."""
    missing = [name for name in TABLE_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    problems: list[str] = []

    _, table1, found = read_csv(out / "table1_budget_shares.csv")
    problems += found
    total = [row for row in table1 if row and row[0] == "total"]
    if len(total) != 1 or any(cell != "100.0" for cell in total[0][1:]):
        problems.append(f"table 1: total row is {total}, not 100.0 in every column")

    _, table2, found = read_csv(out / "table2_rate_impacts.csv")
    problems += found
    if len(table2) != removals + 2:
        problems.append(f"table 2: {len(table2)} rows, expected {removals + 2}")

    header3, table3, found = read_csv(out / "table3_scenarios.csv")
    problems += found
    if "mean_net_tax" not in header3:
        problems.append("table 3: no mean_net_tax column")
    else:
        col = header3.index("mean_net_tax")
        totals = [row for row in table3 if len(row) == len(header3) and row[1] == "total"]
        names = [row[0] for row in totals]
        if names != ["baseline", *scenarios]:
            problems.append(f"table 3: total rows for {names}, expected baseline and {list(scenarios)}")
        if len({row[col] for row in totals}) != 1:
            problems.append(
                "table 3: scenarios not revenue neutral, total mean_net_tax "
                + ", ".join(f"{row[0]}={row[col]}" for row in totals)
            )

    try:
        json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        problems.append(f"manifest.json: {exc}")
    return problems


def read_trace_rate(trace: Path) -> tuple[float | None, list[str]]:
    """Full-precision outside rate from the last row of a ``solve --trace`` file."""
    if not trace.is_file():
        return None, [f"missing trace {trace.name}"]
    header, body, problems = read_csv(trace)
    if header != TRACE_HEADER or not body or problems:
        return None, problems + [f"{trace.name}: malformed trace"]
    try:
        return float(body[-1][1]), []
    except ValueError:
        return None, [f"{trace.name}: rate {body[-1][1]!r} is not a number"]


def check_population_csv(path: Path, columns: Sequence[str], n: int) -> list[str]:
    """Problems in a ``generate`` output: the documented header and ``n`` rows."""
    if not path.is_file():
        return [f"missing {path.name}"]
    problems = []
    # streamed: the benchmark process must stay small (see probe.py)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = bad = 0
        for row in reader:
            rows += 1
            bad += len(row) != len(header)
    if header != list(columns):
        problems.append(f"{path.name}: header {header[:6]}... is not the documented layout")
    if bad:
        problems.append(f"{path.name}: {bad} rows do not have {len(header)} fields")
    if rows != n:
        problems.append(f"{path.name}: {rows} households, expected {n}")
    return problems


def check_burden(burden: float, rate: float, target: float) -> list[str]:
    """The scalar reference burden at a solved rate must meet the target."""
    if abs(burden - target) > BURDEN_TOLERANCE:
        return [f"scalar net burden {burden!r} at rate {rate!r} misses target {target!r}"]
    return []


class Tally:
    """Counts invocations and failures, and pins each output file's bytes.

    Outputs of one role (warm-up, input, timed) must be byte-identical across
    the invocations of a run; the first invocation's sha256 is the reference.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, role: str, returncode: int, problems: list[str],
               files: Sequence[Path]) -> None:
        self.attempted += 1
        problems = list(problems)
        if returncode != 0:
            problems.insert(0, f"exit code {returncode}")
        for path in files:
            if not path.is_file():
                continue
            digest = sha256(path)
            first = self.digests.setdefault(f"{role}/{path.name}", digest)
            if digest != first:
                problems.append(f"{path.name} differs from the first {role} invocation")
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
