#!/usr/bin/env python3
"""The ivasim benchmark: times the ``ivasim`` command line as an analyst runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables_synth --seed 42 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  Each invocation is a child
process, ``python -m ivasim.cli ...``, started only after the previous one has
ended: a closed loop with one client.  Interpreter start and imports are
timed too, because users pay them on every command.  ``--trace 1`` runs the
same commands in-process through ``ivasim.cli.main`` under the wrappers of
``tracing.py`` and reports the per-layer metrics.

Every invocation's outputs are checked (see ``checks.py``).  The lines before
the last one are a readable report with the environment record; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of the run also goes to ``perfbench/.work/results/``.

This process imports neither ivasim nor numpy (see ``probe.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from checks import (TABLE_FILES, Tally, check_burden, check_population_csv, check_tables,
                    read_trace_rate, sha256)
from tracing import (LAYER_METRICS, SOLVE_CSV_CALLS, TABLES_CALLS, layer_metrics,
                     median_metrics, missing_calls, raw_sums)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SCHEDULE = "plp68"
DEFAULT_SEED = 42
SETUP_REPEATS = 3
# The warm-up invocation runs the workload's own command on this many
# synthetic households: ivasim keeps no state between invocations, so a
# full-size warm-up would warm nothing more and double the run.
WARMUP_N = 200
RUN_DEADLINE_S = 170.0  # every run ends within 180 s

DEFAULT_SCENARIOS = ("uniform_vat", "plp68", "plp68_transfer_swap")
PLP68_DEFAULT_REMOVALS = 7  # favored-treatment groups of plp68: the default removals


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "tables" or "solve"
    n: int  # households
    from_csv: bool  # population read from a generated CSV, not --synthetic
    removals: int = PLP68_DEFAULT_REMOVALS
    scenarios: tuple[str, ...] = DEFAULT_SCENARIOS
    flags: tuple[str, ...] = ()


def workloads(category_ids: list[str]) -> dict[str, Workload]:
    removals = tuple(arg for cid in category_ids for arg in ("--remove", cid))
    return {
        w.name: w
        for w in (
            # The headline analyst command at the scale of a national
            # expenditure survey; dominated by the per-household scenario path.
            Workload("tables_synth", "tables", 20_000, from_csv=False),
            # The real-data entry path: CSV ingest and one large solve; the
            # CSV write that makes its input lands in setup_s.
            Workload("solve_csv", "solve", 100_000, from_csv=True),
            # 23 cheap solves on a small population: per-solve fixed costs
            # dominate and per-household work barely matters.
            Workload("removals_small", "tables", 2_000, from_csv=False,
                     removals=len(category_ids), scenarios=("plp68",),
                     flags=("--scenario", "plp68") + removals),
        )
    }


def cli_args(w: Workload, population: list[str], out: Path) -> list[str]:
    if w.command == "solve":
        return ["solve", "--schedule", SCHEDULE, *population, "--trace", str(out)]
    return ["tables", "--schedule", SCHEDULE, *population, "--out", str(out), *w.flags]


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Child(NamedTuple):
    seconds: float  # wall time
    rss_mb: float  # peak RSS of this child alone
    code: int  # exit code


def run_child(argv: list[str], deadline: float) -> Child:
    """Runs one child process to its end and measures it.

    ``os.wait4`` returns the rusage of the one child it reaps;
    ``RUSAGE_CHILDREN`` would be a running maximum over all children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def probe(args: list[str], deadline: float) -> dict:
    """One JSON answer from ``probe.py``, run in its own process."""
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE, check=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(done.stdout)


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """One run of one workload: setup, the measuring loop, and the checks."""

    def __init__(self, workload: Workload, seed: int, seconds: int, work: Path,
                 info: dict, deadline: float) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.info = info
        self.deadline = deadline
        self.tally = Tally()
        self.csv = work / "households.csv"
        self.burdens: dict[tuple[str, float], float] = {}

    def population(self, n: int) -> list[str]:
        if n == self.w.n and self.w.from_csv:
            return ["--households", str(self.csv)]
        return ["--synthetic", f"{self.seed}:{n}"]

    def out_path(self, role: str) -> Path:
        """A fresh output path, so no file of an earlier invocation can pass a check."""
        out = self.work / role / ("trace.csv" if self.w.command == "solve" else "tables")
        if out.is_dir():
            shutil.rmtree(out)
        out.unlink(missing_ok=True)
        out.parent.mkdir(parents=True, exist_ok=True)
        return out

    def cli(self, args: list[str]) -> Child:
        return run_child([sys.executable, "-m", "ivasim.cli", *args], self.deadline)

    # -- checks ------------------------------------------------------------------

    def check(self, label: str, role: str, code: int, out: Path, n: int) -> None:
        """Checks one invocation's outputs and records it in the tally."""
        if self.w.command == "tables":
            problems = check_tables(out, self.w.removals, self.w.scenarios) if code == 0 else []
            self.tally.record(label, role, code, problems, [out / f for f in TABLE_FILES])
            return
        rate, problems = read_trace_rate(out) if code == 0 else (None, [])
        if rate is not None:
            problems = check_burden(self.burden(n, rate), rate, self.info["target_net_burden"])
        self.tally.record(label, role, code, problems, [out])

    def burden(self, n: int, rate: float) -> float:
        """Scalar reference burden; the repeats of a run share one evaluation per rate."""
        if n == self.w.n and self.w.from_csv:
            key, source = sha256(self.csv), str(self.csv)
        else:
            key = source = f"{self.seed}:{n}"
        if (key, rate) not in self.burdens:
            answer = probe(["burden", source, repr(rate)], self.deadline)
            self.burdens[(key, rate)] = answer["net_burden"]
        return self.burdens[(key, rate)]

    # -- invocations ---------------------------------------------------------------

    def make_input(self, run) -> float:
        """Writes the workload's households CSV, if it has one; seconds taken."""
        if not self.w.from_csv:
            return 0.0
        self.csv.unlink(missing_ok=True)
        seconds, _, code = run(["generate", "--schedule", SCHEDULE,
                             "--synthetic", f"{self.seed}:{self.w.n}", "--out", str(self.csv)])
        if self.csv.is_file():
            # flushed outside any timing, so that no timed invocation competes
            # with the kernel writing the CSV back
            with self.csv.open("rb") as fh:
                os.fsync(fh.fileno())
        columns = self.info["fixed_columns"] + self.info["category_ids"]
        problems = check_population_csv(self.csv, columns, self.w.n) if code == 0 else []
        self.tally.record("generate", "input", code, problems, [self.csv])
        return seconds

    def setup(self) -> float:
        """Prepares the inputs and makes one warm-up invocation; seconds taken by both."""
        seconds = self.make_input(self.cli)
        out = self.out_path("warmup")
        warm_s, _, code = self.cli(cli_args(self.w, self.population(WARMUP_N), out))
        self.check("warm-up", "warmup", code, out, WARMUP_N)
        return seconds + warm_s

    def timed(self) -> tuple[float, float]:
        out = self.out_path("timed")
        seconds, rss_mb, code = self.cli(cli_args(self.w, self.population(self.w.n), out))
        self.check("timed", "timed", code, out, self.w.n)
        return seconds, rss_mb

    def loop(self, step) -> None:
        """Calls ``step`` until the invocations it times add up to ``seconds``, at least once.

        Only the measured invocations count, not the checks between them.
        """
        measured = 0.0
        while measured < self.seconds and time.monotonic() < self.deadline:
            measured += step()

    def measure(self) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        runs, rss = [], []

        def step() -> float:
            seconds, rss_mb = self.timed()
            runs.append(seconds)
            rss.append(rss_mb)
            return seconds

        self.loop(step)
        run_s = statistics.median(runs)
        return {
            "metrics": {
                "run_s": (run_s, "s"),
                "hh_per_s": (self.w.n / run_s, "households/s"),
                "peak_rss_mb": (statistics.median(rss), "MB"),
                "setup_s": (statistics.median(setups), "s"),
            },
            "samples": {"run_s": quartiles(runs), "peak_rss_mb": quartiles(rss),
                        "setup_s": quartiles(setups)},
            "raw": {"run_s": runs, "peak_rss_mb": rss, "setup_s": setups},
        }

    # -- traced run ------------------------------------------------------------------

    def inproc(self, traced: bool, args: list[str]) -> dict:
        """One command through ``ivasim.cli.main`` in a child; its trace result."""
        result_path = self.work / "inproc.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracing.py"), "1" if traced else "0",
                str(result_path), *args]
        code = run_child(argv, self.deadline).code
        if code != 0 or not result_path.is_file():
            return {"returncode": code or 1, "seconds": 0.0, "spans": [], "calls": {}, "values": {}}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def trace_pass(self, traced: bool) -> tuple[float, Counter, int]:
        """The workload's commands in-process: seconds, summed trace, bytes written."""
        seconds, sums = 0.0, Counter()

        def run(args: list[str]) -> Child:
            nonlocal seconds
            result = self.inproc(traced, args)
            seconds += result["seconds"]
            sums.update(raw_sums(result))
            return Child(result["seconds"], 0.0, result["returncode"])

        self.make_input(run)
        out = self.out_path("timed")
        code = run(cli_args(self.w, self.population(self.w.n), out)).code
        self.check("traced" if traced else "in-process", "timed", code, out, self.w.n)
        outputs = [self.csv] if self.w.from_csv else []
        outputs += list(out.iterdir()) if out.is_dir() else [out]
        return seconds, sums, sum(p.stat().st_size for p in outputs if p.is_file())

    def measure_layers(self) -> dict:
        expected = SOLVE_CSV_CALLS if self.w.from_csv else TABLES_CALLS
        self.setup()
        plain, traced, passes, missing = [], [], [], set()

        def step() -> float:
            plain.append(self.trace_pass(False)[0])
            seconds, sums, written = self.trace_pass(True)
            traced.append(seconds)
            missing.update(missing_calls(sums, expected))
            passes.append(layer_metrics(sums, written))
            return plain[-1] + seconds

        self.loop(step)
        metrics = median_metrics(passes)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        return {
            "metrics": {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()},
            "samples": {"inproc_untraced_s": quartiles(plain), "inproc_traced_s": quartiles(traced)},
            "raw": {"passes": passes},
            "missing_calls": sorted(missing),
        }


# -- environment record -----------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment(w: Workload, seed: int, trace: int, info: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "openblas": info["openblas"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": w.name,
        "n": w.n,
        "seed": seed,
        "trace": trace,
    }


# -- entry point ------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables_synth", "solve_csv", "removals_small"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(w: Workload, args: argparse.Namespace, result: dict, tally: Tally,
           env: dict, missing: list[str]) -> None:
    print(f"workload {w.name}: N={w.n} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in result["metrics"].items():
        spread = result["samples"].get(name)
        extra = (f"  (median; q1 {spread['q1']:.4g}, q3 {spread['q3']:.4g}, n={spread['n']})"
                 if spread else "")
        print(f"  {name:30} {value:14.6g} {unit}{extra}")
    print(f"  {'failed_frac':30} {tally.failed_frac:14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} invocations)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    if missing:
        print(f"  COVERAGE: no calls recorded by {missing}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("outputs: " + json.dumps(tally.digests, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ivasim" / "cli.py").is_file():
        print(f"error: no ivasim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    info = probe(["info"], deadline)
    if not Path(info["ivasim_file"]).resolve().is_relative_to(SRC):
        print(f"error: ivasim imported from {info['ivasim_file']}, not {SRC}", file=sys.stderr)
        return 2

    w = workloads(info["category_ids"])[args.workload]
    env = environment(w, args.seed, args.trace, info)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        bench = Bench(w, args.seed, args.seconds, work, info, deadline)
        result = bench.measure_layers() if args.trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    missing = result.pop("missing_calls", [])
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    record = {
        "environment": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "problems": tally.problems,
        "missing_calls": missing,
        "output_sha256": tally.digests,
        "metrics": metrics,
        "samples": result["samples"],
        "raw": result["raw"],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    report(w, args, result, tally, env, missing)
    print(json.dumps({"correct": tally.failed == 0 and not missing,
                      "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    if missing:
        print(f"error: traced run recorded no calls for {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
