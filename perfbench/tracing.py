"""In-process tracing of one ``ivasim`` command, from outside the package.

Run as a script, this module executes one command line through
``ivasim.cli.main(argv)`` and writes a JSON result:

    python3 perfbench/tracing.py <traced 0|1> <result.json> <ivasim arguments...>

With ``traced`` 1 it first wraps each layer's public functions.  Functions
called per command, per solve or per solver step get a span (name, start,
end, parent span); functions called once per household or per category get
a counter only, because a span on each of those calls would swamp the run.
Spans are kept in memory and written out when the command ends.  With
``traced`` 0 only the in-process time is recorded, so the two runs give the
tracing overhead.

The modules import each other's functions by name, so each wrapper is
installed on every module attribute that refers to the function, not only on
the defining module; methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

# Wrapper names (call keys) that must record calls on each kind of workload;
# a wrapper that misses its call site then fails the run instead of reporting 0.
TABLES_CALLS = (
    "cli.cmd", "microdata.synth", "microdata.validate", "rates.rate_objects",
    "schedule.effective_rate", "engine.calc_build", "engine.eval",
    "engine.household", "engine.aggregate", "engine.denominator",
    "solver.solve", "solver.rate_impact", "analysis.quintiles",
    "analysis.table1", "analysis.table3", "analysis.render", "analysis.scenarios",
)
SOLVE_CSV_CALLS = (
    "cli.cmd", "microdata.synth", "microdata.write", "microdata.load",
    "microdata.validate", "rates.rate_objects", "schedule.effective_rate",
    "engine.calc_build", "engine.eval", "engine.denominator", "solver.solve",
)

# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "microdata.synth_s": "s",
    "microdata.load_s": "s",
    "microdata.load_mb_per_s": "MB/s",
    "microdata.write_s": "s",
    "microdata.validate_calls": "count",
    "microdata.rss_rise_mb": "MB",
    "rates.rate_objects": "count",
    "schedule.effective_rate_calls": "count",
    "engine.calc_builds": "count",
    "engine.calc_build_s": "s",
    "engine.burden_evals": "count",
    "engine.eval_s": "s",
    "engine.household_calls": "count",
    "engine.aggregate_s": "s",
    "engine.denominator_calls": "count",
    "engine.rss_rise_mb": "MB",
    "solver.solves": "count",
    "solver.solve_self_s": "s",
    "solver.outer_iters": "count",
    "solver.evals_per_solve": "ratio",
    "solver.rate_impact_s": "s",
    "analysis.quintiles_s": "s",
    "analysis.table1_s": "s",
    "analysis.table3_s": "s",
    "analysis.render_s": "s",
    "analysis.scenarios_s": "s",
    "analysis.scenarios_self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Tracer:
    """Spans, call counts and summed values of one traced command."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [key, start, end, parent index or -1]
        self.calls: Counter[str] = Counter()
        self.values: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, key: str, fn: Callable, after: Callable | None = None) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            record = [key, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rss_rise(self, key: str, fn: Callable) -> Callable:
        """Adds the rise of the process's peak RSS across each call to ``key``."""
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = _maxrss_mb()
            result = fn(*args, **kwargs)
            values[key] += _maxrss_mb() - before
            return result

        return wrapper

    def add(self, key: str, amount: float) -> None:
        self.values[key] += amount


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every ivasim layer on all names they are bound to."""
    from ivasim import analysis, cli, engine, microdata, rates, schedule, solver

    modules = [m for name, m in sys.modules.items() if name == "ivasim" or name.startswith("ivasim.")]

    def everywhere(fn: Callable, wrapper: Callable) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def span(key: str, module, name: str, after: Callable | None = None, rss: str | None = None):
        fn = getattr(module, name)
        inner = tracer.rss_rise(rss, fn) if rss else fn
        everywhere(fn, tracer.span(key, inner, after))

    def counter(key: str, module, name: str) -> None:
        fn = getattr(module, name)
        everywhere(fn, tracer.counter(key, fn))

    def method(cls, name: str, wrap: Callable[[Callable], Callable]) -> None:
        setattr(cls, name, wrap(vars(cls)[name]))

    for name in ("cmd_solve", "cmd_tables", "cmd_generate"):
        span("cli.cmd", cli, name)

    span("microdata.synth", microdata, "generate_synthetic", rss="microdata.rss_rise_mb")
    span("microdata.load", microdata, "load_population", rss="microdata.rss_rise_mb",
         after=lambda args, _: tracer.add("microdata.csv_bytes", os.path.getsize(args[0])))
    span("microdata.write", microdata, "write_population")
    method(microdata.Population, "validate_against",
           lambda fn: tracer.counter("microdata.validate", fn))

    method(rates.Rate, "__post_init__", lambda fn: tracer.counter("rates.rate_objects", fn))
    counter("schedule.effective_rate", schedule, "effective_inside_rate")

    calc = engine.IncidenceCalculator
    method(calc, "__init__",
           lambda fn: tracer.span("engine.calc_build", tracer.rss_rise("engine.rss_rise_mb", fn)))
    method(calc, "gross_total", lambda fn: tracer.span("engine.eval", fn))
    method(calc, "cashback_total", lambda fn: tracer.span("engine.eval", fn))
    for name in ("household_tax", "baseline_tax", "household_cashback"):
        counter("engine.household", engine, name)
    span("engine.aggregate", engine, "aggregate")
    counter("engine.denominator", engine, "denominator_expenditure")

    span("solver.solve", solver, "solve_given_cashback")
    span("solver.solve", solver, "solve_with_cashback",
         after=lambda _, result: tracer.add("solver.outer_iters", result.iterations))
    span("solver.rate_impact", solver, "marginal_rate_impact")

    span("analysis.quintiles", analysis, "assign_quintiles")
    span("analysis.table1", analysis, "budget_share_table")
    span("analysis.table3", analysis, "build_scenario_table")
    span("analysis.scenarios", analysis, "compute_scenarios")
    for name in dir(analysis):
        if name.startswith("render_"):
            span("analysis.render", analysis, name)


def raw_sums(result: dict) -> Counter[str]:
    """Additive per-layer quantities of one command's trace."""
    spans = result["spans"]
    duration = [end - start for _, start, end, _ in spans]
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)

    def in_solve(i: int) -> bool:
        parent = spans[i][3]
        while parent != -1:
            if spans[parent][0] == "solver.solve":
                return True
            parent = spans[parent][3]
        return False

    sums: Counter[str] = Counter()
    for i, (key, _, _, _) in enumerate(spans):
        sums[f"{key}_s"] += duration[i]
        kids = children[i]
        sums[f"self:{key}"] += duration[i] - sum(duration[c] for c in kids)
        if key == "analysis.scenarios":
            sums["analysis.scenarios_self_s"] += duration[i] - sum(
                duration[c] for c in kids if spans[c][0].split(".")[0] in ("solver", "engine")
            )
        if key == "solver.solve" and not in_solve(i):
            sums["solver.solves"] += 1
    sums.update(result["calls"])
    sums.update(result["values"])
    return sums


def layer_metrics(sums: Counter[str], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the workload's commands."""
    load_s = sums["microdata.load_s"]
    solves = sums["solver.solves"]
    metrics = {
        "cli.self_s": sums["self:cli.cmd"],
        "cli.bytes_written": bytes_written,
        "microdata.synth_s": sums["microdata.synth_s"],
        "microdata.load_s": load_s,
        "microdata.load_mb_per_s": sums["microdata.csv_bytes"] / 1e6 / load_s if load_s else 0.0,
        "microdata.write_s": sums["microdata.write_s"],
        "microdata.validate_calls": sums["microdata.validate"],
        "microdata.rss_rise_mb": sums["microdata.rss_rise_mb"],
        "rates.rate_objects": sums["rates.rate_objects"],
        "schedule.effective_rate_calls": sums["schedule.effective_rate"],
        "engine.calc_builds": sums["engine.calc_build"],
        "engine.calc_build_s": sums["engine.calc_build_s"],
        "engine.burden_evals": sums["engine.eval"],
        "engine.eval_s": sums["engine.eval_s"],
        "engine.household_calls": sums["engine.household"],
        "engine.aggregate_s": sums["engine.aggregate_s"],
        "engine.denominator_calls": sums["engine.denominator"],
        "engine.rss_rise_mb": sums["engine.rss_rise_mb"],
        "solver.solves": solves,
        "solver.solve_self_s": sums["self:solver.solve"],
        "solver.outer_iters": sums["solver.outer_iters"],
        "solver.evals_per_solve": sums["engine.eval"] / solves if solves else 0.0,
        "solver.rate_impact_s": sums["solver.rate_impact_s"],
        "analysis.quintiles_s": sums["analysis.quintiles_s"],
        "analysis.table1_s": sums["analysis.table1_s"],
        "analysis.table3_s": sums["analysis.table3_s"],
        "analysis.render_s": sums["analysis.render_s"],
        "analysis.scenarios_s": sums["analysis.scenarios_s"],
        "analysis.scenarios_self_s": sums["analysis.scenarios_self_s"],
    }
    return metrics


def missing_calls(sums: Counter[str], expected: Iterable[str]) -> list[str]:
    """Wrappers expected on the workload that recorded no call."""
    return [key for key in expected if sums[key] == 0]


def median_metrics(passes: Sequence[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def main(argv: Sequence[str]) -> int:
    traced, result_path, cli_argv = argv[0] == "1", argv[1], list(argv[2:])
    import ivasim.cli

    tracer = Tracer()
    if traced:
        install(tracer)
    start = perf_counter()
    try:
        code = ivasim.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    seconds = perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"returncode": code, "seconds": seconds, "spans": tracer.spans,
                   "calls": tracer.calls, "values": tracer.values}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
