"""Questions the benchmark asks of the ivasim package, each in its own process.

The benchmark process never imports ivasim or numpy.  A child's peak RSS, as
``os.wait4`` reports it, includes the memory of the process it was started
from, so a benchmark process holding a 100k-household population would
inflate every ``peak_rss_mb`` it measures.

    python3 perfbench/probe.py info
        schedule facts, where ivasim was imported from, numpy and OpenBLAS
    python3 perfbench/probe.py burden <households.csv | SEED:N> <rate>
        net burden at an outside reference rate, by the scalar reference path

Each prints one JSON object.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

SCHEDULE = "plp68"


def schedule():
    from ivasim.schedule import bundled_schedule_path, load_schedule

    return load_schedule(bundled_schedule_path(SCHEDULE))


def openblas() -> dict:
    """OpenBLAS build and thread count as loaded by numpy in this process."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
              "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
              "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(handle, symbol, None)
            if get_threads is not None:
                record["threads"] = get_threads()
                return record
    return record


def info() -> dict:
    import numpy

    import ivasim
    from ivasim.microdata import FIXED_COLUMNS

    s = schedule()
    return {
        "ivasim_file": os.path.abspath(ivasim.__file__),
        "category_ids": list(s.category_ids()),
        "fixed_columns": list(FIXED_COLUMNS),
        "target_net_burden": s.target_net_burden,
        "numpy": numpy.__version__,
        "openblas": openblas(),
    }


def net_burden(population, s, rate: float) -> float:
    """``household_tax`` -> ``household_cashback`` -> ``aggregate(...).net_burden``.

    One household at a time: the reference semantics the vectorized solver
    must match.
    """
    from ivasim.engine import aggregate, household_cashback, household_tax
    from ivasim.rates import Rate

    t_ref = Rate.outside(rate)
    incidences = []
    for h in population.households:
        inc = household_tax(h, s, t_ref)
        incidences.append(dataclasses.replace(inc, cashback=household_cashback(h, inc, s)))
    return aggregate(population, incidences, s).net_burden


def burden(source: str, rate: float) -> dict:
    from ivasim.microdata import generate_synthetic, load_population

    s = schedule()
    if source.endswith(".csv"):
        population = load_population(source, s)
    else:
        seed, n = source.split(":")
        population = generate_synthetic(int(seed), int(n), s)
    return {"net_burden": net_burden(population, s, rate)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["info"] and len(argv) == 1:
        print(json.dumps(info()))
    elif argv[:1] == ["burden"] and len(argv) == 3:
        print(json.dumps(burden(argv[1], float(argv[2]))))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
