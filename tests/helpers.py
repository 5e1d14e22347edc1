"""Views of library results that only the tests need, and reference writers."""

import csv
from itertools import repeat
from pathlib import Path

from ivasim.analysis import QuintileAssignment, ScenarioResult
from ivasim.engine import HouseholdIncidence
from ivasim.microdata import FIXED_COLUMNS, Population
from ivasim.schedule import Schedule

_ROW_BLOCK = 8192  # rows turned into Python objects at a time


def quintile_of(quintiles: QuintileAssignment) -> dict[int, int]:
    """Household id -> quintile 1..5."""
    ids = quintiles.ids[quintiles.order].tolist()
    bounds = quintiles.bounds
    mapping = {}
    for q in range(1, 6):
        mapping.update(zip(ids[bounds[q - 1]:bounds[q]], repeat(q)))
    return mapping


def incidences(result: ScenarioResult) -> tuple[HouseholdIncidence, ...]:
    """Every household's reference-path incidence, in ascending id order."""
    return tuple(map(result.scalar_incidence, result.population.households))


def repr_csv(population: Population, path, schedule: Schedule) -> None:
    """The households CSV written a row at a time, one ``repr`` per float cell.

    The reference ``write_population``'s block kernel is pinned to byte for byte.
    """
    columns = population.column_index(schedule)
    category_ids = schedule.category_ids()
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(FIXED_COLUMNS) + list(category_ids))
        # repr of a float is the shortest string that round-trips exactly; no
        # number needs csv quoting, so rows are joined directly
        for start in range(0, len(population), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            fh.writelines(
                f"{hid},{w!r},{r},{inc!r},{nm!r},{','.join(map(repr, cells))}\n"
                for hid, w, r, inc, nm, cells in zip(
                    population.ids[rows].tolist(), population.weight[rows].tolist(),
                    population.residents[rows].tolist(),
                    population.income_per_capita[rows].tolist(),
                    population.nonmonetary_total[rows].tolist(),
                    population.spend[rows][:, columns].tolist(),
                )
            )
