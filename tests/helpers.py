"""Views of library results that only the tests need."""

from itertools import repeat

from ivasim.analysis import QuintileAssignment, ScenarioResult
from ivasim.engine import HouseholdIncidence


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
