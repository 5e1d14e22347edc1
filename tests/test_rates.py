"""Rate conversion arithmetic, and the per-kind rate rules against the ``Rate`` oracle.

The expected values below are frozen from hand computation:
t_out = t_in/(1 - t_in) and t_in = t_out/(1 + t_out), e.g.
0.33/0.67 = 0.49253731..., 0.275/0.725 = 0.37931034...
``apply_fraction`` and ``compose_selective`` are the test oracle's ``Rate``
compositions (``tests/helpers.py``).
"""

import doctest
import math
import random

import pytest

import ivasim.rates as rates_module
from ivasim.rates import Rate, RateBasis, to_inside, to_outside
from ivasim.schedule import TaxTreatment, TreatmentKind, inside_rate_function

from helpers import apply_fraction, compose_selective


# Published equivalences between the two quoting conventions, in %.
# Statutory quotes are inside ("por dentro"); the outside values are the
# familiar VAT-style quotes.  Tolerance 0.1 p.p. (values are reported rounded
# to one decimal).
PAIRS_PP = [
    (33.0, 49.3),   # gasoline
    (27.0, 37.0),   # ethanol/refining
    (18.0, 22.0),   # financial services
    (14.0, 16.3),   # restaurants, hotels
    (20.0, 25.0),   # uniform-VAT benchmark
    (27.5, 37.9),   # reference rate
]


@pytest.mark.parametrize("inside_pp,outside_pp", PAIRS_PP)
def test_published_rate_pairs(inside_pp, outside_pp):
    got = to_outside(Rate.inside(inside_pp / 100.0))
    assert got.basis is RateBasis.OUTSIDE
    assert abs(got.value * 100.0 - outside_pp) <= 0.1

    back = to_inside(Rate.outside(outside_pp / 100.0))
    assert abs(back.value * 100.0 - inside_pp) <= 0.1


def test_exact_anchor_values():
    # 0.20/0.80 = 0.25 and 0.25/1.25 = 0.20 exactly in binary floats
    assert to_outside(Rate.inside(0.20)).value == 0.25
    assert to_inside(Rate.outside(0.25)).value == 0.20
    # 0.33/0.67 = 0.4925373134328358...
    assert to_outside(Rate.inside(0.33)).value == pytest.approx(0.4925373134328358, abs=1e-15)
    # 0.275/0.725 = 0.3793103448275862...
    assert to_outside(Rate.inside(0.275)).value == pytest.approx(0.3793103448275862, abs=1e-15)
    # 0.51/1.51 = 0.33774834437086093
    assert to_inside(Rate.outside(0.51)).value == pytest.approx(0.33774834437086093, abs=1e-15)


def test_conversions_are_idempotent_on_matching_basis():
    r_in = Rate.inside(0.2)
    r_out = Rate.outside(0.25)
    assert to_inside(r_in) == r_in
    assert to_outside(r_out) == r_out


def test_round_trip_precision():
    rng = random.Random(7)
    for _ in range(500):
        t = rng.uniform(0.0, 0.95)
        back = to_inside(to_outside(Rate.inside(t))).value
        assert math.isclose(back, t, rel_tol=0, abs_tol=1e-12)
        u = rng.uniform(0.0, 4.0)
        back = to_outside(to_inside(Rate.outside(u))).value
        assert math.isclose(back, u, rel_tol=1e-12, abs_tol=1e-12)


def test_to_outside_monotone_and_convex():
    # t/(1-t) is strictly increasing and convex on [0, 1)
    rng = random.Random(11)
    for _ in range(200):
        a = rng.uniform(0.0, 0.9)
        b = rng.uniform(0.0, 0.9)
        lo, hi = min(a, b), max(a, b)
        f_lo = to_outside(Rate.inside(lo)).value
        f_hi = to_outside(Rate.inside(hi)).value
        if hi > lo:
            assert f_hi > f_lo
        mid = to_outside(Rate.inside((lo + hi) / 2.0)).value
        assert mid <= (f_lo + f_hi) / 2.0 + 1e-15


def test_outside_dominates_inside():
    # for t > 0, the outside quote always exceeds the inside quote
    for t in (0.01, 0.1, 0.275, 0.6, 0.9):
        assert to_outside(Rate.inside(t)).value > t
        assert to_inside(Rate.outside(t)).value < t
    assert to_outside(Rate.inside(0.0)).value == 0.0


def test_compose_selective_value():
    # (1 + 0.19)(1 + 0.379) - 1 = 0.64101
    got = compose_selective(Rate.outside(0.19), Rate.outside(0.379))
    assert got.basis is RateBasis.OUTSIDE
    assert got.value == pytest.approx(0.64101, abs=1e-12)


def test_selective_rule_compounds_like_the_oracle():
    # IS 19% and VAT 37.9%, both outside: 1.19 * 1.379 - 1 = 0.64101 outside
    selective = TaxTreatment(TreatmentKind.SELECTIVE, is_rate=Rate.outside(0.19), vat_fraction=1.0)
    oracle = to_inside(compose_selective(Rate.outside(0.19), Rate.outside(0.379))).value
    assert inside_rate_function(selective)(0.379).hex() == oracle.hex()
    assert oracle == pytest.approx(0.64101 / 1.64101, abs=1e-12)


def test_compose_selective_symmetry_and_superadditivity():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, 1.0)
        ab = compose_selective(Rate.outside(a), Rate.outside(b)).value
        ba = compose_selective(Rate.outside(b), Rate.outside(a)).value
        assert math.isclose(ab, ba, rel_tol=1e-15, abs_tol=1e-15)
        # compounding on the outside basis beats plain addition
        assert ab >= a + b - 1e-15
    zero = compose_selective(Rate.outside(0.0), Rate.outside(0.3)).value
    assert zero == pytest.approx(0.3, abs=1e-15)


def test_compose_selective_requires_outside_basis():
    with pytest.raises(ValueError, match="outside"):
        compose_selective(Rate.inside(0.19), Rate.outside(0.379))
    with pytest.raises(ValueError, match="outside"):
        compose_selective(Rate.outside(0.19), Rate.inside(0.275))


def test_apply_fraction():
    got = apply_fraction(0.4, Rate.outside(0.379))
    assert got.basis is RateBasis.OUTSIDE
    assert got.value == pytest.approx(0.1516, abs=1e-12)
    # fraction 1 is the identity
    assert apply_fraction(1.0, Rate.outside(0.379)).value == 0.379


def test_reduced_rule_is_a_fraction_of_the_outside_rate_like_the_oracle():
    # 40% of the 37.9% outside reference rate: 0.1516 outside
    reduced = TaxTreatment(TreatmentKind.REDUCED_FRACTION, fraction=0.4)
    oracle = to_inside(apply_fraction(0.4, Rate.outside(0.379))).value
    assert inside_rate_function(reduced)(0.379).hex() == oracle.hex()
    assert oracle == pytest.approx(0.1516 / 1.1516, abs=1e-12)


def test_apply_fraction_rejects_bad_inputs():
    with pytest.raises(ValueError, match="fraction"):
        apply_fraction(0.0, Rate.outside(0.3))
    with pytest.raises(ValueError, match="fraction"):
        apply_fraction(1.5, Rate.outside(0.3))
    with pytest.raises(ValueError, match="outside"):
        apply_fraction(0.4, Rate.inside(0.3))


def test_rate_validation():
    with pytest.raises(ValueError):
        Rate.inside(-0.1)
    with pytest.raises(ValueError):
        Rate.outside(-0.01)
    with pytest.raises(ValueError, match="inside"):
        Rate.inside(1.0)  # would consume the whole price
    with pytest.raises(ValueError):
        Rate.inside(float("nan"))
    with pytest.raises(ValueError, match="finite"):
        Rate.outside(float("inf"))
    with pytest.raises(ValueError):
        Rate.outside(float("-inf"))
    # outside rates above 100% are legitimate (e.g. composed excises)
    assert Rate.outside(1.5).value == 1.5


def test_doctests():
    failures, _ = doctest.testmod(rates_module)
    assert failures == 0
