"""Arithmetic for the two Brazilian tax-rate conventions.

Brazilian indirect taxes are quoted on two bases:

* "por dentro" (inside): tax as a fraction of the tax-inclusive price.
* "por fora" (outside): tax as a fraction of the tax-exclusive price.

The conventions are linked by ``t_in = t_out / (1 + t_out)`` and
``t_out = t_in / (1 - t_in)``.  The Selective Tax (IS) is levied before the
VAT and enters the VAT base, so the combined burden of an IS good compounds
multiplicatively instead of adding up.

All functions are pure and operate on immutable :class:`Rate` values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class RateBasis(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Rate:
    """A dimensionless ad-valorem tax rate with an explicit basis.

    Inside rates live in [0, 1): an inside rate of 1 would mean the tax
    consumes the entire price.  Outside rates only need to be finite and non-negative.
    """

    value: float
    basis: RateBasis

    def __post_init__(self) -> None:
        if not isinstance(self.basis, RateBasis):
            raise ValueError(f"rate basis must be a RateBasis, got {self.basis!r}")
        v = float(self.value)
        if v != v:  # NaN
            raise ValueError("rate value must not be NaN")
        if v == math.inf:
            raise ValueError(f"rate value must be finite, got {v}")
        if v < 0.0:
            raise ValueError(f"rate value must be non-negative, got {v}")
        if self.basis is RateBasis.INSIDE and v >= 1.0:
            raise ValueError(
                f"inside rate must be < 1 (the tax cannot consume the whole price), got {v}"
            )
        object.__setattr__(self, "value", v)

    @classmethod
    def inside(cls, value: float) -> "Rate":
        return cls(value, RateBasis.INSIDE)

    @classmethod
    def outside(cls, value: float) -> "Rate":
        return cls(value, RateBasis.OUTSIDE)


def to_outside(r: Rate) -> Rate:
    """Convert a rate to the tax-exclusive ("por fora") basis.

    >>> round(to_outside(Rate.inside(0.33)).value, 4)   # gasoline: 33% -> 49.3%
    0.4925
    >>> round(to_outside(Rate.inside(0.275)).value, 4)  # 27.5% -> 37.9%
    0.3793
    >>> to_outside(Rate.inside(0.0)).value
    0.0
    """
    if r.basis is RateBasis.OUTSIDE:
        return r
    return Rate(r.value / (1.0 - r.value), RateBasis.OUTSIDE)


def to_inside(r: Rate) -> Rate:
    """Convert a rate to the tax-inclusive ("por dentro") basis.

    >>> to_inside(Rate.outside(0.25)).value             # public transport: 25% -> 20%
    0.2
    >>> round(to_inside(Rate.outside(0.22)).value, 4)   # financial services: 22% -> ~18%
    0.1803
    """
    if r.basis is RateBasis.INSIDE:
        return r
    return Rate(r.value / (1.0 + r.value), RateBasis.INSIDE)


def compose_selective(t_is: Rate, t_vat: Rate) -> Rate:
    """Combined outside rate of a good bearing the Selective Tax plus the VAT.

    The IS is part of the VAT base, so on a unit pre-tax price the consumer
    pays ``(1 + t_is) * (1 + t_vat)``; the combined rate is the product chain
    minus one, strictly greater than ``t_is + t_vat`` whenever both are
    positive.  Both arguments and the result are outside rates.

    >>> round(compose_selective(Rate.outside(0.19), Rate.outside(0.379)).value, 5)
    0.64101
    """
    if t_is.basis is not RateBasis.OUTSIDE or t_vat.basis is not RateBasis.OUTSIDE:
        raise ValueError("compose_selective expects outside rates; convert first")
    return Rate((1.0 + t_is.value) * (1.0 + t_vat.value) - 1.0, RateBasis.OUTSIDE)


def apply_fraction(fraction: float, t_ref: Rate) -> Rate:
    """Reduced legal rate: ``fraction`` of the outside reference rate.

    Statutory reductions (40%, 70% of the reference rate) apply to the legal,
    tax-exclusive rate; conversion to the inside basis happens afterwards,
    when the rate is applied to expenditure.

    >>> apply_fraction(0.4, Rate.outside(0.379)).value
    0.1516
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"rate fraction must be in (0, 1], got {fraction}")
    if t_ref.basis is not RateBasis.OUTSIDE:
        raise ValueError("apply_fraction expects an outside reference rate")
    return Rate(fraction * t_ref.value, RateBasis.OUTSIDE)
