"""Arithmetic for the two Brazilian tax-rate conventions.

Brazilian indirect taxes are quoted on two bases:

* "por dentro" (inside): tax as a fraction of the tax-inclusive price.
* "por fora" (outside): tax as a fraction of the tax-exclusive price.

The conventions are linked by ``t_in = t_out / (1 + t_out)`` and
``t_out = t_in / (1 - t_in)``.  How a treatment kind builds its rate from
the reference rate (reduced fractions, the compounding Selective Tax) is
``schedule.inside_rate_function``.

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
