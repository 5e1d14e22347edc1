"""Revenue-neutral reference-rate solving under cashback feedback.

The reference rate is the outside VAT rate at which the population's net tax
burden (gross tax minus cashback, over monetary in-denominator consumption)
hits a target share.  Cashback depends on the rate, so the full problem is a
fixed point: the solver alternates between computing cashback at the current
rate estimate and re-solving the rate with that cashback held fixed, until
the rate stops moving.  The inner solve is plain bisection; net revenue at
fixed cashback is strictly increasing in the rate whenever any spending sits
under the reference or a reduced fraction of it, so the bracket is safe.

The calculator's float rates are not range-checked, so every solve
evaluates ``engine.rate_vector`` at the rate it returns: a category whose
inside rate leaves [0, 1) there (an IS rate so large that the rate rounds to
1) is a ``ValueError`` naming the category.

Iteration counts, residuals, and a per-iteration trace are returned for
diagnostics; the trace's net_burden column re-evaluates cashback at that
iteration's own rate (the self-consistent burden), which converges to the
target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import IncidenceCalculator, rate_vector
from .microdata import Population
from .rates import Rate, to_inside
from .schedule import Schedule, with_removal

RATE_TOLERANCE = 1e-10  # bisection interval width, outside-rate units
FIXED_POINT_TOLERANCE = 1e-8  # |t_k - t_{k-1}| stopping rule
MAX_OUTER_ITERATIONS = 100
BRACKET_HI = 5.0
BRACKET_HI_MAX = 20480.0  # 5 * 2**12; doubling stops here


class SolverError(RuntimeError):
    """Numerical failure while solving for the reference rate."""


class UnreachableTargetError(SolverError):
    def __init__(self, target: float, lo_burden: float, hi_burden: float) -> None:
        super().__init__(
            f"target net burden {target:.6g} is unreachable: achievable range is "
            f"[{lo_burden:.6g}, {hi_burden:.6g}] over the rate bracket"
        )
        self.target = target
        self.achievable = (lo_burden, hi_burden)


class NonConvergenceError(SolverError):
    def __init__(self, message: str, trace: tuple["TraceRow", ...]) -> None:
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    t_ref_outside: float
    cashback_total: float
    net_burden: float  # self-consistent burden at this iteration's rate


@dataclass(frozen=True)
class SolveResult:
    t_ref: Rate  # outside
    t_ref_inside: Rate
    iterations: int  # outer re-solves after the initial cashback-free solve
    residual: float  # |achieved self-consistent net burden - target|
    cashback_total: float
    trace: tuple[TraceRow, ...]


def check_target(target: float) -> None:
    """A solve target must be in [0, 1); ``SolverError`` otherwise."""
    if not 0.0 <= target < 1.0:
        raise SolverError(f"target net burden must be in [0, 1), got {target}")


def _bisect(calc: IncidenceCalculator, fixed_cashback: float, target: float) -> float:
    """Rate at which burden(rate) - fixed cashback hits target; monotone bisection.

    A burden that is NaN fails every comparison, so it is refused with a
    ``SolverError`` rather than shrinking the bracket to 0.
    """
    def f(t: float) -> float:
        gap = calc.burden_with_fixed_cashback(t, fixed_cashback) - target
        if math.isnan(gap):
            raise SolverError(
                f"net burden at outside rate {t!r} is NaN: target {target:.6g} cannot be bracketed")
        return gap

    lo, hi = 0.0, BRACKET_HI
    f_lo = f(lo)
    if f_lo > 0.0:
        raise UnreachableTargetError(target, f_lo + target, f(BRACKET_HI_MAX) + target)
    if f_lo == 0.0:
        return lo
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > BRACKET_HI_MAX:
            raise UnreachableTargetError(target, f_lo + target, f(BRACKET_HI_MAX) + target)
    while hi - lo > RATE_TOLERANCE:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_rates(schedule: Schedule, t: float) -> None:
    """Every category's inside rate at ``t`` must be in [0, 1); ``effective_inside_rate``
    raises a ``ValueError`` naming the first that is not."""
    rate_vector(schedule, Rate.outside(t))


def solve_given_cashback(
    population: Population, schedule: Schedule, fixed_cashback: float, target: float
) -> Rate:
    """Reference rate hitting ``target`` with the cashback total held fixed."""
    check_target(target)
    calc = IncidenceCalculator(population, schedule)
    t = _bisect(calc, fixed_cashback, target)
    _check_rates(schedule, t)
    return Rate.outside(t)


def solve_with_cashback(population: Population, schedule: Schedule, target: float) -> SolveResult:
    """Self-consistent reference rate: cashback evaluated at the solved rate."""
    check_target(target)
    calc = IncidenceCalculator(population, schedule)

    def row(k: int, t: float) -> TraceRow:
        cashback = calc.cashback_total(t)  # evaluated once; the burden reuses it
        return TraceRow(k, t, cashback, calc.burden_with_fixed_cashback(t, cashback))

    t = _bisect(calc, 0.0, target)
    trace = [row(0, t)]
    for k in range(1, MAX_OUTER_ITERATIONS + 1):
        t_next = _bisect(calc, trace[-1].cashback_total, target)
        trace.append(row(k, t_next))
        moved = abs(t_next - t)
        t = t_next
        if moved < FIXED_POINT_TOLERANCE:
            _check_rates(schedule, t)
            return SolveResult(
                t_ref=Rate.outside(t),
                t_ref_inside=to_inside(Rate.outside(t)),
                iterations=k,
                residual=abs(trace[-1].net_burden - target),
                cashback_total=trace[-1].cashback_total,
                trace=tuple(trace),
            )
    raise NonConvergenceError(
        f"reference rate did not converge after {MAX_OUTER_ITERATIONS} iterations",
        tuple(trace),
    )


@dataclass(frozen=True)
class RateImpactRow:
    label: str
    selector: str  # empty for the anchor and cashback rows
    rate_outside: float
    delta_pp: float | None  # vs the cashback-free anchor, percentage points


def marginal_rate_impact(
    population: Population,
    schedule: Schedule,
    removals: list[str] | tuple[str, ...],
    target: float,
) -> tuple[RateImpactRow, ...]:
    """Rate consequences of stripping each favored treatment, one at a time.

    The anchor row is the cashback-free solved rate on the intact schedule;
    each removal row re-solves (still cashback-free) on the counterfactual
    schedule; the final row adds cashback back on the intact schedule.
    Deltas are in percentage points against the anchor, which is the first,
    cashback-free step of the self-consistent solve.
    """
    with_cb = solve_with_cashback(population, schedule, target)
    base_rate = with_cb.trace[0].t_ref_outside
    rows = [RateImpactRow("Alíquota de referência sem cashback", "", base_rate, None)]
    for selector in removals:
        counterfactual = with_removal(schedule, selector)
        rate = solve_given_cashback(population, counterfactual, 0.0, target).value
        rows.append(
            RateImpactRow(f"Sem {selector}", selector, rate, (rate - base_rate) * 100.0)
        )
    rows.append(
        RateImpactRow(
            "Alíquota de referência com cashback",
            "",
            with_cb.t_ref.value,
            (with_cb.t_ref.value - base_rate) * 100.0,
        )
    )
    return tuple(rows)
