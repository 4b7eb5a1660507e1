"""Numeric optimization of fiber length and interferometer count.

Golden-section search over a bracketed scalar objective, with a coarse
pre-scan that guards the unimodality contract.  The product design's
fixed-length count optimization has no closed form, so its integer search
is the only route to that optimum; the length and continuous-count searches
check the closed-form optima of :mod:`fogsim.analytic` independently.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from . import analytic
from .sagnac import DOMAIN

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN_SAMPLES = 64
#: Golden-section stopping width, relative to the bracket's magnitude.
_TOLERANCE = 1e-12
_POLISH_ROUNDS = 2


# The package's one dataclass: the benchmark's tracer rebuilds a problem
# with ``dataclasses.replace`` to count objective evaluations.
@dataclass
class ScalarProblem:
    """One-dimensional minimization problem on a closed bracket."""

    objective: Callable[[float], float]
    bracket: tuple[float, float]


def minimize_scalar(problem: ScalarProblem) -> analytic.Optimum:
    """Golden-section minimum of a unimodal objective on a bracket ``0 <= lo < hi < inf``.

    Any other bracket raises ValueError.  A 64-sample pre-scan refines the
    bracket around the coarse minimum, so mild violations of unimodality away
    from the optimum are tolerated.  A quadratic polish, which forms no h**2 and
    whose stencil follows the bracket's upper end below 1, removes the
    sqrt(machine-epsilon) plateau that value comparisons leave around a smooth
    minimum.  Each contraction shrinks the bracket by the golden ratio whatever
    the objective returns, so the count is at most ceil(ln(1.01 w / 5e-13) /
    ln(1 / 0.618)), with w twice the pre-scan step.  Deterministic.
    """
    outer_lo, outer_hi = problem.bracket
    if not 0.0 <= outer_lo < outer_hi < math.inf:
        raise ValueError(f"invalid bracket {problem.bracket}")

    # Evenly spaced, ending exactly on outer_hi.
    step = (outer_hi - outer_lo) / _PRESCAN_SAMPLES
    xs = [i * step + outer_lo for i in range(_PRESCAN_SAMPLES)] + [outer_hi]
    values = [problem.objective(x) for x in xs]
    coarse = values.index(min(values))
    lo = xs[max(coarse - 1, 0)]
    hi = xs[min(coarse + 1, _PRESCAN_SAMPLES)]

    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = problem.objective(c), problem.objective(d)
    iterations = 0
    while hi - lo > _TOLERANCE * max(1.0, lo + hi) / 2.0:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = problem.objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = problem.objective(d)
        iterations += 1
    x = 0.5 * (lo + hi)
    x, value = _quadratic_polish(problem.objective, x, problem.objective(x), outer_lo, outer_hi)
    return analytic.Optimum(x, value, iterations)


def _quadratic_polish(
    objective: Callable[[float], float],
    x: float,
    value: float,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Newton steps on a finite-difference derivative around a smooth minimum.

    Function-value comparisons cannot localize a quadratic minimum beyond a
    relative sqrt(eps); fitting the local parabola can.  Steps that leave
    the bracket, meet a non-convex fit, or fail to keep the value from
    degrading are rejected, so non-smooth or boundary minima are returned
    unchanged.  ``value`` is the objective at ``x``.  The stencil step is
    1e-4 of max(x, min(1, hi)), and no h**2 is formed to under- or overflow.
    """
    best_x, best_value = x, value
    for _ in range(_POLISH_ROUNDS):
        h = 1e-4 * max(x, min(1.0, hi))
        if not (lo < x - 2.0 * h and x + 2.0 * h < hi):
            break
        f_m2 = objective(x - 2.0 * h)
        f_m1 = objective(x - h)
        f_p1 = objective(x + h)
        f_p2 = objective(x + 2.0 * h)
        difference = f_p1 - 2.0 * value + f_m1
        if not difference > 0.0:
            break
        candidate = x - h * (-f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2) / (12.0 * difference)
        if not lo < candidate < hi:
            break
        x = candidate
        value = objective(candidate)
        if value <= best_value + abs(best_value) * 1e-9:
            best_x, best_value = candidate, min(value, best_value)
        else:
            break
    return best_x, best_value


# ---------------------------------------------------------------------------
# Fiber-length optimization
# ---------------------------------------------------------------------------

def optimize_length(
    variant: str, b: float, n_squeezed: float = 0.0, m: int = 1
) -> analytic.Optimum:
    """Numerically minimize the normalized variance over the total fiber length."""
    DOMAIN.check("b_optimum", b)
    bracket = (0.1 * m / b, 40.0 * m / b)
    if bracket[1] == math.inf:
        raise ValueError(
            f"loss coefficient {b} dB/km puts the optimal fiber length out of floating-point range"
        )
    profile = analytic.variance_profile(variant, b, bracket[0], m, n_squeezed)
    problem = ScalarProblem(objective=lambda length: profile(length, m), bracket=bracket)
    # The variance is unimodal in the length, so it peaks at the bracket's ends, the pre-scan's
    # first and last points; with the inputs checked, a rejection is the loss coefficient's.
    try:
        return minimize_scalar(problem)
    except ValueError:
        raise ValueError(
            f"loss coefficient {b} dB/km puts the variance out of floating-point range"
        ) from None


# ---------------------------------------------------------------------------
# Interferometer-count optimization at fixed total length
# ---------------------------------------------------------------------------

def optimize_m_integer(
    variant: str,
    b: float,
    length_km: float,
    n_squeezed: float = 0.0,
    m_max: int = 64,
) -> analytic.Optimum:
    """Integer count ``x`` minimizing the fixed-length variance over 1..m_max.

    Exhaustive rather than rounding-based because the product design's
    profile has no closed form; the smallest count wins a tie, and a count
    whose variance overflows is skipped unless every count does.
    """
    if variant not in ("D", "P", "E"):
        raise ValueError("count optimization applies to the distributed designs")
    DOMAIN.check("m_max", m_max)
    profile = analytic.variance_profile(variant, b, length_km, 1, n_squeezed)
    best = None
    for m in range(1, m_max + 1):
        try:
            value = profile(length_km, m)
        except ValueError as exc:
            overflow = exc
            continue
        if best is None or value < best.value:
            best = analytic.Optimum(m, value)
    if best is None:
        raise overflow
    return best


def optimize_m_continuous(
    variant: str,
    b: float,
    length_km: float,
    n_squeezed: float = 0.0,
    m_hi: float = 1e5,
) -> analytic.Optimum:
    """Golden-section minimum over a continuous (real-valued) count."""
    profile = analytic.variance_profile(variant, b, length_km, m_hi, n_squeezed)
    return minimize_scalar(
        ScalarProblem(objective=lambda m: profile(length_km, m), bracket=(1.0, m_hi))
    )
