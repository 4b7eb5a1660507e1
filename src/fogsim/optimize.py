"""Numeric optimization of fiber length and interferometer count.

Golden-section search over a bracketed scalar objective, with a coarse
pre-scan that guards the unimodality contract.  fogsim does not yet solve
the stationarity equation of the product design's fixed-length count (ROADMAP
item 10), so its integer search is the only route to that optimum; the length
and continuous-count searches check the closed-form optima of
:mod:`fogsim.analytic` independently.
"""

import math
import sys
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
    """Golden-section minimum of a unimodal objective on a bracket ``0 < lo < hi < inf``.

    ``lo`` must be a normal float, and any other bracket raises ValueError.  A
    64-sample pre-scan refines the bracket around the coarse minimum, so mild
    violations of unimodality away from the optimum are tolerated.  A quadratic
    polish, which forms no h**2, removes the sqrt(machine-epsilon) plateau that
    value comparisons leave around a smooth minimum.  Each contraction shrinks
    the bracket by the golden ratio whatever the objective returns, to no less
    than 1e-12 lo, so there are at most ceil(ln(1.01 w / (1e-12 lo)) / ln(1 / 0.618))
    contractions, w being twice the pre-scan step.  Deterministic.
    """
    outer_lo, outer_hi = problem.bracket
    if not sys.float_info.min <= outer_lo < outer_hi < math.inf:
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
    while hi - lo > _TOLERANCE * (lo + hi) / 2.0:
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
    relative sqrt(eps); fitting the local parabola can.  Steps that leave the
    bracket, meet a non-convex fit, or fail to keep the value from degrading are
    rejected, so non-smooth or boundary minima are returned unchanged.  ``value``
    is the objective at ``x``.  The stencil step is 1e-4 x, and no h**2 is formed.
    """
    best_x, best_value = x, value
    for _ in range(_POLISH_ROUNDS):
        h = 1e-4 * x
        if not (lo < x - 2.0 * h and x + 2.0 * h < hi):
            break
        f_m2 = objective(x - 2.0 * h)
        f_m1 = objective(x - h)
        f_p1 = objective(x + h)
        f_p2 = objective(x + 2.0 * h)
        difference = f_p1 - 2.0 * value + f_m1
        slope, curvature = -f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2, 12.0 * difference
        if not (math.isfinite(slope) and math.isfinite(curvature)):
            # Near the float maximum 2 value, 8 f or 12 difference overflows; f / value does not.
            f_m2, f_m1, f_p1, f_p2 = (f / value for f in (f_m2, f_m1, f_p1, f_p2))
            difference = f_p1 - 2.0 + f_m1
            slope, curvature = -f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2, 12.0 * difference
        if not difference > 0.0:
            break
        candidate = x - h * slope / curvature
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
    message = "loss coefficient {} dB/km puts the optimal fiber length out of floating-point range"
    bracket = (DOMAIN.result(0.1 * m / b, message, b), DOMAIN.result(40.0 * m / b, message, b))
    profile = analytic.variance_profile(variant, b, bracket[0], m, n_squeezed)
    problem = ScalarProblem(objective=lambda length: profile(length, m), bracket=bracket)
    optimum = minimize_scalar(problem)
    return optimum._replace(value=DOMAIN.result(
        optimum.value, "loss coefficient {} dB/km puts the variance out of floating-point range", b
    ))


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

    Exhaustive rather than rounding-based because fogsim solves no
    stationarity equation for the product design; the smallest count wins a tie.
    """
    if variant not in ("D", "P", "E"):
        raise ValueError("count optimization applies to the distributed designs")
    DOMAIN.check("m_max", m_max)
    profile = analytic.variance_profile(variant, b, length_km, 1, n_squeezed)
    best = analytic.Optimum(1, math.inf)
    for m in range(1, m_max + 1):
        if (value := profile(length_km, m)) < best.value:
            best = analytic.Optimum(m, value)
    return best._replace(value=DOMAIN.result(best.value, analytic.OUT_OF_RANGE, b, length_km))


def optimize_m_continuous(
    variant: str,
    b: float,
    length_km: float,
    n_squeezed: float = 0.0,
    m_hi: float = 1e5,
) -> analytic.Optimum:
    """Golden-section minimum over a continuous (real-valued) count."""
    profile = analytic.variance_profile(variant, b, length_km, m_hi, n_squeezed)
    problem = ScalarProblem(objective=lambda m: profile(length_km, m), bracket=(1.0, m_hi))
    optimum = minimize_scalar(problem)
    return optimum._replace(value=DOMAIN.result(optimum.value, analytic.OUT_OF_RANGE, b, length_km))
