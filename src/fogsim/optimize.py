"""Numeric optimization of fiber length, interferometer count, and energy split.

Golden-section search over a bracketed scalar objective, with a coarse
pre-scan that guards the unimodality contract.  Used both as a product
feature (the product design's fixed-length count optimization has no closed
form) and as the independent validation route for every closed-form optimum
in :mod:`fogsim.analytic`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

from . import analytic

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN_SAMPLES = 64
#: Golden-section stopping width, relative to the bracket's magnitude.
_TOLERANCE = 1e-12
_MAX_ITERATIONS = 200
_POLISH_ROUNDS = 2


class EvaluationError(ValueError):
    """The objective returned a non-finite value inside the bracket."""


class ConvergenceError(RuntimeError):
    """The iteration budget ran out before reaching the requested tolerance."""


# The package's one dataclass: the benchmark's tracer rebuilds a problem
# with ``dataclasses.replace`` to count objective evaluations.
@dataclass
class ScalarProblem:
    """One-dimensional minimization problem on a closed bracket."""

    objective: Callable[[float], float]
    bracket: tuple[float, float]


ScalarMinimum = namedtuple("ScalarMinimum", ("x", "value", "iterations"))


def _evaluate(objective: Callable[[float], float], x: float) -> float:
    try:
        value = float(objective(x))
    except ArithmeticError as exc:
        raise EvaluationError(f"objective cannot be evaluated at x = {x}: {exc}") from None
    if not math.isfinite(value):
        raise EvaluationError(f"objective is not finite at x = {x}: {value}")
    return value


def minimize_scalar(problem: ScalarProblem) -> ScalarMinimum:
    """Golden-section minimum of a unimodal objective on a bracket.

    A 64-sample pre-scan locates the coarse minimum and refines the bracket
    around it before the golden-section contraction, so mild violations of
    unimodality away from the optimum are tolerated.  A final quadratic
    polish removes the sqrt(machine-epsilon) plateau that pure value
    comparisons leave around a smooth minimum.  Deterministic.
    """
    outer_lo, outer_hi = problem.bracket
    if not (math.isfinite(outer_lo) and math.isfinite(outer_hi) and outer_lo < outer_hi):
        raise ValueError(f"invalid bracket {problem.bracket}")

    # Evenly spaced, ending exactly on outer_hi.
    step = (outer_hi - outer_lo) / _PRESCAN_SAMPLES
    xs = [i * step + outer_lo for i in range(_PRESCAN_SAMPLES)] + [outer_hi]
    values = [_evaluate(problem.objective, x) for x in xs]
    coarse = values.index(min(values))
    lo = xs[max(coarse - 1, 0)]
    hi = xs[min(coarse + 1, _PRESCAN_SAMPLES)]

    span = hi - lo
    c = hi - _GOLDEN * span
    d = lo + _GOLDEN * span
    fc = _evaluate(problem.objective, c)
    fd = _evaluate(problem.objective, d)
    iterations = 0
    while hi - lo > _TOLERANCE * max(1.0, abs(lo) + abs(hi)) / 2.0:
        if iterations >= _MAX_ITERATIONS:
            raise ConvergenceError(
                f"no convergence within {_MAX_ITERATIONS} iterations "
                f"(bracket width {hi - lo:.3e})"
            )
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = _evaluate(problem.objective, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = _evaluate(problem.objective, d)
        iterations += 1
    x = 0.5 * (lo + hi)
    value = _evaluate(problem.objective, x)
    x, value = _quadratic_polish(problem.objective, x, value, outer_lo, outer_hi)
    return ScalarMinimum(x=x, value=value, iterations=iterations)


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
    unchanged.
    """
    best_x, best_value = x, value
    for _ in range(_POLISH_ROUNDS):
        h = 1e-4 * max(abs(x), 1.0)
        if not (lo < x - 2.0 * h and x + 2.0 * h < hi):
            break
        f_m2 = _evaluate(objective, x - 2.0 * h)
        f_m1 = _evaluate(objective, x - h)
        f_center = _evaluate(objective, x)
        f_p1 = _evaluate(objective, x + h)
        f_p2 = _evaluate(objective, x + 2.0 * h)
        slope = (-f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2) / (12.0 * h)
        curvature = (f_p1 - 2.0 * f_center + f_m1) / h**2
        if not (math.isfinite(curvature) and curvature > 0.0):
            break
        step = slope / curvature
        candidate = x - step
        if not (lo < candidate < hi) or not math.isfinite(candidate):
            break
        x = candidate
        candidate_value = _evaluate(objective, candidate)
        if candidate_value <= best_value + abs(best_value) * 1e-9:
            best_x, best_value = candidate, min(candidate_value, best_value)
        else:
            break
    return best_x, best_value


# ---------------------------------------------------------------------------
# Fiber-length optimization
# ---------------------------------------------------------------------------

def optimize_length(
    variant: str,
    b: float,
    n_squeezed: float = 0.0,
    m: int = 1,
) -> ScalarMinimum:
    """Numerically minimize the normalized variance over the total fiber length."""
    analytic._check_positive(b, "loss coefficient")
    bracket = (0.1 * m / b, 40.0 * m / b)
    return minimize_scalar(
        ScalarProblem(
            objective=lambda length: analytic.variance_vs_length(
                variant, b, length, m, n_squeezed
            ),
            bracket=bracket,
        )
    )


# ---------------------------------------------------------------------------
# Interferometer-count optimization at fixed total length
# ---------------------------------------------------------------------------

#: Exhaustive integer search over the interferometer count.
#: ``profile`` holds (count, normalized variance) for every candidate.
CountSearchResult = namedtuple("CountSearchResult", ("m_best", "variance_best", "profile"))


def optimize_m_integer(
    variant: str,
    b: float,
    length_km: float,
    n_squeezed: float = 0.0,
    m_max: int = 64,
) -> CountSearchResult:
    """Evaluate the fixed-length variance for every count 1..m_max.

    Exhaustive rather than rounding-based because the product design's
    profile has no closed form.
    """
    if variant not in ("D", "P", "E"):
        raise ValueError("count optimization applies to the distributed designs")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    profile = [
        (m, analytic.variance_vs_length(variant, b, length_km, m, n_squeezed))
        for m in range(1, m_max + 1)
    ]
    m_best, variance_best = min(profile, key=lambda item: item[1])
    return CountSearchResult(m_best=m_best, variance_best=variance_best, profile=profile)


def optimize_m_continuous(
    variant: str,
    b: float,
    length_km: float,
    n_squeezed: float = 0.0,
    m_hi: float = 1e5,
) -> ScalarMinimum:
    """Golden-section minimum over a continuous (real-valued) count."""
    return minimize_scalar(
        ScalarProblem(
            objective=lambda m: analytic.variance_vs_length(
                variant, b, length_km, m, n_squeezed
            ),
            bracket=(1.0, m_hi),
        )
    )


# ---------------------------------------------------------------------------
# Energy split optimization
# ---------------------------------------------------------------------------

def optimize_energy_split_numeric(
    n_total: float, eta: float, time_factor_s: float = 1.0
) -> analytic.EnergySplit:
    """Golden-section split of a fixed photon budget between laser and squeezer."""
    if not n_total > 0:
        raise ValueError("total photon number must be positive")

    def objective(n_s: float) -> float:
        return analytic.design_variance(
            "S", time_factor_s, eta, 1, n_total - n_s, n_s
        )

    result = minimize_scalar(
        ScalarProblem(
            objective=objective,
            bracket=(0.0, n_total * (1.0 - 1e-9)),
        )
    )
    return analytic.EnergySplit(n_squeezed=result.x, variance=result.value)


# ---------------------------------------------------------------------------
# Numeric sensitivity ratios (independent route for the benchmark table)
# ---------------------------------------------------------------------------

def numeric_ratio_optimal_length(n_squeezed: float, b: float = 0.5) -> float:
    """Length-optimized quantum/classical ratio via golden-section, not W."""
    quantum = optimize_length("S", b, n_squeezed)
    classical = optimize_length("C", b)
    return quantum.value / classical.value


def numeric_ratio_optimal_m(
    n_squeezed: float, b: float = 0.5, length_km: float = 15.0
) -> float:
    """Count-optimized (continuous) quantum/classical ratio at fixed length."""
    quantum = optimize_m_continuous("E", b, length_km, n_squeezed)
    classical = optimize_m_continuous("D", b, length_km, 0.0)
    return quantum.value / classical.value
