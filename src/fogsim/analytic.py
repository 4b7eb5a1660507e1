"""Closed-form sensitivity expressions and their optimizers.

Covers the rotation-estimator variances of designs C, S, D, P, E, the
optimal laser/squeezer energy split, the optimal fiber length for each
design and the optimal interferometer count under a total-fiber-length
constraint (both via one Lambert-W stationarity exponent), and the
quantum-over-classical sensitivity ratios with their infinite-squeezing limits.

Normalization conventions
-------------------------
Raw estimator variances carry units rad^2/s^2 and take the per-
interferometer time factor ``T`` explicitly.  Length-resolved quantities
are reported "normalized": multiplied by n_v / V^2 where ``n_v`` is the
per-fiber laser photon budget and ``V = L / T`` the (length-independent)
length-to-time ratio of the coil geometry.  Normalized variances have units
1/km^2 and depend only on the fiber loss coefficient, lengths, the
interferometer count, and the squeezed photon number.

Infinite squeezing is supported as ``math.inf`` photons.  Only the
stationarity exponent :func:`_exponent` takes explicit limits, since its
argument would form inf - inf; everywhere else IEEE arithmetic gives the
limit, as 1 / inf = 0 in the squeezing factors.
"""

import math
import sys
from collections import namedtuple
from collections.abc import Callable

from .sagnac import DOMAIN

LN10 = math.log(10.0)

#: Branch point of the principal Lambert-W branch.
_W_BRANCH = -math.exp(-1.0)

#: Absolute residual tolerance of :func:`lambert_w0` on [-1/e, 0].
W_RESIDUAL_TOL = 1e-13


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def _w_branch_series(p: float) -> float:
    # Expansion around the branch point in p = sqrt(2 (1 + e x)).
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x on [-1/e, 0], where every exponent's argument lies.

    Halley iteration from the branch-point series, which approaches the root
    from below and so needs no bracket.  The residual |w e^w - x| is at most
    1e-13.  An argument outside [-1/e, 0] is rejected.
    """
    if math.isnan(x):
        raise ValueError("lambert_w0 argument must be a number")
    if x > 0.0:
        raise ValueError(f"lambert_w0 argument {x} above 0, outside the solved range [-1/e, 0]")
    if x < _W_BRANCH - 1e-12:
        raise ValueError(f"lambert_w0 argument {x} below the branch point -1/e")
    x = max(x, _W_BRANCH)
    if x == 0.0:
        return 0.0

    p = math.sqrt(max(2.0 * (1.0 + math.e * x), 0.0))
    w = _w_branch_series(p)
    if p < 1e-4:
        # So close to the branch point that the series is already exact to
        # double precision and Halley would divide by a vanishing slope.
        return w
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 0.1 * W_RESIDUAL_TOL:
            return w
        fp = ew * (1.0 + w)
        w -= f / (fp - 0.5 * f * (ew * (2.0 + w)) / fp)
    raise ArithmeticError(f"lambert_w0 failed to converge for x = {x}")


# ---------------------------------------------------------------------------
# The stationarity exponent
# ---------------------------------------------------------------------------

def _exponent(k: int, n_squeezed: float, m: int = 1) -> float:
    """u - k = W(k (q - 1) / e^k), at the root of (u - k) e^u = k (q - 1).

    u = c L / M is one coil's loss exponent and q the squeezed fraction of
    :func:`_quantum_term`: q - 1 = 2 (x - sqrt(x (M + x))) / M for M squeezers
    sharing ``n_squeezed`` = x.  k = 2 makes the length stationary at fixed M
    (M = 1 for designs S and E), k = 1 the count at fixed total length (M = 1).
    Infinite squeezing gives W(-2/e^2) = -0.4064 for k = 2, the branch point -1 for k = 1.
    """
    if DOMAIN.check("n_squeezed", n_squeezed) == math.inf:
        return lambert_w0(-2.0 / math.e**2) if k == 2 else -1.0
    x = n_squeezed
    return lambert_w0(2.0 * k * (x - math.sqrt(x * (m + x))) / (m * math.e**k))


# ---------------------------------------------------------------------------
# Estimator variances (fixed transmissivity)
# ---------------------------------------------------------------------------

def classical_variance(time_factor_s: float, eta: float, n_photons: float) -> float:
    """Rotation-estimator variance of the laser-only single interferometer."""
    DOMAIN.check("eta", eta)
    DOMAIN.check("time_factor_s", time_factor_s)
    DOMAIN.check("n_total", n_photons)
    square = time_factor_s * time_factor_s
    try:
        # Scaled by 2^1000, exactly, a subnormal T^2 eta keeps its bits and stays below 2^-22.
        scale = 2.0**1000 if square * eta < sys.float_info.min else 1.0
        variance = 1.0 / (square * (eta * scale) * n_photons) * scale
    except ZeroDivisionError:
        variance = 0.0
    # Float arithmetic rounds a variance out of range to inf, 0.0 or a subnormal; only a T^2 eta n
    # of 0.0 raises.
    return DOMAIN.result(
        variance, "time factor {} s puts the variance out of floating-point range "
        "(transmissivity {}, {} photons)", time_factor_s, eta, n_photons,
    )


def _quantum_term(variant: str, n_squeezed: float, m: float, eta: float = 1.0) -> float:
    """eta * q, with q the squeezed fraction of the vacuum noise at the read port.

    q is 1 for designs C and D, 1 / (sqrt(1 + N_s) + sqrt(N_s))^2 = 10^(-sigma/10)
    for S and E (the entangled probe keeps the full N_s whatever M), and
    M / (sqrt(M + N_s) + sqrt(N_s))^2 for the M squeezers of P sharing N_s.
    Every variance is the laser-only one times :func:`ratio_fixed_eta`.  ``m`` may
    be real.  Unchecked: its callers check the design, count and squeezing.
    """
    if variant in ("C", "D"):
        return eta
    if variant != "P":
        spread = math.sqrt(1.0 + n_squeezed) + math.sqrt(n_squeezed)
        return eta * (1.0 / (spread * spread))
    spread = math.sqrt(m + n_squeezed) + math.sqrt(n_squeezed)
    # Keep this evaluation order: eta * (m / ...) moves the last bit.
    return eta * m / (spread * spread)


def design_variance(
    variant: str,
    time_factor_s: float,
    eta: float,
    m: int = 1,
    n_v: float = 1.0,
    n_squeezed: float = 0.0,
) -> float:
    """Estimator variance of any design at fixed transmissivity.

    ``time_factor_s`` is the per-interferometer time factor and ``n_v`` the
    per-fiber laser photon budget (equal to the total for C and S).
    """
    DOMAIN.check_design(variant, m, n_squeezed)
    DOMAIN.check("n_v", n_v)
    variance = classical_variance(time_factor_s, eta, m * n_v)
    return DOMAIN.result(
        variance * ratio_fixed_eta(variant, eta, m, n_squeezed),
        "design {} with {} squeezed photons puts the variance out of floating-point range "
        "(transmissivity {}, time factor {} s)", variant, n_squeezed, eta, time_factor_s,
    )


# ---------------------------------------------------------------------------
# Length-resolved (normalized) variances
# ---------------------------------------------------------------------------

#: The largest length whose square ``length_km**2`` does not overflow.
_SQRT_MAX = math.sqrt(sys.float_info.max)

#: The error of a length-resolved variance, or of a count search, out of range: b, then L.
OUT_OF_RANGE = "loss coefficient {} dB/km and fiber length {} km put the variance out of floating-point range"


def variance_profile(
    variant: str, b: float, length_km: float, m: float, n_squeezed: float
) -> Callable[[float, float], float]:
    """:func:`variance_vs_length` of ``(length_km, m)``, its inputs checked once, here;
    ``length_km`` and ``m`` are only checked, as a representative point of the search."""
    DOMAIN.check("b_optimum", b)
    DOMAIN.check("length_optimum", length_km)
    DOMAIN.check_design(variant, m, n_squeezed)
    return lambda length, count: _variance(variant, b, length, count, n_squeezed)


def variance_vs_length(
    variant: str, b: float, length_km: float, m: float = 1, n_squeezed: float = 0.0
) -> float:
    """Normalized estimator variance (units 1/km^2) of any design.

    ``length_km`` is the total fiber budget, shared as L/M per
    interferometer, so the per-interferometer transmissivity is
    10^(-b L / (10 M)).  The same expression serves both the
    unconstrained-length optimization (minimize over L at fixed M) and the
    fixed-length optimization (minimize over M at fixed L, with M real for
    the continuous optimum).
    """
    variance = variance_profile(variant, b, length_km, m, n_squeezed)(length_km, m)
    return DOMAIN.result(variance, OUT_OF_RANGE, b, length_km)


def _variance(variant: str, b: float, length_km: float, m: float, n_squeezed: float) -> float:
    """The normalized variance, or inf where it overflows; raises nothing."""
    quantum = _quantum_term(variant, n_squeezed, m)
    try:
        excess = m * (quantum - 1.0 + math.exp(b * LN10 / 10.0 * length_km / m))
    except OverflowError:
        return math.inf
    # Where the square is subnormal or overflows, dividing twice by the length keeps its bits.
    if length_km <= _SQRT_MAX and (square := length_km**2) >= sys.float_info.min:
        return excess / square
    return excess / length_km / length_km


# ---------------------------------------------------------------------------
# Optima
# ---------------------------------------------------------------------------

#: A minimum ``value`` at ``x``, from a closed form (``iterations`` 0) or from
#: the golden-section search of :mod:`fogsim.optimize`, which counts its
#: contractions.
Optimum = namedtuple("Optimum", ("x", "value", "iterations"), defaults=(0,))


def optimal_energy_split(n_total: float, eta: float) -> Optimum:
    """Minimize the squeezed-design variance over the laser/squeezer split.

    ``x`` is the optimal squeezed photon number
    2 eta^2 N^2 / (1 + z + 2 eta N (2 - eta + z)), z = sqrt(1 + 4 eta (1 - eta) N), and
    the minimum variance is the cancellation-free (1 + 2 (1 - eta) N + z) / (2 eta N (N + 1)),
    which continues analytically to 1 / (N (N + 1)) at eta = 1.  Both are evaluated divided
    through by 2 eta N, so that no term overflows.  The variance is at unit time factor; it
    scales as 1 / T^2.
    """
    DOMAIN.check("n_total", n_total)
    DOMAIN.check("eta", eta)
    loss = 1.0 - eta
    z = math.sqrt(1.0 + 4.0 * eta * loss * n_total)
    tail = (1.0 + z) / 2.0 / n_total
    n_s = eta * n_total / (2.0 - eta + z + tail / eta)
    variance = (loss + tail) / (n_total + 1.0) / eta
    message = ("total photon number {} puts the {} of the optimal split out of floating-point "
               "range (transmissivity {})")
    variance = DOMAIN.result(variance, message, n_total, "variance", eta)
    return Optimum(DOMAIN.result(n_s, message, n_total, "squeezed photon number", eta), variance)


def optimal_length(
    variant: str, b: float, n_squeezed: float = 0.0, m: int = 1
) -> Optimum:
    """Total fiber length ``x`` minimizing the normalized estimator variance.

    Classical designs: L = 20 / (ln(10) b) (times M for the array), with
    variance e^2 ln(10)^2 b^2 / 400 per fiber budget.  Squeezed designs
    shorten the fiber through lam = :func:`_exponent` with k = 2:
    L = 10 (2 + lam) / (ln(10) b) and variance
    e^(2 + lam) ln(10)^2 b^2 / (200 (2 + lam)), again scaled by M for the
    arrays (with the per-port exponent for design P).  The variance is in
    units of V^-2 n_v (1/km^2 for unit geometry), per fiber photon budget,
    so for the distributed designs it is the single-interferometer value
    divided by M.
    """
    DOMAIN.check("b_optimum", b)
    DOMAIN.check_design(variant, m, n_squeezed)
    if variant in ("C", "D"):
        length = 20.0 / (LN10 * b)
        factor, divisor = math.e**2 * LN10**2, 400.0
    else:
        lam = _exponent(2, n_squeezed, m if variant == "P" else 1)
        length = 10.0 * (2.0 + lam) / (LN10 * b)
        factor, divisor = math.exp(2.0 + lam) * LN10**2, 200.0 * (2.0 + lam)
    variance = factor * (b * b) / divisor / m
    if variance == math.inf:
        # factor * b * b overflowed; dividing first, by m too, keeps every optimum that is a float.
        variance = b * (b * (factor / divisor / m))
    # A tiny loss overflows the length or leaves the variance subnormal; a huge one overflows it.
    return Optimum(
        DOMAIN.result(length * m, "loss coefficient {} dB/km puts the optimal fiber length out of "
                      "floating-point range", b),
        DOMAIN.result(variance, "loss coefficient {} dB/km puts the variance out of floating-point "
                      "range (optimal fiber length {} km per interferometer)", b, length),
    )


def optimal_m(
    variant: str, b: float, length_km: float, n_squeezed: float = 0.0
) -> Optimum:
    """Real interferometer count ``x`` minimizing the variance at fixed total length.

    M = c L / (1 + w) with normalized variance c e^(1 + w) / L, where
    c = b ln(10) / 10 and w = :func:`_exponent` with k = 1.  The laser-only
    array D is the entangled one without squeezing: w = 0, so M = c L and
    the variance is c e / L.  The integer count is left to
    :func:`fogsim.optimize.optimize_m_integer`.
    """
    DOMAIN.check("b_optimum", b)
    DOMAIN.check("length_optimum", length_km)
    if variant not in ("D", "E"):
        raise ValueError("closed-form count optimization covers designs D and E")
    DOMAIN.check_design(variant, 1, n_squeezed)
    if math.isinf(n_squeezed):
        raise ValueError(
            f"squeezed photon number {n_squeezed} has no finite continuous count "
            "optimum; evaluate the ratio limit instead"
        )
    c = b * LN10 / 10.0
    exponent = _exponent(1, n_squeezed)
    count = ("loss coefficient {} dB/km and fiber length {} km put the optimal interferometer "
             "count out of floating-point range")
    return Optimum(
        DOMAIN.result(c * length_km / (1.0 + exponent), count, b, length_km),
        DOMAIN.result(c * math.exp(1.0 + exponent) / length_km, OUT_OF_RANGE, b, length_km),
    )


# ---------------------------------------------------------------------------
# Sensitivity ratios against the matched classical baseline
# ---------------------------------------------------------------------------

def ratio_fixed_eta(variant: str, eta: float, m: int = 1, n_squeezed: float = 0.0) -> float:
    """Any design's variance over the laser-only one at fixed transmissivity, eta q + 1 - eta.

    Exactly 1 for C and D, with q as in :func:`_quantum_term`; tends to
    1 - eta with infinite squeezing.
    """
    DOMAIN.check("eta", eta)
    DOMAIN.check_design(variant, m, n_squeezed)
    quantum = _quantum_term(variant, n_squeezed, m, eta)
    # eta + 1 - eta is not exactly 1.0 in floating point.  (quantum + 1) - eta
    # is the grouping the pinned outputs hold; quantum + (1 - eta) cancels less.
    return 1.0 if variant in ("C", "D") else quantum + 1.0 - eta


def ratio_optimal_length(n_squeezed: float) -> float:
    """2 e^lam / (2 + lam) with lam = :func:`_exponent` for k = 2; limit 0.836."""
    lam = _exponent(2, n_squeezed)
    return 2.0 * math.exp(lam) / (2.0 + lam)


def ratio_optimal_m(n_squeezed: float) -> float:
    """e^w with w = :func:`_exponent` for k = 1; independent of b and L, limit 1/e."""
    return math.exp(_exponent(1, n_squeezed))
