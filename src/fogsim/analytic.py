"""Closed-form sensitivity expressions and their optimizers.

Covers the rotation-estimator variances of designs C, S, D, P, E, the
optimal laser/squeezer energy split, the optimal fiber length for each
design (via Lambert-W exponents), the optimal interferometer count under a
total-fiber-length constraint, and the quantum-over-classical sensitivity
ratios with their infinite-squeezing limits.

Normalization conventions
-------------------------
Raw estimator variances carry units rad^2/s^2 and take the per-
interferometer time factor ``T`` explicitly.  Length-resolved quantities
are reported "normalized": multiplied by n_v / V^2 where ``n_v`` is the
per-fiber laser photon budget and ``V = L / T`` the (length-independent)
length-to-time ratio of the coil geometry.  Normalized variances have units
1/km^2 and depend only on the fiber loss coefficient, lengths, the
interferometer count, and the squeezed photon number.

Infinite squeezing is supported as ``math.inf`` photons; the Lambert-W
exponents and ratios take their analytic limits rather than evaluating
hyperbolic functions at infinity.
"""

from __future__ import annotations

import math
from collections import namedtuple

LN10 = math.log(10.0)

#: Branch point of the principal Lambert-W branch.
_W_BRANCH = -math.exp(-1.0)

#: Residual tolerance of :func:`lambert_w0` relative to max(1, |x|).
W_RESIDUAL_TOL = 1e-13


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

def _w_branch_series(p: float) -> float:
    # Expansion around the branch point in p = sqrt(2 (1 + e x)).
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x, defined for x >= -1/e.

    Guarded Halley iteration from a regime-appropriate initial guess
    (branch-point series near -1/e, log asymptotics for large x), with a
    bisection fallback whenever a step leaves the current sign-change
    bracket.  The residual |w e^w - x| is at most 1e-13 * max(1, |x|).
    """
    if math.isnan(x):
        raise ValueError("lambert_w0 argument must be a number")
    if x < _W_BRANCH - 1e-12:
        raise ValueError(f"lambert_w0 argument {x} below the branch point -1/e")
    x = max(x, _W_BRANCH)
    if x == 0.0:
        return 0.0

    p_sq = 2.0 * (1.0 + math.e * x)
    p = math.sqrt(max(p_sq, 0.0))
    if p < 1e-4:
        # So close to the branch point that the series is already exact to
        # double precision and Halley would divide by a vanishing slope.
        return _w_branch_series(p)

    if x > math.e:
        log_x = math.log(x)
        w = log_x - math.log(log_x)
    else:
        w = _w_branch_series(p)

    # w e^w is increasing on [-1, inf); keep a sign-change bracket for safety.
    lo, hi = -1.0, max(1.0, w + 1.0)
    while hi * math.exp(hi) < x:
        hi *= 2.0
    w = min(max(w, lo), hi)

    tol = W_RESIDUAL_TOL * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 0.1 * tol:
            return w
        if f > 0.0:
            hi = w
        else:
            lo = w
        fp = ew * (1.0 + w)
        fpp = ew * (2.0 + w)
        denominator = fp - 0.5 * f * fpp / fp if fp != 0.0 else 0.0
        if denominator != 0.0:
            step = f / denominator
            candidate = w - step
        else:
            candidate = math.nan
        if not (lo < candidate < hi) or not math.isfinite(candidate):
            candidate = 0.5 * (lo + hi)
        if candidate == w:
            return w
        w = candidate
    if abs(w * math.exp(w) - x) > tol:
        raise ArithmeticError(f"lambert_w0 failed to converge for x = {x}")
    return w


# ---------------------------------------------------------------------------
# Squeezing helpers and Lambert-W exponents
# ---------------------------------------------------------------------------

def inverse_squeeze_factor(n_squeezed: float) -> float:
    """1 / (sqrt(1 + N_s) + sqrt(N_s))^2 = 10^(-sigma/10); 0 at infinite squeezing."""
    _check_squeezing(n_squeezed)
    if math.isinf(n_squeezed):
        return 0.0
    return 1.0 / (math.sqrt(1.0 + n_squeezed) + math.sqrt(n_squeezed)) ** 2


def length_exponent(n_squeezed: float, m: int = 1) -> float:
    """Lambert-W exponent governing the optimal fiber length.

    W(4 (x - sqrt(x (M + x))) / (M e^2)) for ``n_squeezed`` = x shared by M
    independent squeezers (design P); M = 1 is the single-squeezer exponent
    of designs S and E.  Lies in (W(-2/e^2), 0] and tends to
    W(-2/e^2) = -0.4064 as the squeezing grows.
    """
    _check_squeezing(n_squeezed)
    if m < 1:
        raise ValueError("interferometer count must be at least 1")
    if math.isinf(n_squeezed):
        return lambert_w0(-2.0 / math.e**2)
    x = n_squeezed
    return lambert_w0(4.0 * (x - math.sqrt(x * (m + x))) / (m * math.e**2))


def array_size_exponent(n_squeezed: float) -> float:
    """Lambert-W exponent governing the optimal interferometer count.

    W(2 (x - sqrt(x (1 + x))) / e) = W((1/g - 1) / e) with 1/g =
    inverse_squeeze_factor(x).  This is the exponent that actually solves the
    fixed-total-length stationarity condition d(variance)/dM = 0 for the
    entangled design: substituting u = c L / M gives
    (u - 1) e^(u - 1) = (1/g - 1)/e.  It runs from 0 (no squeezing) to -1
    (infinite squeezing), where the branch point of W is reached.
    """
    _check_squeezing(n_squeezed)
    if math.isinf(n_squeezed):
        return -1.0
    x = n_squeezed
    return lambert_w0(2.0 * (x - math.sqrt(x * (1.0 + x))) / math.e)


# ---------------------------------------------------------------------------
# Estimator variances (fixed transmissivity)
# ---------------------------------------------------------------------------

def classical_variance(time_factor_s: float, eta: float, n_photons: float) -> float:
    """Rotation-estimator variance of the laser-only single interferometer."""
    _check_positive(time_factor_s, "time factor")
    _check_eta(eta)
    _check_positive(n_photons, "photon number")
    try:
        return 1.0 / (time_factor_s**2 * eta * n_photons)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"time factor {time_factor_s} s puts the variance out of floating-point "
            f"range (transmissivity {eta}, {n_photons} photons)"
        ) from None


def _quantum_term(
    variant: str, n_squeezed: float, m: float, eta: float = 1.0
) -> float:
    """eta * q, with q the squeezed fraction of the vacuum noise at the read port.

    q is 1 for designs C and D, inverse_squeeze_factor(N_s) for S and E (the
    entangled probe keeps the full N_s whatever M), and
    M / (sqrt(M + N_s) + sqrt(N_s))^2 for the M squeezers of P sharing N_s.
    Every variance is the laser-only one times eta * q + 1 - eta.  ``m`` may
    be real.  All variant, count and squeezing checks happen here.
    """
    if m < 1:
        raise ValueError("interferometer count must be at least 1")
    if variant in ("C", "S") and m != 1:
        raise ValueError(f"design {variant} uses a single interferometer")
    if variant in ("C", "D"):
        if n_squeezed != 0:
            raise ValueError(f"design {variant} takes no squeezed light")
        return eta
    if variant in ("S", "E"):
        return eta * inverse_squeeze_factor(n_squeezed)
    if variant == "P":
        _check_squeezing(n_squeezed)
        if math.isinf(n_squeezed):
            return 0.0
        # Keep this evaluation order: eta * (m / ...) moves the last bit.
        return eta * m / (math.sqrt(m + n_squeezed) + math.sqrt(n_squeezed)) ** 2
    raise ValueError(f"unknown design variant {variant!r}")


def _with_loss(quantum: float, eta: float) -> float:
    """eta * q + 1 - eta, in the grouping the pinned outputs hold; q + (1 - eta) cancels less."""
    return quantum + 1.0 - eta


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
    classical = classical_variance(time_factor_s, eta, m * n_v)
    quantum = _quantum_term(variant, n_squeezed, m, eta)
    if variant in ("C", "D"):
        # eta + 1 - eta is not exactly 1.0 in floating point.
        return classical
    return classical * _with_loss(quantum, eta)


# ---------------------------------------------------------------------------
# Length-resolved (normalized) variances
# ---------------------------------------------------------------------------

def variance_vs_length(
    variant: str,
    b: float,
    length_km: float,
    m: float = 1,
    n_squeezed: float = 0.0,
) -> float:
    """Normalized estimator variance (units 1/km^2) of any design.

    ``length_km`` is the total fiber budget, shared as L/M per
    interferometer, so the per-interferometer transmissivity is
    10^(-b L / (10 M)).  The same expression serves both the
    unconstrained-length optimization (minimize over L at fixed M) and the
    fixed-length optimization (minimize over M at fixed L, with M real for
    the continuous optimum).
    """
    _check_positive(b, "loss coefficient")
    _check_positive(length_km, "fiber length")
    quantum = _quantum_term(variant, n_squeezed, m)
    inverse_eta = math.exp(b * LN10 / 10.0 * length_km / m)
    return m * (quantum - 1.0 + inverse_eta) / length_km**2


# ---------------------------------------------------------------------------
# Optimal energy split between laser and squeezer
# ---------------------------------------------------------------------------

#: Optimal allocation of a fixed photon budget between laser and squeezer.
EnergySplit = namedtuple("EnergySplit", ("n_squeezed", "variance"))


def optimal_energy_split(
    n_total: float, eta: float, time_factor_s: float = 1.0
) -> EnergySplit:
    """Minimize the squeezed-design variance over the laser/squeezer split.

    With z = sqrt(1 + 4 eta (1 - eta) N) the optimal squeezed photon number
    is 2 eta^2 N^2 / (1 + z + 2 eta N (2 - eta + z)).  The minimum variance
    is evaluated in the cancellation-free equivalent form
    (1 + 2 (1 - eta) N + z) / (2 T^2 eta N (N + 1)), which continues
    analytically to 1 / (T^2 N (N + 1)) at eta = 1.
    """
    _check_positive(n_total, "total photon number")
    _check_eta(eta)
    _check_positive(time_factor_s, "time factor")
    loss = 1.0 - eta
    z = math.sqrt(1.0 + 4.0 * eta * loss * n_total)
    n_s = (
        2.0 * eta**2 * n_total**2
        / (1.0 + z + 2.0 * eta * n_total * (2.0 - eta + z))
    )
    variance = (1.0 + 2.0 * loss * n_total + z) / (
        2.0 * time_factor_s**2 * eta * n_total * (n_total + 1.0)
    )
    return EnergySplit(n_squeezed=n_s, variance=variance)


# ---------------------------------------------------------------------------
# Optimal fiber length (unconstrained total length)
# ---------------------------------------------------------------------------

#: Optimal total fiber length and the normalized variance it achieves.
#: ``variance_normalized`` is in units of V^-2 n_v (1/km^2 for unit
#: geometry), i.e. per-fiber photon budget; for the distributed designs it
#: therefore equals the single-interferometer value divided by M.
LengthOptimum = namedtuple("LengthOptimum", ("length_km", "variance_normalized"))


def optimal_length(
    variant: str, b: float, n_squeezed: float = 0.0, m: int = 1
) -> LengthOptimum:
    """Fiber length minimizing the normalized estimator variance.

    Classical designs: L = 20 / (ln(10) b) (times M for the array), with
    variance e^2 ln(10)^2 b^2 / 400 per fiber budget.  Squeezed designs
    shorten the fiber through the length exponent lam:
    L = 10 (2 + lam) / (ln(10) b) and variance
    e^(2 + lam) ln(10)^2 b^2 / (200 (2 + lam)), again scaled by M for the
    arrays (with the per-port exponent for design P).
    """
    _check_positive(b, "loss coefficient")
    _quantum_term(variant, n_squeezed, m)  # argument checks only
    if variant in ("C", "D"):
        length = 20.0 / (LN10 * b)
        variance = math.e**2 * LN10**2 * b**2 / 400.0
    else:
        lam = length_exponent(n_squeezed, m if variant == "P" else 1)
        length = 10.0 * (2.0 + lam) / (LN10 * b)
        variance = math.exp(2.0 + lam) * LN10**2 * b**2 / (200.0 * (2.0 + lam))
    if variant in ("D", "P", "E"):
        length *= m
        variance /= m
    return LengthOptimum(length_km=length, variance_normalized=variance)


# ---------------------------------------------------------------------------
# Optimal interferometer count (fixed total length)
# ---------------------------------------------------------------------------

#: Continuous optimum of the interferometer count and its integer choice.
#: The integer is picked by evaluating the variance at the floor and the
#: ceiling of the continuous optimum and keeping the smaller;
#: ``below_threshold`` flags a continuous optimum under 1, in which case a
#: single interferometer is reported.
IntegerOptimum = namedtuple(
    "IntegerOptimum",
    ("continuous", "variance_continuous", "floor_candidate", "ceil_candidate",
     "variance_floor", "variance_ceil", "chosen", "variance_chosen", "below_threshold"),
    defaults=(False,),
)


def optimal_m(
    variant: str, b: float, length_km: float, n_squeezed: float = 0.0
) -> IntegerOptimum:
    """Interferometer count minimizing the variance at fixed total length.

    Laser-only array: M = b L ln(10) / 10 with normalized variance
    b e ln(10) / (10 L).  Entangled array: the denominator gains
    (1 + array_size_exponent(N_s)) and the variance the factor
    e^(array_size_exponent); at zero squeezing both reduce to the laser-only
    values.
    """
    _check_positive(b, "loss coefficient")
    _check_positive(length_km, "fiber length")
    c = b * LN10 / 10.0
    if variant == "D":
        if n_squeezed != 0:
            raise ValueError("design D takes no squeezed light")
        continuous = c * length_km
        variance_continuous = c * math.e / length_km
    elif variant == "E":
        if math.isinf(n_squeezed):
            raise ValueError(
                "the continuous optimum diverges at infinite squeezing; "
                "evaluate the ratio limit instead"
            )
        exponent = array_size_exponent(n_squeezed)
        continuous = c * length_km / (1.0 + exponent)
        variance_continuous = c * math.exp(1.0 + exponent) / length_km
    else:
        raise ValueError("closed-form count optimization covers designs D and E")

    below = continuous < 1.0
    floor_candidate = max(1, math.floor(continuous))
    ceil_candidate = max(1, math.ceil(continuous))
    variance_floor = variance_vs_length(variant, b, length_km, floor_candidate, n_squeezed)
    variance_ceil = variance_vs_length(variant, b, length_km, ceil_candidate, n_squeezed)
    if variance_floor <= variance_ceil:
        chosen, variance_chosen = floor_candidate, variance_floor
    else:
        chosen, variance_chosen = ceil_candidate, variance_ceil
    return IntegerOptimum(
        continuous=continuous,
        variance_continuous=variance_continuous,
        floor_candidate=floor_candidate,
        ceil_candidate=ceil_candidate,
        variance_floor=variance_floor,
        variance_ceil=variance_ceil,
        chosen=chosen,
        variance_chosen=variance_chosen,
        below_threshold=below,
    )


# ---------------------------------------------------------------------------
# Sensitivity ratios against the matched classical baseline
# ---------------------------------------------------------------------------

def ratio_fixed_eta(n_squeezed: float, eta: float) -> float:
    """eta / g + 1 - eta; tends to 1 - eta with infinite squeezing."""
    _check_eta(eta)
    return _with_loss(_quantum_term("S", n_squeezed, 1, eta), eta)


def ratio_product_fixed_eta(n_squeezed: float, eta: float, m: int) -> float:
    """Fixed-transmissivity ratio for the product design with a shared budget."""
    _check_eta(eta)
    return _with_loss(_quantum_term("P", n_squeezed, m, eta), eta)


def ratio_optimal_length(n_squeezed: float) -> float:
    """2 e^lam / (2 + lam) with lam the length exponent; limit 0.836."""
    lam = length_exponent(n_squeezed)
    return 2.0 * math.exp(lam) / (2.0 + lam)


def ratio_optimal_m(n_squeezed: float) -> float:
    """e^(array size exponent); independent of b and L, limit 1/e."""
    return math.exp(array_size_exponent(n_squeezed))


# ---------------------------------------------------------------------------
# Small argument checks
# ---------------------------------------------------------------------------

def _check_squeezing(n_squeezed: float) -> None:
    # Written so that NaN fails too.
    if not n_squeezed >= 0:
        raise ValueError("squeezed photon number must be nonnegative")


def _check_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1], got {eta}")
