"""Physical model of a rotating fiber coil.

Provides the rotation-induced phase between counter-propagating beams in a
multi-loop circular fiber coil, the fiber transmission model, the time
factor ``T`` relating phase to angular velocity (``Omega = 2 phi / T``), and
the conversion from decibels of quadrature squeezing to mean photon number.

Units: optical wavelength in nanometers, coil radius in meters, fiber
length in kilometers at the API boundary (converted internally), angular
rates in rad/s.
"""

from __future__ import annotations

import math
import warnings

#: Speed of light in vacuum (m/s).
C_LIGHT = 299_792_458.0

#: First-order validity threshold for r * |Omega| / c.
REGIME_THRESHOLD = 1e-3

_KM = 1000.0


class RotationRegimeWarning(UserWarning):
    """Raised when a requested rotation rate strains the first-order phase model."""


def _coil(length_km: float, wavelength_nm: float, radius_m: float) -> tuple[float, float, float]:
    """Optical frequency omega (rad/s), loop area pi r^2 (m^2) and time factor T (s).

    Names the input that is not positive and finite, and rejects by its radius
    and wavelength a coil whose omega, area or T leaves floating-point range.
    """
    inputs = {"coil fiber length": length_km, "wavelength": wavelength_nm, "coil radius": radius_m}
    for name, value in inputs.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    try:
        omega = 2.0 * math.pi * C_LIGHT / (wavelength_nm * 1e-9)
        area = math.pi * radius_m**2
        t = 4.0 * omega * (length_km * _KM) * area / (2.0 * math.pi * radius_m * C_LIGHT**2)
    except (OverflowError, ZeroDivisionError):
        t = math.nan
    # An omega or area out of range leaves T zero, infinite or NaN.
    if not 0.0 < t < math.inf:
        raise ValueError(
            f"coil radius {radius_m} m and wavelength {wavelength_nm} nm put the time "
            f"factor of {length_km} km of fiber out of floating-point range"
        )
    return omega, area, t


def sagnac_phase(
    length_km: float, rotation_rate: float, wavelength_nm: float, radius_m: float
) -> float:
    """Relative phase between counter-propagating beams under rotation.

    delta_phi = 4 * omega * m * A * Omega / c^2 with m = L / (2 pi r) loops of
    fiber.  Linear in both the fiber length and the rotation rate; valid to
    first order in r * Omega / c (a warning is emitted outside that regime).
    """
    omega, area, _ = _coil(length_km, wavelength_nm, radius_m)
    if radius_m * abs(rotation_rate) / C_LIGHT > REGIME_THRESHOLD:
        warnings.warn(
            "rotation rate outside the first-order (slow rotation) regime",
            RotationRegimeWarning,
            stacklevel=2,
        )
    loops = length_km * _KM / (2.0 * math.pi * radius_m)
    return 4.0 * omega * loops * area * rotation_rate / C_LIGHT**2


def transmissivity(b: float, length_km: float) -> float:
    """Fiber transmissivity 10^(-b L / 10) for loss ``b`` dB/km over L km.

    Zero loss or zero length transmits everything; a negative or non-finite
    loss coefficient or fiber length is named.
    """
    for name, value in (("loss coefficient", b), ("fiber length", length_km)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")
    return 10.0 ** (-b * length_km / 10.0)


def time_factor(length_km: float, wavelength_nm: float, radius_m: float) -> float:
    """Phase-to-rate conversion time T (s) of a circular coil: delta_phi = T * Omega.

    T = 4 * omega * L * A / (2 pi r c^2) with L in meters and A = pi r^2.
    """
    return _coil(length_km, wavelength_nm, radius_m)[2]


def db_to_photons(sigma_db: float) -> float:
    """Mean photon number of squeezed vacuum with ``sigma_db`` dB of noise reduction.

    N_s = sinh^2(sigma * ln(10) / 20).  Infinity maps to infinity, which the
    analytic layer treats as the explicit infinite-squeezing limit.
    """
    if sigma_db < 0:
        raise ValueError("squeezing in dB must be nonnegative")
    if math.isinf(sigma_db):
        return math.inf
    try:
        return math.sinh(sigma_db * math.log(10.0) / 20.0) ** 2
    except OverflowError:
        raise ValueError(
            f"{sigma_db} dB of squeezing overflows the squeezed photon number; "
            "use 'inf' for the infinite-squeezing limit"
        ) from None
