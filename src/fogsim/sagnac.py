"""Physical model of a rotating fiber coil.

Provides the rotation-induced phase between counter-propagating beams in a
multi-loop fiber coil, the fiber transmission model, the time factor ``T``
relating phase to angular velocity (``Omega = 2 phi / T``), and conversions
between decibels of quadrature squeezing and mean photon number.

Units: coil radius and loop area in meters, fiber length in kilometers at
the API boundary (converted internally), angular rates in rad/s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

#: Speed of light in vacuum (m/s).
C_LIGHT = 299_792_458.0

#: First-order validity threshold for r * |Omega| / c.
REGIME_THRESHOLD = 1e-3

_KM = 1000.0


class RotationRegimeWarning(UserWarning):
    """Raised when a requested rotation rate strains the first-order phase model."""


@dataclass(frozen=True)
class GyroGeometry:
    """Physical constants of the sensing coil.

    ``omega`` is the optical center frequency (rad/s), ``radius`` the coil
    radius (m), and ``area_projection`` the projection of the directed
    single-loop area onto the rotation axis (m^2).
    """

    omega: float
    radius: float
    area_projection: float
    c: float = field(default=C_LIGHT)

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ValueError("optical frequency must be positive")
        if self.radius <= 0:
            raise ValueError("coil radius must be positive")
        if self.area_projection <= 0:
            raise ValueError("projected loop area must be positive")

    @classmethod
    def from_wavelength(
        cls,
        wavelength_m: float = 1550e-9,
        radius: float = 0.05,
        area_projection: float | None = None,
    ) -> "GyroGeometry":
        """Geometry for a circular coil read at the given optical wavelength.

        Defaults to a 5 cm circular coil; the projected area then equals
        pi * radius^2 (rotation axis normal to the loops).
        """
        if wavelength_m <= 0:
            raise ValueError("wavelength must be positive")
        if area_projection is None:
            area_projection = math.pi * radius**2
        omega = 2.0 * math.pi * C_LIGHT / wavelength_m
        return cls(omega=omega, radius=radius, area_projection=area_projection)


def loop_count(geom: GyroGeometry, length_km: float) -> float:
    """Number of fiber loops wound from ``length_km`` of fiber."""
    return length_km * _KM / (2.0 * math.pi * geom.radius)


def sagnac_phase(geom: GyroGeometry, length_km: float, rotation_rate: float) -> float:
    """Relative phase between counter-propagating beams under rotation.

    delta_phi = 4 * omega * m * (A . n) * Omega / c^2 with m loops of fiber.
    Linear in both the fiber length and the rotation rate; valid to first
    order in r * Omega / c (a warning is emitted outside that regime).
    """
    if length_km <= 0:
        raise ValueError("fiber length must be positive")
    if geom.radius * abs(rotation_rate) / geom.c > REGIME_THRESHOLD:
        warnings.warn(
            "rotation rate outside the first-order (slow rotation) regime",
            RotationRegimeWarning,
            stacklevel=2,
        )
    m = loop_count(geom, length_km)
    return 4.0 * geom.omega * m * geom.area_projection * rotation_rate / geom.c**2


def transmissivity(b: float, length_km: float) -> float:
    """Fiber transmissivity 10^(-b L / 10) for loss ``b`` dB/km over L km.

    Unchecked: a negative ``b`` or length gives a value above 1, which the
    variance and circuit layers reject.
    """
    return 10.0 ** (-b * length_km / 10.0)


def time_factor(geom: GyroGeometry, length_km: float) -> float:
    """Phase-to-rate conversion time T (s): delta_phi = T * Omega.

    T = 4 * omega * L * (A . n) / (2 pi r c^2) with L in meters.
    """
    if length_km <= 0:
        raise ValueError("fiber length must be positive")
    return (
        4.0
        * geom.omega
        * (length_km * _KM)
        * geom.area_projection
        / (2.0 * math.pi * geom.radius * geom.c**2)
    )


def velocity_scale(geom: GyroGeometry) -> float:
    """Length-to-time ratio V = L / T in km/s; independent of fiber length."""
    return math.pi * geom.radius * geom.c**2 / (
        2.0 * geom.omega * geom.area_projection
    ) / _KM


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


def photons_to_db(n_s: float) -> float:
    """Inverse of ``db_to_photons``; exact round trip for finite inputs."""
    if n_s < 0:
        raise ValueError("squeezed photon number must be nonnegative")
    if math.isinf(n_s):
        return math.inf
    return 20.0 * math.asinh(math.sqrt(n_s)) / math.log(10.0)
