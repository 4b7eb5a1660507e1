"""Gyroscope designs as explicit Gaussian circuits.

Five designs are modeled.  A single interferometer read by a laser ("C"),
the same with squeezed vacuum injected into the normally dark port ("S"),
and three distributed variants that split a fixed rotation measurement over
M parallel interferometers: laser only ("D"), one independent squeezer per
interferometer ("P"), and a single squeezer whose output is split into an
M-mode entangled probe ("E").

The circuit for M interferometers uses 2M modes, ordered as the M laser-side
modes followed by the M dark-side modes.  The laser enters side-a port 1 and
is distributed by a balanced splitter array; for design E a second array
distributes the squeezed vacuum on side b.  Each interferometer applies the
conjugate-phase map to its (a_j, b_j) pair, both arms suffer equal pure loss
``eta``, and a final array coalesces the b-side outputs so that a single
imaginary-quadrature homodyne on the symmetric port reads the rotation.

``build_and_run`` computes the readout exactly at arbitrary phase in the
Heisenberg picture: the row of the measured quadrature is propagated
backwards through the recombiner, the loss, the 4x4 phase block of each
interferometer and the input splitters, then contracted with the product
input state.  The splitter arrays are Householder reflections, applied as
rank-1 updates, so a run costs O(M) time and memory and no 4M x 4M matrix
is formed.  Each distinct single-mode input (coherent, vacuum, squeezed) is
built once by the :mod:`fogsim.gaussian` constructors, which check its
physicality; the passive maps and pure loss at eta in [0, 1] preserve it,
and the readout variance is checked to be positive and finite.  The dense
engine of :mod:`fogsim.gaussian`, which propagates the full covariance, is
the independent reference the tests compare this route against.
``homodyne_closed_form`` gives the direct single-interferometer, separable
and entangled formulas for every design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    HomodyneResult,
    VACUUM_VARIANCE,
    coherent_state,
    conjugate_phase_derivative,
    conjugate_phase_transform,
    squeezed_vacuum,
    vacuum_state,
)

VARIANTS = ("C", "S", "D", "P", "E")


class DegenerateConfigurationError(ValueError):
    """The configuration produces no usable rotation signal (zero mean slope)."""


@dataclass(frozen=True)
class DesignConfig:
    """One gyroscope design with its energy budget.

    ``n_v`` is the per-fiber laser mean photon number (total laser photons
    are ``m_interferometers * n_v``) and ``n_squeezed`` is the total mean
    photon number carried by squeezed vacuum: one source for designs S and
    E, one source per interferometer, sharing that total, for design P.
    """

    variant: str
    m_interferometers: int = 1
    n_v: float = 1.0
    n_squeezed: float = 0.0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if int(self.m_interferometers) != self.m_interferometers or self.m_interferometers < 1:
            raise ValueError("m_interferometers must be a positive integer")
        object.__setattr__(self, "m_interferometers", int(self.m_interferometers))
        if not (self.n_v > 0 and math.isfinite(self.n_v)):
            raise ValueError("per-fiber laser photon number must be positive and finite")
        if not (self.n_squeezed >= 0 and math.isfinite(self.n_squeezed)):
            raise ValueError("squeezed photon number must be finite and nonnegative")
        if self.variant in ("C", "D") and self.n_squeezed != 0:
            raise ValueError(f"design {self.variant} takes no squeezed light")
        if self.variant in ("C", "S") and self.m_interferometers != 1:
            raise ValueError(f"design {self.variant} uses a single interferometer")

    @property
    def m(self) -> int:
        return self.m_interferometers

    @property
    def total_laser_photons(self) -> float:
        return self.m_interferometers * self.n_v

    @property
    def amplitude(self) -> float:
        """Coherent amplitude alpha of the laser input (real, by convention)."""
        return math.sqrt(self.total_laser_photons)

    @property
    def per_port_squeezed(self) -> float:
        """Squeezed photons entering each interferometer port (design P)."""
        if self.variant == "P":
            return self.n_squeezed / self.m_interferometers
        return self.n_squeezed


@dataclass(frozen=True)
class CircuitResult:
    """Homodyne statistics and the rotation-estimator variance they imply.

    ``estimator_variance`` is in rad^2/s^2 for the supplied time factor;
    ``variance_normalized`` is the dimensionless product
    variance * T^2 * n_v.
    """

    homodyne: HomodyneResult
    slope: float
    estimator_variance: float
    variance_normalized: float

    def __post_init__(self) -> None:
        for name in ("estimator_variance", "variance_normalized"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                label = name.replace("_", " ")
                raise ValueError(f"{label} must be positive and finite, got {value}")


def _input_modes(config: DesignConfig) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariances of the product input state, mode by mode.

    Arrays are indexed [side, quadrature, (quadrature,) port], side 0 being
    the laser side, so that the port axis is contiguous.  Each distinct
    single-mode state is constructed (and so checked) once.
    """
    m = config.m
    vacuum = vacuum_state(1)
    laser = coherent_state(config.amplitude, 0.0)
    means = np.zeros((2, 2, m))
    covs = np.empty((2, 2, 2, m))
    covs[...] = vacuum.cov[..., None]
    means[0, :, 0] = laser.mean
    covs[0, :, :, 0] = laser.cov
    if config.variant in ("S", "E"):
        covs[1, :, :, 0] = squeezed_vacuum(config.n_squeezed, "im").cov
    elif config.variant == "P":
        covs[1] = squeezed_vacuum(config.per_port_squeezed, "im").cov[..., None]
    return means, covs


def _splitter_mix(v: np.ndarray) -> np.ndarray:
    """Mixing matrix of ``balanced_splitter_array(m)`` applied along the last axis.

    The matrix is the Householder reflection I - 2 w w^T / |w|^2 with
    w = e_1 - s (1, ..., 1) and s = 1/sqrt(m), so |w|^2 = 2 (1 - s) and
    the reflection is a rank-1 update costing O(m).  It is symmetric, so
    the same call propagates a readout row backwards.
    """
    m = v.shape[-1]
    if m == 1:
        return v.copy()
    s = 1.0 / math.sqrt(m)
    # 2 (w . v) / |w|^2, with w . v = v_1 - s * sum(v).
    c = (v[..., 0] - s * v.sum(axis=-1)) / (1.0 - s)
    out = v + (s * c)[..., None]
    out[..., 0] -= c
    return out


def _through_phase(row: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Row times the 4x4 ``block`` of every interferometer (a_j, b_j) pair."""
    return (block.T @ row.reshape(4, -1)).reshape(row.shape)


def _run_circuit(
    config: DesignConfig, phi: float, eta: float
) -> tuple[HomodyneResult, float]:
    """Homodyne statistics of the read port at ``phi`` and d<b'_1>/dphi.

    The Im-quadrature row of b-side port 0 is propagated backwards through
    the recombiner, the loss (which scales it by sqrt(eta) and adds
    (1 - eta)/4 |row|^2 of vacuum noise), the phase blocks (their derivative
    gives the slope row) and the input splitters, then contracted with the
    input means and covariances.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    means, covs = _input_modes(config)
    row = np.zeros_like(means)
    row[1, 1, 0] = 1.0
    row[1] = _splitter_mix(row[1])
    loss_variance = (1.0 - eta) * VACUUM_VARIANCE * float(np.sum(row * row))
    row *= math.sqrt(eta)
    slope_row = _through_phase(row, conjugate_phase_derivative(phi))
    row = _through_phase(row, conjugate_phase_transform(phi).matrix)
    for r in (row, slope_row):
        r[0] = _splitter_mix(r[0])
        if config.variant == "E":
            r[1] = _splitter_mix(r[1])
    quadratic = row[:, :, None, :] * covs * row[:, None, :, :]
    variance = float(np.sum(quadratic)) + loss_variance
    if not math.isfinite(variance):
        raise ValueError(f"homodyne variance must be finite, got {variance}")
    result = HomodyneResult(mean=float(np.sum(row * means)), variance=variance)
    return result, float(np.sum(slope_row * means))


def build_and_run(config: DesignConfig, phi: float, eta: float) -> HomodyneResult:
    """Exact homodyne statistics of the symmetric output port at phase ``phi``.

    No small-phase approximation: the readout is propagated through the
    full Gaussian circuit (splitter arrays, conjugate-phase interferometers,
    symmetric loss, recombination) in O(M).
    """
    result, _ = _run_circuit(config, phi, eta)
    return result


def mean_slope(config: DesignConfig, phi: float, eta: float) -> float:
    """d<homodyne mean>/dphi from the propagated means (no finite differences)."""
    _, slope = _run_circuit(config, phi, eta)
    return slope


def estimator_variance_sim(
    config: DesignConfig, eta: float, time_factor_s: float
) -> CircuitResult:
    """Rotation-estimator variance from the simulated circuit at phi = 0.

    The unbiased estimator divides the homodyne outcome by half the mean
    slope and by the time factor, so
    Var(rate) = (2 / T)^2 * Var(homodyne) / slope^2.
    """
    if not time_factor_s > 0:
        raise ValueError("time factor must be positive")
    result, slope = _run_circuit(config, 0.0, eta)
    if slope == 0.0:
        raise DegenerateConfigurationError(
            "zero homodyne mean slope: no rotation signal for this configuration"
        )
    # Products and quotients, not powers: a float power raises on overflow,
    # while these give inf or 0, which CircuitResult rejects by name.
    gain = 2.0 / time_factor_s / slope
    variance = gain * gain * result.variance
    return CircuitResult(
        homodyne=result,
        slope=slope,
        estimator_variance=variance,
        variance_normalized=variance * time_factor_s * time_factor_s * config.n_v,
    )


def homodyne_closed_form(config: DesignConfig, phi: float, eta: float) -> HomodyneResult:
    """Closed-form homodyne statistics of the symmetric output port, any design.

    The read port mixes the dark-side Im-quadrature variance with weight
    cos^2(phi).  For separable inputs (D, P) that is the mean of the equal
    per-port variances; for E the splitting and recombination arrays
    cancel, leaving the single-squeezer form of S with the full squeezed
    photon number.  Exact at arbitrary phase.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    # Im-quadrature variance of the dark-side squeezed vacuum (vacuum for C
    # and D): (mu - nu)^2 / 4 written in cancellation-free form.
    n_s = config.per_port_squeezed
    dark_variance = VACUUM_VARIANCE / (math.sqrt(1.0 + n_s) + math.sqrt(n_s)) ** 2
    sin, cos = math.sin(phi), math.cos(phi)
    mean = math.sqrt(eta) * sin * config.amplitude
    variance = (
        eta * (sin**2 * VACUUM_VARIANCE + cos**2 * dark_variance)
        + (1.0 - eta) * VACUUM_VARIANCE
    )
    return HomodyneResult(mean=mean, variance=variance)
