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

``build_and_run`` propagates moments exactly at arbitrary phase, serving as
the brute-force oracle for the closed-form expressions in
:mod:`fogsim.analytic`; ``homodyne_closed_form`` gives the direct
single-interferometer, separable and entangled formulas for every design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    HomodyneResult,
    SymplecticTransform,
    VACUUM_VARIANCE,
    balanced_splitter_array,
    coherent_state,
    conjugate_phase_derivative,
    conjugate_phase_transform,
    embed_transform,
    homodyne_stats,
    pure_loss,
    squeezed_vacuum,
    tensor,
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
        if not self.n_v > 0:
            raise ValueError("per-fiber laser photon number must be positive")
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
        if not self.estimator_variance > 0:
            raise ValueError("estimator variance must be positive")


def _input_state(config: DesignConfig) -> GaussianState:
    m = config.m
    parts = [coherent_state(config.amplitude, 0.0)]
    parts.extend(vacuum_state(1) for _ in range(m - 1))
    if config.variant in ("C", "D"):
        parts.extend(vacuum_state(1) for _ in range(m))
    elif config.variant == "S":
        parts.append(squeezed_vacuum(config.n_squeezed, "im"))
    elif config.variant == "P":
        parts.extend(
            squeezed_vacuum(config.per_port_squeezed, "im") for _ in range(m)
        )
    else:  # E: one squeezer, distributed by the array below
        parts.append(squeezed_vacuum(config.n_squeezed, "im"))
        parts.extend(vacuum_state(1) for _ in range(m - 1))
    return tensor(*parts)


def _interferometer_stage(m: int, phi: float, derivative: bool = False) -> np.ndarray:
    """Quadrature map of M parallel conjugate-phase interferometers.

    Interferometer j couples modes (j, m + j).  With ``derivative`` the
    entrywise d/dphi of the map is returned (zero outside the phase blocks).
    """
    block = (
        conjugate_phase_derivative(phi)
        if derivative
        else conjugate_phase_transform(phi).matrix
    )
    out = np.zeros((4 * m, 4 * m)) if derivative else np.eye(4 * m)
    for j in range(m):
        idx = [2 * j, 2 * j + 1, 2 * (m + j), 2 * (m + j) + 1]
        out[np.ix_(idx, idx)] = block
    return out


def _run_circuit(
    config: DesignConfig, phi: float, eta: float
) -> tuple[GaussianState, float]:
    """Propagate the full circuit; return the output state and d<b'_1>/dphi."""
    m = config.m
    n = 2 * m
    state = _input_state(config)
    if m > 1:
        array = balanced_splitter_array(m)
        state = embed_transform(array, n, range(m)).apply(state)
        if config.variant == "E":
            state = embed_transform(array, n, range(m, n)).apply(state)
    mean_before_phase = state.mean

    state = SymplecticTransform(_interferometer_stage(m, phi)).apply(state)
    state = pure_loss(state, eta)
    if m > 1:
        recombiner = embed_transform(array, n, range(m, n))
        state = recombiner.apply(state)
        recombine_matrix = recombiner.matrix
    else:
        recombine_matrix = np.eye(2 * n)

    derivative_stage = _interferometer_stage(m, phi, derivative=True)
    slope_vector = recombine_matrix @ (
        math.sqrt(eta) * (derivative_stage @ mean_before_phase)
    )
    # Im quadrature of the symmetric b-side output port (mode index m).
    slope = float(slope_vector[2 * m + 1])
    return state, slope


def build_and_run(config: DesignConfig, phi: float, eta: float) -> HomodyneResult:
    """Exact homodyne statistics of the symmetric output port at phase ``phi``.

    No small-phase approximation: moments are propagated through the full
    Gaussian circuit (splitter arrays, conjugate-phase interferometers,
    symmetric loss, recombination).
    """
    state, _ = _run_circuit(config, phi, eta)
    return homodyne_stats(state, config.m, "im")


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
    state, slope = _run_circuit(config, 0.0, eta)
    result = homodyne_stats(state, config.m, "im")
    if slope == 0.0:
        raise DegenerateConfigurationError(
            "zero homodyne mean slope: no rotation signal for this configuration"
        )
    variance = (2.0 / time_factor_s) ** 2 * result.variance / slope**2
    return CircuitResult(
        homodyne=result,
        slope=slope,
        estimator_variance=variance,
        variance_normalized=variance * time_factor_s**2 * config.n_v,
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
