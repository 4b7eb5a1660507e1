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
Heisenberg picture, in O(M) time and memory on Python lists: the row of the
measured quadrature is propagated backwards through the recombiner, the
loss, the 4x4 phase block of each interferometer and the input splitters
(Householder reflections, applied as rank-1 updates), then contracted with
the product input state by ``math.fsum``.  Each distinct single-mode input
is built once by the :mod:`fogsim.gaussian` constructors, which check its
physicality.  The tests compare this route against a dense numpy engine
that propagates the full 4M x 4M covariance.  ``homodyne_closed_form``
gives the direct single-interferometer, separable and entangled formulas.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .gaussian import (
    VACUUM_VARIANCE,
    CheckedRecord,
    GaussianState,
    HomodyneResult,
    Matrix,
    coherent_state,
    conjugate_phase_derivative,
    conjugate_phase_transform,
    squeezed_vacuum,
    vacuum_state,
)
from .sagnac import DOMAIN


class DesignConfig(
    CheckedRecord,
    namedtuple("DesignConfig", ("variant", "m_interferometers", "n_v", "n_squeezed")),
):
    """One gyroscope design with its energy budget.

    ``n_v`` is the per-fiber laser mean photon number (total laser photons
    are ``m_interferometers * n_v``) and ``n_squeezed`` is the total mean
    photon number carried by squeezed vacuum: one source for designs S and
    E, one source per interferometer, sharing that total, for design P.
    """

    __slots__ = ()

    def __new__(cls, variant: str, m_interferometers: int = 1, n_v: float = 1.0,
                n_squeezed: float = 0.0) -> DesignConfig:
        DOMAIN.check_design(variant, m_interferometers, n_squeezed)
        DOMAIN.check("n_v", n_v)
        DOMAIN.check("n_squeezed_circuit", n_squeezed)
        # A circuit has a whole number of interferometers: an int, not a float.
        return super().__new__(cls, variant, operator.index(m_interferometers), n_v, n_squeezed)

    @property
    def amplitude(self) -> float:
        """Coherent amplitude alpha of the laser input, sqrt(M n_v) (real, by convention)."""
        return math.sqrt(self.m_interferometers * self.n_v)

    @property
    def per_port_squeezed(self) -> float:
        """Squeezed photons entering each interferometer port (design P)."""
        if self.variant == "P":
            return self.n_squeezed / self.m_interferometers
        return self.n_squeezed


class CircuitResult(
    CheckedRecord,
    namedtuple("CircuitResult", ("homodyne", "slope", "estimator_variance", "variance_normalized")),
):
    """Homodyne statistics and the rotation-estimator variance they imply.

    ``estimator_variance`` is in rad^2/s^2 for the supplied time factor;
    ``variance_normalized`` is the dimensionless product
    variance * T^2 * n_v.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CircuitResult:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("estimator_variance", "variance_normalized"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                label = name.replace("_", " ")
                raise ValueError(f"{label} must be positive and finite, got {value}")
        return self


def _input_modes(config: DesignConfig) -> list[GaussianState]:
    """One single-mode state per input mode, the M laser-side modes first.

    Each distinct state is constructed (and so checked) once.
    """
    m = config.m_interferometers
    vacuum = vacuum_state()
    laser = [coherent_state(config.amplitude, 0.0)] + [vacuum] * (m - 1)
    dark = [vacuum] * m
    if config.variant in ("S", "E"):
        dark[0] = squeezed_vacuum(config.n_squeezed)
    elif config.variant == "P":
        dark = [squeezed_vacuum(config.per_port_squeezed)] * m
    return laser + dark


def _splitter_mix(v: list[float]) -> list[float]:
    """Mixing matrix of an m-port balanced splitter array applied to ``v``.

    The matrix is the Householder reflection I - 2 w w^T / |w|^2 with
    w = e_1 - s (1, ..., 1) and s = 1/sqrt(m), so |w|^2 = 2 (1 - s), applied
    as a rank-1 update in O(m).  Its first row and column are all s, and it
    is symmetric, so the same call propagates a readout row backwards.
    """
    m = len(v)
    if m == 1:
        return list(v)
    s = 1.0 / math.sqrt(m)
    # 2 (w . v) / |w|^2, with w . v = v_1 - s * sum(v).
    c = (v[0] - s * math.fsum(v)) / (1.0 - s)
    shift = s * c
    out = [x + shift for x in v]
    out[0] -= c
    return out


def _through_phase(row: list[list[float]], block: Matrix) -> list[list[float]]:
    """Row times the 4x4 ``block`` of every interferometer (a_j, b_j) pair.

    A phase block has two nonzero entries per column, so each sum rounds once.
    """
    return [
        [a * c0 + b * c1 + c * c2 + d * c3 for a, b, c, d in zip(*row)]
        for c0, c1, c2, c3 in zip(*block)
    ]


def _per_mode(row: list[list[float]], modes: list[GaussianState]):
    """(Re, Im) row entries of every input mode, paired with its state."""
    return zip(zip(row[0] + row[2], row[1] + row[3]), modes)


def _run_circuit(config: DesignConfig, phi: float, eta: float) -> tuple[HomodyneResult, float]:
    """Homodyne statistics of the read port at ``phi`` and d<b'_1>/dphi.

    The row holds a list over the ports for each of a Re, a Im, b Re, b Im.
    The loss scales it by sqrt(eta) and adds (1 - eta)/4 |row|^2 of vacuum
    noise; the derivative of the phase blocks gives the slope row.
    """
    DOMAIN.check("eta_homodyne", eta)
    DOMAIN.check("phi", phi)
    modes = _input_modes(config)
    row = [[0.0] * config.m_interferometers for _ in range(4)]
    row[3][0] = 1.0  # Im quadrature of b-side port 0, the read port
    row[3] = _splitter_mix(row[3])
    loss_variance = (1.0 - eta) * VACUUM_VARIANCE * math.fsum(x * x for r in row for x in r)
    root_eta = math.sqrt(eta)
    row = [[root_eta * x for x in r] for r in row]
    slope_row = _through_phase(row, conjugate_phase_derivative(phi))
    row = _through_phase(row, conjugate_phase_transform(phi).matrix)
    mixed = 4 if config.variant == "E" else 2
    for r in (row, slope_row):
        r[:mixed] = [_splitter_mix(q) for q in r[:mixed]]
    variance = math.fsum(
        v[p] * state.cov[p][q] * v[q]
        for v, state in _per_mode(row, modes) for p in (0, 1) for q in (0, 1)
    ) + loss_variance
    if not math.isfinite(variance):
        raise ValueError(f"homodyne variance must be finite, got {variance}")
    mean, slope = (
        math.fsum(v[p] * state.mean[p] for v, state in _per_mode(r, modes) for p in (0, 1))
        for r in (row, slope_row)
    )
    return HomodyneResult(mean=mean, variance=variance), slope


def build_and_run(config: DesignConfig, phi: float, eta: float) -> HomodyneResult:
    """Exact homodyne statistics of the symmetric output port at phase ``phi``.

    No small-phase approximation: the readout is propagated through the
    full Gaussian circuit (splitter arrays, conjugate-phase interferometers,
    symmetric loss, recombination) in O(M).
    """
    result, _ = _run_circuit(config, phi, eta)
    return result


def estimator_variance_sim(
    config: DesignConfig, eta: float, time_factor_s: float
) -> CircuitResult:
    """Rotation-estimator variance from the simulated circuit at phi = 0.

    The unbiased estimator divides the homodyne outcome by half the mean
    slope and by the time factor, so
    Var(rate) = (2 / T)^2 * Var(homodyne) / slope^2.
    """
    DOMAIN.check("eta", eta)
    DOMAIN.check("time_factor_s", time_factor_s)
    result, slope = _run_circuit(config, 0.0, eta)
    if slope == 0.0:
        raise ValueError("zero homodyne mean slope: no rotation signal for this configuration")
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
    DOMAIN.check("eta_homodyne", eta)
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
