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
loss, the phase map of each interferometer and the input splitters
(Householder reflections, applied as rank-1 updates), then contracted with
the product input state by ``math.fsum``.  That row only ever reaches two
quadratures per interferometer, Re[a_j] and Im[b_j]: the splitter arrays and
the loss act alike on both quadratures of a port, and the conjugate-phase
map couples Re[a_j] with Im[b_j] only (Weedbrook et al., Rev. Mod. Phys. 84,
621 (2012)).  Each distinct single-mode input is built once by the
:mod:`fogsim.gaussian` constructors, which check its physicality.  The
tests compare this route against a dense numpy engine that propagates the
full 4M x 4M covariance.
"""

import math
import operator
from collections import namedtuple

from .gaussian import (
    VACUUM_VARIANCE,
    CheckedRecord,
    GaussianState,
    HomodyneResult,
    coherent_state,
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
                n_squeezed: float = 0.0) -> "DesignConfig":
        DOMAIN.check_design(variant, m_interferometers, n_squeezed)
        DOMAIN.check("n_v", n_v)
        DOMAIN.check("n_squeezed_circuit", n_squeezed)
        # A circuit has a whole number of interferometers: an int, not a float.
        return super().__new__(cls, variant, operator.index(m_interferometers), n_v, n_squeezed)


class CircuitResult(
    CheckedRecord,
    namedtuple("CircuitResult", ("slope", "estimator_variance", "variance_normalized")),
):
    """The rotation-estimator variance of a circuit and the homodyne mean slope it divides by.

    ``estimator_variance`` is in rad^2/s^2 for the supplied time factor;
    ``variance_normalized`` is the dimensionless product
    variance * T^2 * n_v.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CircuitResult":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("estimator_variance", "variance_normalized"):
            value, label = getattr(self, name), name.replace("_", " ")
            DOMAIN.result(value, "{} must be a positive normal float, got {}", label, value)
        return self


def _input_modes(config: DesignConfig) -> list[GaussianState]:
    """One single-mode state per input mode, the M laser-side modes first.

    Each distinct state is constructed (and so checked) once; the laser
    amplitude sqrt(M n_v) is real by convention.
    """
    m = config.m_interferometers
    vacuum = vacuum_state()
    laser = [coherent_state(math.sqrt(m * config.n_v), 0.0)] + [vacuum] * (m - 1)
    dark = [vacuum] * m
    if config.variant in ("S", "E"):
        dark[0] = squeezed_vacuum(config.n_squeezed)
    elif config.variant == "P":
        dark = [squeezed_vacuum(config.n_squeezed / m)] * m
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


def _run_circuit(config: DesignConfig, phi: float, eta: float) -> tuple[HomodyneResult, float]:
    """Homodyne statistics of the read port at ``phi`` and d<b'_1>/dphi.

    The row is a pair of lists over the ports, Re[a_j] and Im[b_j]; the two
    other quadratures of every port never reach the readout.  The loss scales
    the row by sqrt(eta) and adds (1 - eta)/4 |row|^2 of vacuum noise.  Each
    interferometer maps Im[b_j] of its output to sin(phi) Re[a_j] and
    -cos(phi) Im[b_j] of its input; the derivative gives the slope row.
    """
    DOMAIN.check("eta_homodyne", eta)
    DOMAIN.check("phi", phi)
    modes = _input_modes(config)
    m = config.m_interferometers
    read = _splitter_mix([1.0] + [0.0] * (m - 1))  # Im quadrature of b-side port 0
    loss_variance = (1.0 - eta) * VACUUM_VARIANCE * math.fsum(x * x for x in read)
    root_eta = math.sqrt(eta)
    read = [root_eta * x for x in read]
    cos, sin = math.cos(phi), math.sin(phi)
    # Each entry is 0.0 + x * coefficient: in the phase map's full sum over
    # the four quadratures of a port the other terms are +0.0, so a zero
    # entry is +0.0 too.  Only design E splits side b at the input.
    mix_b = _splitter_mix if config.variant == "E" else list
    row, slope_row = (
        _splitter_mix([0.0 + x * a for x in read]) + mix_b([0.0 + x * b for x in read])
        for a, b in ((sin, -cos), (cos, sin))
    )
    quadrature = [0] * m + [1] * m  # Re of each a-side mode, Im of each b-side one
    variance = math.fsum(
        x * state.cov[p][p] * x for x, state, p in zip(row, modes, quadrature)
    ) + loss_variance
    mean, slope = (
        math.fsum(x * state.mean[p] for x, state, p in zip(r, modes, quadrature))
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
        slope=slope,
        estimator_variance=variance,
        variance_normalized=variance * time_factor_s * time_factor_s * config.n_v,
    )
