"""Independent oracles used by the test suite.

These are deliberately written without reusing the library's internals:
bisection for the Lambert-W defining equation, an explicit entrywise
quadrature lifting, dense-grid minimization, a Haar-random passive
unitary generator, the dense 4M x 4M design circuit built from the
primitives of the dense engine in ``_dense``, the closed-form homodyne
statistics of every design, and the numeric laser/squeezer energy split
built on the package's public optimizer and variance.
"""

from __future__ import annotations

import math

import numpy as np

from fogsim import analytic
from fogsim.optimize import ScalarProblem, minimize_scalar
from fogsim.sagnac import DOMAIN

from _dense import (
    VACUUM_VARIANCE,
    HomodyneResult,
    SymplecticTransform,
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


def lambert_bisect(x: float, steps: int = 200) -> float:
    """Solve w * exp(w) = x on the principal branch by pure bisection."""
    if x < -math.exp(-1.0) - 1e-12:
        raise ValueError("argument below the branch point")
    lo = -1.0
    hi = 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lift_reference(u: np.ndarray) -> np.ndarray:
    """Quadrature matrix of a passive map, assembled entry by entry.

    Written as an explicit double loop over 2x2 rotation blocks, as a cross
    check of the library's vectorized construction.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for k in range(n):
            a, b = u[j, k].real, u[j, k].imag
            out[2 * j, 2 * k] = a
            out[2 * j, 2 * k + 1] = -b
            out[2 * j + 1, 2 * k] = b
            out[2 * j + 1, 2 * k + 1] = a
    return out


def grid_minimum(f, lo: float, hi: float, coarse: int = 4000, refinements: int = 40):
    """Dense-grid scan followed by interval halving; no golden section."""
    xs = np.linspace(lo, hi, coarse + 1)
    values = np.array([f(x) for x in xs])
    i = int(np.argmin(values))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, coarse)]
    for _ in range(refinements):
        xs = np.linspace(a, b, 9)
        values = np.array([f(x) for x in xs])
        i = int(np.argmin(values))
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, 8)]
    x = 0.5 * (a + b)
    return x, f(x)


def random_passive_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary from a seeded complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def laser_amplitude(config) -> float:
    """Coherent amplitude sqrt(M n_v) of a design's laser input, real by convention."""
    return math.sqrt(config.m_interferometers * config.n_v)


def per_port_squeezed(config) -> float:
    """Squeezed photons entering each interferometer port: the M squeezers of P share N_s."""
    if config.variant == "P":
        return config.n_squeezed / config.m_interferometers
    return config.n_squeezed


def homodyne_closed_form(config, phi: float, eta: float) -> HomodyneResult:
    """Closed-form homodyne statistics of the symmetric output port, any design.

    The read port mixes the dark-side Im-quadrature variance with weight
    cos^2(phi).  For separable inputs (D, P) that is the mean of the equal
    per-port variances; for E the splitting and recombination arrays
    cancel, leaving the single-squeezer form of S with the full squeezed
    photon number.  Exact at arbitrary phase.
    """
    # Im-quadrature variance of the dark-side squeezed vacuum (vacuum for C
    # and D): (mu - nu)^2 / 4 written in cancellation-free form.
    n_s = per_port_squeezed(config)
    dark_variance = VACUUM_VARIANCE / (math.sqrt(1.0 + n_s) + math.sqrt(n_s)) ** 2
    sin, cos = math.sin(phi), math.cos(phi)
    mean = math.sqrt(eta) * sin * laser_amplitude(config)
    variance = (
        eta * (sin**2 * VACUUM_VARIANCE + cos**2 * dark_variance)
        + (1.0 - eta) * VACUUM_VARIANCE
    )
    return HomodyneResult(mean=mean, variance=variance)


def optimize_energy_split_numeric(n_total: float, eta: float) -> analytic.Optimum:
    """Golden-section split of a fixed photon budget between laser and squeezer, at T = 1 s.

    The numeric twin of :func:`fogsim.analytic.optimal_energy_split`.
    """
    DOMAIN.check("n_total", n_total)

    def objective(n_s: float) -> float:
        return analytic.design_variance("S", 1.0, eta, 1, n_total - n_s, n_s)

    return minimize_scalar(
        ScalarProblem(
            objective=objective,
            bracket=(n_total * 1e-9, n_total * (1.0 - 1e-9)),
        )
    )


def _design_input(config):
    m = config.m_interferometers
    parts = [coherent_state(laser_amplitude(config), 0.0)]
    parts.extend(vacuum_state(1) for _ in range(m - 1))
    if config.variant in ("C", "D"):
        parts.extend(vacuum_state(1) for _ in range(m))
    elif config.variant == "S":
        parts.append(squeezed_vacuum(config.n_squeezed, "im"))
    elif config.variant == "P":
        parts.extend(
            squeezed_vacuum(per_port_squeezed(config), "im") for _ in range(m)
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


def dense_design_circuit(config, phi: float, eta: float) -> tuple[HomodyneResult, float]:
    """Read-port statistics and mean slope of a design, by dense propagation.

    The full 2M-mode state (4M x 4M covariance) is pushed forward through
    the splitter arrays, the interferometers, the loss and the recombiner,
    and every intermediate state passes the engine's physicality check.
    Returns the Im-quadrature homodyne statistics of b-side port 0 at
    ``phi`` and d<mean>/dphi.
    """
    m = config.m_interferometers
    n = 2 * m
    state = _design_input(config)
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
    return homodyne_stats(state, m, "im"), float(slope_vector[2 * m + 1])
