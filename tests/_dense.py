"""Dense n-mode Gaussian-state engine: the numpy oracle of the test suite.

The package's circuit route (``fogsim.designs`` on the single-mode kit
``fogsim.gaussian``) never forms a multi-mode covariance.  This engine
does: it propagates full 2n x 2n covariances and runs an eigen-decomposition
check on every state, so the tests can rebuild each design mode by mode and
compare.  It imports nothing from ``fogsim``.

A Gaussian state of ``n`` optical modes is fully described by the first
moments and the covariance matrix of the field quadratures.  The convention
used throughout this package sets the vacuum variance to 1/4, i.e.

    Re[a] = (a + a^dag) / 2,    Im[a] = (a - a^dag) / (2i),

and the quadrature vector is interleaved per mode as
``(Re_1, Im_1, Re_2, Im_2, ...)``.

Passive mode transformations (phase shifters, beamsplitter arrays) are
represented as real symplectic matrices acting on the quadrature vector.
Loss is the Gaussian pure-loss channel, which mixes each affected mode with
an ancillary vacuum at transmissivity ``eta``.

Every function here is pure: inputs are never mutated, and the only source
of randomness (``sample_homodyne``) takes an explicit seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Quadrature variance of the vacuum state in this package's convention.
VACUUM_VARIANCE = 0.25

SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-12
PHYSICALITY_TOL = 1e-10

_QUAD_OFFSET = {"re": 0, "im": 1}


def symplectic_form(n_modes: int) -> np.ndarray:
    """Antisymmetric form matching the interleaved (Re, Im) ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), block)


def quadrature_index(mode: int, quadrature: str, n_modes: int) -> int:
    """Index of a mode's Re or Im entry in the interleaved quadrature vector."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    key = quadrature.lower() if isinstance(quadrature, str) else quadrature
    if key not in _QUAD_OFFSET:
        raise ValueError(f"quadrature must be 're' or 'im', got {quadrature!r}")
    return 2 * mode + _QUAD_OFFSET[key]


@dataclass(frozen=True)
class GaussianState:
    """First moments and quadrature covariance of an n-mode Gaussian state.

    ``mean`` has length 2n and ``cov`` is a symmetric 2n x 2n matrix.  The
    uncertainty principle requires every symplectic eigenvalue of ``cov`` to
    be at least the vacuum variance; this is checked on construction.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float)).copy()
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.size % 2 != 0:
            raise ValueError("mean must be a vector of even length 2n")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if not np.allclose(cov, cov.T, rtol=0.0, atol=SYMMETRY_TOL):
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        smallest = float(np.min(self.symplectic_eigenvalues()))
        if smallest < VACUUM_VARIANCE - PHYSICALITY_TOL:
            raise ValueError(
                "covariance matrix violates the uncertainty principle: "
                f"minimum symplectic eigenvalue {smallest:.3e} < {VACUUM_VARIANCE}"
            )

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum of the covariance matrix (one value per mode).

        Each mode is first balanced by the local squeeze diag(s, 1/s) with
        s^4 = Var(Im) / Var(Re).  A symplectic map leaves the spectrum
        unchanged, and the balance keeps ``eigvals`` from losing the product
        of a strongly squeezed pair of variances (1e250 and 1e-252 at 2500 dB).
        """
        # Fourth roots first: the quotient of the variances itself underflows.
        roots = np.sqrt(np.sqrt(np.abs(np.diag(self.cov)))).reshape(-1, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = roots[:, 1] / roots[:, 0]
        s = np.where(np.isfinite(s) & (s > 0.0), s, 1.0)
        scale = np.column_stack((s, 1.0 / s)).ravel()
        balanced = scale[:, None] * self.cov * scale[None, :]
        omega = symplectic_form(self.n_modes)
        eigenvalues = np.linalg.eigvals(1j * omega @ balanced)
        # Eigenvalues come in +/- pairs; keep one representative of each.
        return np.sort(np.abs(eigenvalues))[::2]


@dataclass(frozen=True)
class SymplecticTransform:
    """Real linear map on the interleaved quadrature vector.

    Construction verifies preservation of the symplectic form, which is what
    makes the map a legal Gaussian unitary on quadratures.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("transform matrix must be square")
        if matrix.shape[0] == 0 or matrix.shape[0] % 2 != 0:
            raise ValueError("transform matrix must have even dimension 2n")
        object.__setattr__(self, "matrix", matrix.copy())
        omega = symplectic_form(self.n_modes)
        if not np.allclose(
            matrix @ omega @ matrix.T, omega, rtol=0.0, atol=SYMPLECTIC_TOL
        ):
            raise ValueError("matrix does not preserve the symplectic form")

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def apply(self, state: GaussianState) -> GaussianState:
        """Propagate a state through this transform."""
        if state.n_modes != self.n_modes:
            raise ValueError(
                f"transform acts on {self.n_modes} modes, state has {state.n_modes}"
            )
        s = self.matrix
        return GaussianState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


@dataclass(frozen=True)
class HomodyneResult:
    """Mean and variance of the Gaussian outcome of a quadrature measurement."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError(f"homodyne variance must be positive, got {self.variance}")


def vacuum_state(n_modes: int) -> GaussianState:
    """Tensor product of ``n_modes`` vacua: zero mean, covariance I/4."""
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    dim = 2 * n_modes
    return GaussianState(np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def coherent_state(alpha_re: float, alpha_im: float) -> GaussianState:
    """Single-mode coherent state with mean photon number |alpha|^2."""
    return GaussianState(
        np.array([alpha_re, alpha_im], dtype=float),
        VACUUM_VARIANCE * np.eye(2),
    )


def squeezed_vacuum(n_s: float, squeeze_axis: str = "im") -> GaussianState:
    """Single-mode squeezed vacuum with mean photon number ``n_s``.

    The squeezed-axis variance is (mu - nu)^2 / 4 and the conjugate axis
    carries (mu + nu)^2 / 4, with nu = sqrt(n_s) and mu = sqrt(1 + n_s).
    The product of the two variances is 1/16 for every ``n_s`` (the state is
    pure and saturates the uncertainty bound).  The squeezed axis is
    evaluated as 1 / (4 (mu + nu)^2), which equals (mu - nu)^2 / 4 because
    mu^2 - nu^2 = 1 but does not cancel at large ``n_s``.
    """
    if n_s < 0:
        raise ValueError("squeezed photon number must be nonnegative")
    axis = squeeze_axis.lower() if isinstance(squeeze_axis, str) else squeeze_axis
    if axis not in _QUAD_OFFSET:
        raise ValueError(f"squeeze_axis must be 're' or 'im', got {squeeze_axis!r}")
    nu = np.sqrt(n_s)
    mu = np.sqrt(1.0 + n_s)
    anti = (mu + nu) ** 2 / 4.0
    squeezed = 1.0 / (4.0 * (mu + nu) ** 2)
    diag = [squeezed, anti] if axis == "re" else [anti, squeezed]
    return GaussianState(np.zeros(2), np.diag(diag))


def tensor(*states: GaussianState) -> GaussianState:
    """Tensor product of Gaussian states (modes concatenated in order)."""
    if not states:
        raise ValueError("tensor requires at least one state")
    dim = sum(s.mean.size for s in states)
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((dim, dim))
    offset = 0
    for s in states:
        k = s.mean.size
        cov[offset : offset + k, offset : offset + k] = s.cov
        offset += k
    return GaussianState(mean, cov)


def _lift_passive(u: np.ndarray) -> np.ndarray:
    """Real quadrature matrix of a passive (photon-number-preserving) map.

    Each complex entry u_jk acts on mode k's (Re, Im) pair as the rotation
    block [[Re u, -Im u], [Im u, Re u]].
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 0::2] = u.real
    s[0::2, 1::2] = -u.imag
    s[1::2, 0::2] = u.imag
    s[1::2, 1::2] = u.real
    return s


def passive_transform(unitary: np.ndarray) -> SymplecticTransform:
    """Symplectic quadrature map of a unitary acting on annihilation operators."""
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be a square matrix")
    if not np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10):
        raise ValueError("matrix is not unitary")
    return SymplecticTransform(_lift_passive(u))


def _conjugate_phase_unitary(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -1j * s], [1j * s, -c]])


def conjugate_phase_transform(phi: float) -> SymplecticTransform:
    """Two-mode map of an interferometer whose arms carry phases +phi and -phi.

    On annihilation operators the map is
    ``a -> cos(phi) a - i sin(phi) b``, ``b -> i sin(phi) a - cos(phi) b``,
    i.e. the composition of a balanced splitter, conjugate phase shifts, and
    a second balanced splitter.  At phi = 0 it reduces to (a, b) -> (a, -b).
    """
    return SymplecticTransform(_lift_passive(_conjugate_phase_unitary(phi)))


def conjugate_phase_derivative(phi: float) -> np.ndarray:
    """Entrywise derivative with respect to phi of the conjugate-phase map."""
    c, s = np.cos(phi), np.sin(phi)
    du = np.array([[-s, -1j * c], [1j * c, s]])
    return _lift_passive(du)


def balanced_splitter_array(m: int) -> SymplecticTransform:
    """Orthogonal m-port mixer whose symmetric port is port 1.

    The mode-mixing matrix is the (symmetric, self-inverse) Householder
    reflection exchanging the first basis vector with the uniform vector
    (1, ..., 1)/sqrt(m).  Its first row and first column are all 1/sqrt(m),
    so a single input in port 1 splits evenly over all ports and, run again,
    the array coalesces identical ports back into port 1.  Quadratures are
    mixed identically on the Re and Im blocks.
    """
    if m < 1:
        raise ValueError("splitter array size must be at least 1")
    symmetric = np.full(m, 1.0 / np.sqrt(m))
    w = np.zeros(m)
    w[0] = 1.0
    w -= symmetric
    norm_sq = float(w @ w)
    if norm_sq < 1e-30:
        mixing = np.eye(m)
    else:
        mixing = np.eye(m) - 2.0 * np.outer(w, w) / norm_sq
    return SymplecticTransform(_lift_passive(mixing))


def embed_transform(
    transform: SymplecticTransform, n_modes: int, modes: Sequence[int]
) -> SymplecticTransform:
    """Extend a k-mode transform to ``n_modes`` modes, acting on ``modes``."""
    modes = list(modes)
    if len(modes) != transform.n_modes:
        raise ValueError(
            f"transform acts on {transform.n_modes} modes, got {len(modes)} indices"
        )
    if len(set(modes)) != len(modes):
        raise ValueError("mode indices must be distinct")
    if any(not 0 <= g < n_modes for g in modes):
        raise ValueError("mode index out of range")
    idx = []
    for g in modes:
        idx.extend((2 * g, 2 * g + 1))
    matrix = np.eye(2 * n_modes)
    matrix[np.ix_(idx, idx)] = transform.matrix
    return SymplecticTransform(matrix)


def pure_loss(
    state: GaussianState, eta: float, modes: Sequence[int] | None = None
) -> GaussianState:
    """Pure-loss channel with transmissivity ``eta`` on a subset of modes.

    Means scale by sqrt(eta), covariance blocks of affected modes by eta with
    a (1 - eta)/4 vacuum contribution, and cross-correlations with unaffected
    modes by sqrt(eta).  This is exact for Gaussian states.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    n = state.n_modes
    if modes is None:
        modes = range(n)
    modes = list(modes)
    if any(not 0 <= g < n for g in modes):
        raise ValueError("mode index out of range")
    scale = np.ones(2 * n)
    noise = np.zeros(2 * n)
    for g in modes:
        scale[2 * g : 2 * g + 2] = np.sqrt(eta)
        noise[2 * g : 2 * g + 2] = (1.0 - eta) * VACUUM_VARIANCE
    mean = scale * state.mean
    cov = scale[:, None] * state.cov * scale[None, :] + np.diag(noise)
    return GaussianState(mean, cov)


def homodyne_stats(state: GaussianState, mode: int, quadrature: str) -> HomodyneResult:
    """Exact outcome statistics of a quadrature measurement on one mode."""
    i = quadrature_index(mode, quadrature, state.n_modes)
    return HomodyneResult(mean=float(state.mean[i]), variance=float(state.cov[i, i]))


def sample_homodyne(
    state: GaussianState, mode: int, quadrature: str, count: int, seed: int
) -> np.ndarray:
    """Draw homodyne outcomes from the exact Gaussian law (seeded, reproducible)."""
    if count < 1:
        raise ValueError("sample count must be at least 1")
    stats = homodyne_stats(state, mode, quadrature)
    rng = np.random.default_rng(seed)
    return rng.normal(stats.mean, np.sqrt(stats.variance), size=count)
