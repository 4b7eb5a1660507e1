"""Single-mode Gaussian states and the phase map of one interferometer.

This is the kit :mod:`fogsim.designs` builds its circuits from: the three
input states, each checked on construction, and the 4x4 quadrature map of
a conjugate-phase interferometer with its derivative.  A state is the mean
and the 2x2 covariance V of the quadratures Re[a] = (a + a^dag) / 2 and
Im[a] = (a - a^dag) / (2i), so the vacuum variance is 1/4; vectors are
interleaved per mode as ``(Re_1, Im_1, Re_2, Im_2, ...)``.  A mode is
physical when both variances are positive and its symplectic eigenvalue
sqrt(det V) is at least 1/4 (Weedbrook et al., Rev. Mod. Phys. 84, 621
(2012), sec. II).  Matrices are tuples of row tuples.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .sagnac import DOMAIN

#: Quadrature variance of the vacuum state in this package's convention.
VACUUM_VARIANCE = 0.25

SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-12
PHYSICALITY_TOL = 1e-10

Matrix = tuple[tuple[float, ...], ...]


class CheckedRecord:
    """Base of a namedtuple whose ``__new__`` checks its fields: ``_make``, and
    ``_replace`` through it, build the record through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class GaussianState(CheckedRecord, namedtuple("GaussianState", ("mean", "cov"))):
    """First moments and 2x2 quadrature covariance of one optical mode.

    Construction checks that ``cov`` is symmetric and physical: positive
    variances and a symplectic eigenvalue of at least the vacuum variance.
    """

    __slots__ = ()

    def __new__(cls, mean: tuple[float, float], cov: Matrix) -> GaussianState:
        mean = tuple(map(float, mean))
        cov = tuple(tuple(map(float, row)) for row in cov)
        if len(mean) != 2 or len(cov) != 2 or any(len(row) != 2 for row in cov):
            raise ValueError("a single-mode state takes a mean of length 2 and a 2x2 cov")
        (a, b), (c, d) = cov
        # NaN passes this test and fails the physicality test below.
        if abs(b - c) > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        self = super().__new__(cls, mean, ((a, 0.5 * (b + c)), (0.5 * (b + c), d)))
        (nu,) = self.symplectic_eigenvalues()
        if not (a > 0.0 and d > 0.0 and nu >= VACUUM_VARIANCE - PHYSICALITY_TOL):
            raise ValueError(
                "covariance matrix violates the uncertainty principle: variances "
                f"{a:.3e} and {d:.3e} (need > 0), symplectic eigenvalue {nu:.3e} (need >= 0.25)"
            )
        return self

    def symplectic_eigenvalues(self) -> tuple[float]:
        """(sqrt(det V),), or (NaN,) when det V is negative or NaN."""
        (a, b), (_, d) = self.cov
        det = a * d - b * b
        return (math.sqrt(det) if det >= 0.0 else math.nan,)


class SymplecticTransform(CheckedRecord, namedtuple("SymplecticTransform", ("matrix",))):
    """Real 2n x 2n quadrature map, checked to preserve the symplectic form."""

    __slots__ = ()

    def __new__(cls, matrix: Matrix) -> SymplecticTransform:
        matrix = tuple(tuple(map(float, row)) for row in matrix)
        dim = len(matrix)
        if dim == 0 or dim % 2 or any(len(row) != dim for row in matrix):
            raise ValueError("transform matrix must be square, of even dimension 2n")
        # (S Omega S^T)_ij against Omega, one [[0, 1], [-1, 0]] block per mode.
        for (i, r), (j, t) in itertools.product(enumerate(matrix), repeat=2):
            form = math.fsum(r[k] * t[k + 1] - r[k + 1] * t[k] for k in range(0, dim, 2))
            if not abs(form - (i // 2 == j // 2) * ((j > i) - (j < i))) <= SYMPLECTIC_TOL:
                raise ValueError("matrix does not preserve the symplectic form")
        return super().__new__(cls, matrix)

    def apply(self, state: GaussianState) -> GaussianState:
        """Propagate a single-mode state through a one-mode (2x2) transform.

        Nothing in the package calls this: :mod:`fogsim.designs` propagates
        the readout row instead.  It stays only because the benchmark's span
        tracer names ``SymplecticTransform.apply`` as a target.
        """
        s = self.matrix
        if len(s) != 2:
            raise ValueError(f"transform acts on {len(s) // 2} modes, state has 1")
        mean = [math.fsum(x * y for x, y in zip(row, state.mean)) for row in s]
        v, pairs = state.cov, list(itertools.product((0, 1), repeat=2))
        # (S V S^T)_ij, each entry one correctly rounded sum.
        cov = [[math.fsum(r[p] * v[p][q] * t[q] for p, q in pairs) for t in s] for r in s]
        return GaussianState(mean, cov)


class HomodyneResult(CheckedRecord, namedtuple("HomodyneResult", ("mean", "variance"))):
    """Mean and variance of the Gaussian outcome of a quadrature measurement."""

    __slots__ = ()

    def __new__(cls, mean: float, variance: float) -> HomodyneResult:
        if not variance > 0.0:
            raise ValueError(f"homodyne variance must be positive, got {variance}")
        return super().__new__(cls, mean, variance)


_VACUUM_COV = ((VACUUM_VARIANCE, 0.0), (0.0, VACUUM_VARIANCE))


def vacuum_state() -> GaussianState:
    """The vacuum: zero mean, covariance I/4."""
    return GaussianState((0.0, 0.0), _VACUUM_COV)


def coherent_state(alpha_re: float, alpha_im: float) -> GaussianState:
    """Coherent state with mean photon number |alpha|^2."""
    return GaussianState((alpha_re, alpha_im), _VACUUM_COV)


def squeezed_vacuum(n_s: float) -> GaussianState:
    """Squeezed vacuum with mean photon number ``n_s``, squeezed in the Im quadrature.

    The squeezed-axis variance is (mu - nu)^2 / 4 and the conjugate axis
    carries (mu + nu)^2 / 4, with nu = sqrt(n_s) and mu = sqrt(1 + n_s); their
    product is 1/16 (the state is pure).  The squeezed axis is evaluated as
    1 / (4 (mu + nu)^2), which does not cancel at large ``n_s``.  Where
    4 (mu + nu)^2 overflows (from 3076.5 dB), the squeezed variance is
    lost with it, and the photon number is rejected as overflowing.
    """
    DOMAIN.check("n_squeezed", n_s)
    spread = math.sqrt(1.0 + n_s) + math.sqrt(n_s)
    inverse_squeezed = 4.0 * (spread * spread)
    if not inverse_squeezed < math.inf:
        raise ValueError(
            f"squeezed photon number {n_s:.6g} overflows the squeezed-vacuum variances"
        )
    return GaussianState((0.0, 0.0), ((spread * spread / 4.0, 0.0), (0.0, 1.0 / inverse_squeezed)))


def _phase_block(c: float, s: float) -> Matrix:
    """Quadrature matrix of a -> c a - i s b, b -> i s a - c b on (a, b)."""
    return ((c, 0.0, 0.0, s), (0.0, c, -s, 0.0), (0.0, -s, -c, 0.0), (s, 0.0, 0.0, -c))


def conjugate_phase_transform(phi: float) -> SymplecticTransform:
    """Two-mode map of an interferometer whose arms carry phases +phi and -phi.

    On annihilation operators the map is
    ``a -> cos(phi) a - i sin(phi) b``, ``b -> i sin(phi) a - cos(phi) b``,
    i.e. the composition of a balanced splitter, conjugate phase shifts, and
    a second balanced splitter.  At phi = 0 it reduces to (a, b) -> (a, -b).
    """
    return SymplecticTransform(_phase_block(math.cos(phi), math.sin(phi)))


def conjugate_phase_derivative(phi: float) -> Matrix:
    """Entrywise derivative with respect to phi of the conjugate-phase map."""
    return _phase_block(-math.sin(phi), math.cos(phi))
