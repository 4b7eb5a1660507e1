"""Exact twin of the fixed-transmissivity closed form and of the length
optimum, evaluated with mpmath.

Each function has the name and arguments of its counterpart in
``fogsim.analytic`` and returns ``mpmath.mpf`` values: ``optimal_length``
the pair (x, value) of an ``Optimum``.  Each is derived from the
inputs alone, which are exact doubles, never from an intermediate double:

    design variance = ratio_fixed_eta * classical variance,
    ratio_fixed_eta = eta q + 1 - eta,
    classical variance = 1 / (T^2 eta M n_v),

with q = k / (sqrt(k + N_s) + sqrt(N_s))^2 the squeezed fraction of the
vacuum noise at the read port: k = 1 for designs S and E, k = M for the M
squeezers of P, and q = 1 for the laser-only designs C and D.  The
squeezing N_s is finite, as the circuit takes it.

Precision grows with the squeezing, 60 + log10 N_s digits, so that the sum
eta q + 1 - eta keeps q at eta = 1, where q is about 1 / (4 N_s).

The length optimum minimizes the normalized variance (M / L^2)(q - 1 + e^u)
over the total length L, u = c L / M being the loss exponent of one coil and
c = b ln(10) / 10: its root is (u - 2) e^u = 2 (q - 1).  The count optimum
minimizes the same variance over M at fixed L, and its root is
(u - 1) e^u = q - 1.  ``exponent`` gives both, as u - k = W(k (q - 1) / e^k),
and the two ratios at the optima are built on it.

The paper's two limits are minima of the loss bound of quantum metrology,
Var >= (1 - eta) / (eta N) for N photons through transmissivity eta (Escher
et al., Nat. Phys. 7, 406 (2011); Demkowicz-Dobrzanski et al., Nat. Commun.
3, 1063 (2012)), in the package's per-fiber normalization, where the laser's
variance is 1 / (eta N) and eta = e^-u:

- one coil: the bound's (e^u - 1) / u^2 is least at u* = 2 + W0(-2/e^2),
  the laser's e^u / u^2 at u = 2, and the ratio of the two minima is
  ``LENGTH_GAIN_LIMIT`` = 1.19630709450629569;
- M coils sharing a total length L: the bound's M (e^(cL/M) - 1) / L^2
  falls to c / L as M grows, the laser's M e^(cL/M) / L^2 is least, c e / L,
  at M = c L, and their ratio is ``COUNT_GAIN_LIMIT`` = e.

The bound is asymptotic in N and counts all photons, laser and squeezed.
"""

from __future__ import annotations

import math

import mpmath


def _digits(n_squeezed: float) -> int:
    return 60 + math.ceil(math.log10(max(n_squeezed, 1.0)))


def _squeezing_factor(variant: str, m: int, n_squeezed: float) -> mpmath.mpf:
    """q of the docstring above, at the working precision of the caller."""
    if variant in ("C", "D"):
        return mpmath.mpf(1)
    k, n = mpmath.mpf(m if variant == "P" else 1), mpmath.mpf(n_squeezed)
    return k / (mpmath.sqrt(k + n) + mpmath.sqrt(n)) ** 2


def ratio_fixed_eta(variant: str, eta: float, m: int = 1, n_squeezed: float = 0.0) -> mpmath.mpf:
    """Any design's variance over the laser-only one at fixed transmissivity."""
    with mpmath.workdps(_digits(n_squeezed)):
        e = mpmath.mpf(eta)
        return +(e * _squeezing_factor(variant, m, n_squeezed) + 1 - e)


def classical_variance(time_factor_s: float, eta: float, n_photons: float) -> mpmath.mpf:
    """Rotation-estimator variance of the laser-only single interferometer."""
    with mpmath.workdps(60):
        t = mpmath.mpf(time_factor_s)
        return 1 / (t * t * mpmath.mpf(eta) * mpmath.mpf(n_photons))


def design_variance(variant: str, time_factor_s: float, eta: float, m: int = 1,
                    n_v: float = 1.0, n_squeezed: float = 0.0) -> mpmath.mpf:
    """Estimator variance of any design at fixed transmissivity."""
    with mpmath.workdps(60):
        # M n_v as an exact product, not the double the code may round it to.
        laser = classical_variance(time_factor_s, eta, n_v) / m
        return laser * ratio_fixed_eta(variant, eta, m, n_squeezed)


def optimal_length(variant: str, b: float, n_squeezed: float = 0.0,
                   m: int = 1) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Total fiber length and normalized variance at the length optimum."""
    with mpmath.workdps(_digits(n_squeezed)):
        q = _squeezing_factor(variant, m, n_squeezed)
        u = 2 + mpmath.lambertw(2 * (q - 1) / mpmath.e**2).real
        length = m * u / (mpmath.mpf(b) * mpmath.log(10) / 10)
        return +length, m / length**2 * (q - 1 + mpmath.exp(u))


def exponent(k: int, n_squeezed: float, m: int = 1) -> mpmath.mpf:
    """W(k (q - 1) / e^k), the exponent u - k at the root of (u - k) e^u = k (q - 1).

    k = 2 is the length optimum's, with M squeezers sharing ``n_squeezed``
    (M = 1 for designs S and E); k = 1 is the count optimum's, with M = 1.
    """
    with mpmath.workdps(_digits(n_squeezed)):
        q = _squeezing_factor("P", m, n_squeezed)
        return +mpmath.lambertw(k * (q - 1) / mpmath.e**k).real


def ratio_optimal_length(n_squeezed: float) -> mpmath.mpf:
    """Squeezed over laser-only variance, each at its length optimum."""
    with mpmath.workdps(_digits(n_squeezed)):
        lam = exponent(2, n_squeezed)
        return 2 * mpmath.exp(lam) / (2 + lam)


def ratio_optimal_m(n_squeezed: float) -> mpmath.mpf:
    """Entangled over laser-only variance, each at its count optimum."""
    with mpmath.workdps(_digits(n_squeezed)):
        return mpmath.exp(exponent(1, n_squeezed))


with mpmath.workdps(60):
    _U_STAR = 2 + mpmath.lambertw(-2 / mpmath.e**2).real
    LENGTH_GAIN_LIMIT = (mpmath.e**2 / 4) / (mpmath.expm1(_U_STAR) / _U_STAR**2)
    COUNT_GAIN_LIMIT = +mpmath.e
