"""Exact twin of the fixed-transmissivity closed form, evaluated with mpmath.

Each function has the name and arguments of its counterpart in
``fogsim.analytic`` and returns an ``mpmath.mpf``.  It is derived from the
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
