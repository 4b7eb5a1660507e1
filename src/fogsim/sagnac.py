"""Physical model of a rotating fiber coil, and the domain of every input.

Provides the fiber transmission model, the time factor ``T`` relating phase
to angular velocity (``Omega = 2 phi / T``), the conversion from decibels of
quadrature squeezing to mean photon number, and ``DOMAIN``: the one table of
bounds that every route checks its physical inputs against, with the design
rules next to it.

Units: optical wavelength in nanometers, coil radius in meters, fiber
length in kilometers at the API boundary (converted internally), angular
rates in rad/s.
"""

import math
import sys

#: Speed of light in vacuum (m/s).
C_LIGHT = 299_792_458.0

_KM = 1000.0

#: Largest finite squeezed photon number every route represents: the circuit
#: forms 4 (sqrt(1 + N) + sqrt(N))^2, about 16 N, which overflows above it.
_MAX_SQUEEZED = sys.float_info.max / 16.0
#: The squeezing in dB whose photon number is _MAX_SQUEEZED (3076.5 dB).
_MAX_SQUEEZE_DB = 20.0 / math.log(10.0) * math.asinh(math.sqrt(_MAX_SQUEEZED))

_INF = math.inf

VARIANTS = ("C", "S", "D", "P", "E")


class _Domain(dict):
    """The input domain table, which checks inputs against itself.

    Its checks are methods, not module functions, so that a span tracer
    wrapping each public function of a module times none of them.
    :meth:`result` is the one rule for every computed quantity.
    """

    __slots__ = ()

    def check(self, key: str, value: float) -> float:
        """``value`` if it lies in the domain of input ``key``, else a ValueError naming it."""
        lo, hi = _CLOSED[key]
        if lo <= value <= hi:
            return value
        if value == _INF and key in _LIMITS:
            return value
        raise ValueError(_rejection(key, value))

    def result(self, value: float, message: str, *inputs: object) -> float:
        """``value`` if it is a positive normal float, else ValueError(message.format(*inputs)).

        A zero or subnormal value has lost digits; inf and NaN have left the floats.
        """
        if sys.float_info.min <= value < _INF:
            return value
        raise ValueError(message.format(*inputs))

    def check_design(self, variant: str, m: float, n_squeezed: float) -> None:
        """Reject an unknown design, a count or squeezing out of its domain, or a
        broken design rule: C and S use a single interferometer, C and D take
        no squeezed light."""
        if variant not in VARIANTS:
            raise ValueError(f"design must be one of {', '.join(VARIANTS)}, got {variant!r}")
        self.check("m", m)
        if variant in ("C", "S") and m != 1:
            raise ValueError(f"design {variant} uses a single interferometer")
        self.check("n_squeezed", n_squeezed)
        if variant in ("C", "D") and n_squeezed != 0:
            raise ValueError(f"design {variant} takes no squeezed light")


#: Domain of each physical input, keyed by the setting that carries it: the
#: name a rejection gives it, its unit, its bounds, and whether each end is
#: open "(" ")" or closed "[" "]".  An input with two domains has a second
#: key, named for its use.
DOMAIN = _Domain({
    "squeeze_db": ("squeezing in dB", "dB", 0.0, _MAX_SQUEEZE_DB, "[]"),
    "n_squeezed": ("squeezed photon number", "photons", 0.0, _MAX_SQUEEZED, "[]"),
    # The circuit takes no infinite squeezing.
    "n_squeezed_circuit": ("squeezed photon number", "photons", 0.0, _INF, "[)"),
    # An estimator variance needs light through the coil; homodyne moments do not.
    "eta": ("transmissivity", "", 0.0, 1.0, "(]"),
    "eta_homodyne": ("transmissivity", "", 0.0, 1.0, "[]"),
    "n_v": ("per-fiber laser photon number", "photons", 0.0, _INF, "()"),
    "n_total": ("total photon number", "photons", 0.0, _INF, "()"),
    "time_factor_s": ("time factor", "s", 0.0, _INF, "()"),
    # A transmissivity takes no loss or no fiber; an optimum needs both, finite.
    "b": ("loss coefficient", "dB/km", 0.0, _INF, "[)"),
    "length_km": ("fiber length", "km", 0.0, _INF, "[)"),
    "b_optimum": ("loss coefficient", "dB/km", 0.0, _INF, "()"),
    "length_optimum": ("fiber length", "km", 0.0, _INF, "()"),
    "coil_length_km": ("coil fiber length", "km", 0.0, _INF, "()"),
    "wavelength_nm": ("wavelength", "nm", 0.0, _INF, "()"),
    "radius_m": ("coil radius", "m", 0.0, _INF, "()"),
    "phi": ("phase", "rad", -_INF, _INF, "()"),
    # Real counts too: the continuous count optimum evaluates them.
    "m": ("interferometer count", "", 1.0, _INF, "[)"),
    "m_max": ("m_max", "", 1.0, _INF, "[)"),
})

#: Inputs whose value inf is the closed form's infinite-squeezing limit, and
#: the rejection of a finite value above their bound.
_LIMITS = {
    "squeeze_db": "{} dB of squeezing overflows the squeezed photon number; "
                  "use 'inf' for the infinite-squeezing limit",
    "n_squeezed": "squeezed photon number {:.6g} overflows the squeezed-vacuum variances",
}


#: The bounds of each input as closed float bounds: an open end moves to
#: the next float inside.
_CLOSED = {
    key: (math.nextafter(lo, _INF) if ends[0] == "(" else lo,
          math.nextafter(hi, -_INF) if ends[1] == ")" else hi)
    for key, (_, _, lo, hi, ends) in DOMAIN.items()
}


def _rejection(key: str, value: float) -> str:
    name, _, lo, hi, ends = DOMAIN[key]
    if key in _LIMITS:
        if value > hi:
            return _LIMITS[key].format(value)
        hi = _INF
    if (lo, hi) == (0.0, _INF):
        sign = "positive" if ends[0] == "(" else "nonnegative"
        return f"{name} must be {sign}{' and finite' if ends[1] == ')' else ''}, got {value}"
    return f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value}"


def transmissivity(b: float, length_km: float) -> float:
    """Fiber transmissivity 10^(-b L / 10) for loss ``b`` dB/km over L km.

    Zero loss or zero length transmits everything; a transmissivity that is
    not a positive normal float is rejected by its loss and length.
    """
    DOMAIN.check("b", b)
    DOMAIN.check("length_km", length_km)
    return DOMAIN.result(
        10.0 ** (-b * length_km / 10.0),
        "loss coefficient {} dB/km and fiber length {} km put the transmissivity out of "
        "floating-point range", b, length_km,
    )


def time_factor(length_km: float, wavelength_nm: float, radius_m: float) -> float:
    """Phase-to-rate conversion time T (s) of a circular coil: delta_phi = T * Omega.

    T = 4 * omega * L * A / (2 pi r c^2) with omega = 2 pi c / lambda, L in
    meters and A = pi r^2.  Names the input out of its domain, and rejects
    by its radius and wavelength a coil whose omega, area or T leaves
    floating-point range.
    """
    DOMAIN.check("coil_length_km", length_km)
    DOMAIN.check("wavelength_nm", wavelength_nm)
    DOMAIN.check("radius_m", radius_m)
    try:
        omega = 2.0 * math.pi * C_LIGHT / (wavelength_nm * 1e-9)
        area = math.pi * (radius_m * radius_m)
        t = 4.0 * omega * (length_km * _KM) * area / (2.0 * math.pi * radius_m * C_LIGHT**2)
    except ZeroDivisionError:
        # The wavelength in meters underflowed to 0.0.
        t = math.nan
    # A tiny length, or an omega or area out of range, leaves T zero, subnormal, inf or NaN.
    return DOMAIN.result(
        t, "coil radius {} m and wavelength {} nm put the time factor of {} km of fiber out of "
        "floating-point range", radius_m, wavelength_nm, length_km,
    )


def db_to_photons(sigma_db: float) -> float:
    """Mean photon number of squeezed vacuum with ``sigma_db`` dB of noise reduction.

    N_s = sinh^2(sigma * ln(10) / 20).  Infinity maps to infinity, which the
    analytic layer treats as the infinite-squeezing limit.
    """
    DOMAIN.check("squeeze_db", sigma_db)
    return math.sinh(sigma_db * math.log(10.0) / 20.0) ** 2
