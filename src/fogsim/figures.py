"""Figure data sets: the columns behind figures 3a, 3b, 5, 6 and 7.

Only ``fogsim figure`` imports this module, so no other command compiles
it.  ``figure_<id>`` builds the figure of each id the CLI's ``--id``
accepts, from the run's resolved settings (``b``, ``fix_length_km`` and the
``fig*`` grid settings), as columns for ``cli.render_csv``: column name ->
values, in header order.
"""

import math
from collections.abc import Sequence

# Called through their modules, so that a tracer that wraps the layers'
# functions after this import still sees every call.
from . import analytic, optimize, sagnac

#: Column name -> values, in header order, as ``cli.render_csv`` writes them.
_Columns = dict[str, Sequence[object]]


def _sweep(parameter: str, start: float, stop: float, steps: int, log: bool = False) -> list[float]:
    """``steps`` evenly spaced grid values from ``start`` to ``stop`` (log-spaced if ``log``)."""
    if steps < 2:
        raise ValueError(f"sweep of {parameter} needs at least 2 steps")
    if log:
        if start <= 0 or stop <= 0:
            raise ValueError(f"log sweep of {parameter} needs positive bounds")
        a, b = math.log10(start), math.log10(stop)
        try:
            return [10.0 ** (a + (b - a) * i / (steps - 1)) for i in range(steps)]
        except OverflowError:
            # 10 ** log10(x) can round past the float maximum at an end near it.
            raise ValueError(f"log sweep of {parameter} overflows at its end {stop}") from None
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def fig6_lengths(text: str) -> list[float]:
    """The fiber lengths of figure 6 from the ``fig6_lengths_km`` setting's text."""
    try:
        lengths = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"fig6_lengths_km expects comma-separated numbers, got {text!r}") from None
    if not lengths:
        raise ValueError("fig6_lengths_km must list at least one length")
    # Figure 6 names its columns by each length to 6 significant digits.
    named: dict[str, float] = {}
    for length in lengths:
        tag = f"{length:g}km"
        if tag in named:
            raise ValueError(
                f"fig6_lengths_km gives {named[tag]!r} and {length!r} the same "
                f"column name design_d_{tag}"
            )
        named[tag] = length
    return lengths


def figure_3a(config) -> _Columns:
    """Energy-split-optimized variance against total photons, per transmissivity."""
    photons = _sweep("n_photons", 1.0, config.fig3a_max_photons, config.fig3a_points, log=True)
    columns: _Columns = {"n_photons": photons}
    for eta in (1.0, 0.9, 0.99, 0.999):
        columns[f"classical_eta_{eta}"] = [
            analytic.classical_variance(1.0, eta, n) for n in photons
        ]
        columns[f"squeezed_eta_{eta}"] = [
            analytic.optimal_energy_split(n, eta).value for n in photons
        ]
    return columns


def figure_3b(config) -> _Columns:
    """Normalized variance against fiber length, plus the optimized parametric curve."""
    lengths = _sweep("length_km", 0.5, config.fig3b_max_length_km, config.fig3b_points)
    columns: _Columns = {
        "length_km": lengths,
        "classical": [analytic.variance_vs_length("C", config.b, length) for length in lengths],
    }
    for sigma in (5.0, 10.0, 15.0, math.inf):
        columns[f"squeezed_{sigma:g}db"] = [
            analytic.variance_vs_length("S", config.b, length, 1, sagnac.db_to_photons(sigma))
            for length in lengths
        ]
    parametric = _sweep("sigma_db", 0.0, 40.0, 81)
    optima = [
        analytic.optimal_length("S", config.b, sagnac.db_to_photons(sigma)) for sigma in parametric
    ]
    columns["param_sigma_db"] = parametric
    columns["param_length_km"] = [optimum.x for optimum in optima]
    columns["param_variance"] = [optimum.value for optimum in optima]
    return columns


def figure_5(config) -> _Columns:
    """Length-optimized normalized variance of the distributed designs.

    The product design appears twice: with the total squeezed energy fixed
    to one 10 dB source shared over the array, and with one 10 dB source
    per interferometer (which reproduces the entangled design exactly).
    """
    n_s = sagnac.db_to_photons(10.0)
    counts = (1, 2, 4, 8, 16)

    def variance(variant: str, n_squeezed: float, m: int) -> float:
        return analytic.optimal_length(variant, config.b, n_squeezed, m).value

    return {
        "m": counts,
        "design_d": [variance("D", 0.0, m) for m in counts],
        "design_p_shared_source": [variance("P", n_s, m) for m in counts],
        "design_p_per_mode": [variance("P", m * n_s, m) for m in counts],
        "design_e": [variance("E", n_s, m) for m in counts],
    }


def figure_6(config) -> _Columns:
    """Fixed-length variance profiles against the interferometer count."""
    n_s = sagnac.db_to_photons(10.0)
    lengths = fig6_lengths(config.fig6_lengths_km)
    parametric_lengths = _sweep("length_km", 2.0, 40.0, 77)
    if config.fig6_max_m < 1:
        raise ValueError(f"fig6_max_m must be at least 1, got {config.fig6_max_m}")
    counts = range(1, config.fig6_max_m + 1)
    columns: _Columns = {"m": counts}
    for length in lengths:
        for variant, n_squeezed in (("D", 0.0), ("P", n_s), ("E", n_s)):
            columns[f"design_{variant.lower()}_{length:g}km"] = [
                analytic.variance_vs_length(variant, config.b, length, m, n_squeezed)
                for m in counts
            ]
    d_opt = [analytic.optimal_m("D", config.b, length) for length in parametric_lengths]
    e_opt = [analytic.optimal_m("E", config.b, length, n_s) for length in parametric_lengths]
    p_opt = [
        optimize.optimize_m_continuous("P", config.b, length, n_s, m_hi=1e4)
        for length in parametric_lengths
    ]
    columns.update(
        {
            "param_length_km": parametric_lengths,
            "param_m_d": [optimum.x for optimum in d_opt],
            "param_var_d": [optimum.value for optimum in d_opt],
            "param_m_p": [optimum.x for optimum in p_opt],
            "param_var_p": [optimum.value for optimum in p_opt],
            "param_m_e": [optimum.x for optimum in e_opt],
            "param_var_e": [optimum.value for optimum in e_opt],
        }
    )
    return columns


def figure_7(config) -> _Columns:
    """Sensitivity-ratio surfaces over squeezing and interferometer count.

    Fixed total length (default 15 km): the per-coil transmissivity improves
    with the count, and every ratio is floored by 1 - eta.  One row per
    (squeezing, count) pair, the count varying fastest.
    """
    length = config.fix_length_km if config.fix_length_km is not None else 15.0
    sigmas = _sweep("sigma_db", 0.0, config.fig7_max_sigma_db, 61)
    if config.fig7_max_m < 1:
        raise ValueError(f"fig7_max_m must be at least 1, got {config.fig7_max_m}")
    counts = range(1, config.fig7_max_m + 1)
    eta_single = sagnac.transmissivity(config.b, length)
    etas = [sagnac.transmissivity(config.b, length / m) for m in counts]
    photons = [sagnac.db_to_photons(sigma) for sigma in sigmas]
    ratio_single = [analytic.ratio_fixed_eta("S", eta_single, 1, n_s) for n_s in photons]
    grid = [
        (sigma, n_s, single, m, eta)
        for sigma, n_s, single in zip(sigmas, photons, ratio_single)
        for m, eta in zip(counts, etas)
    ]
    return {
        "sigma_db": [sigma for sigma, _, _, _, _ in grid],
        "m": [m for _, _, _, m, _ in grid],
        "eta": [eta for _, _, _, _, eta in grid],
        "ratio_s_single": [single for _, _, single, _, _ in grid],
        "ratio_p": [analytic.ratio_fixed_eta("P", eta, m, n_s) for _, n_s, _, m, eta in grid],
        "ratio_e": [analytic.ratio_fixed_eta("E", eta, m, n_s) for _, n_s, _, m, eta in grid],
        "one_minus_eta": [1.0 - eta for _, _, _, _, eta in grid],
    }
