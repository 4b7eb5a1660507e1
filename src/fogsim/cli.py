"""Command-line front end.

Emits the constant-factor improvement table, figure data sets as CSV, and
single-point variance / optimization / ratio / simulation queries as JSON.

Commands
--------
``fogsim table1``
    Both rows of the improvement table (length-optimized and fixed-length
    count-optimized inverse sensitivity ratios) at 5, 10, 15, 20 and
    infinite dB of squeezing, each computed analytically and via the
    numeric optimizer, with the absolute difference.
``fogsim figure --id {3a,3b,5,6,7}``
    Deterministic CSV grids behind the standard plots.
``fogsim variance / optimize / ratio / simulate``
    JSON records for one configuration.

A flat ``key = value`` configuration file can be supplied with ``--config``;
command-line flags override file values.  Exit codes: 0 success, 2 usage or
configuration error, 3 numeric convergence failure.
"""

from __future__ import annotations

import json
import math
import sys

from . import analytic, designs, optimize
from .sagnac import DOMAIN, VARIANTS, db_to_photons, time_factor, transmissivity

#: Squeezing grid of the improvement table, in dB ("inf" allowed in configs).
TABLE_SIGMAS_DB = (5.0, 10.0, 15.0, 20.0, math.inf)

class ConfigError(ValueError):
    """A configuration file or flag combination cannot be used."""


def format_number(value: float) -> str:
    """Fixed CSV number format: 12 significant digits, scientific notation."""
    return f"{value:.11e}"


def _sweep(parameter: str, start: float, stop: float, steps: int, log: bool = False) -> list[float]:
    """``steps`` evenly spaced grid values from ``start`` to ``stop`` (log-spaced if ``log``)."""
    if steps < 2:
        raise ConfigError(f"sweep of {parameter} needs at least 2 steps")
    if log:
        if start <= 0 or stop <= 0:
            raise ConfigError(f"log sweep of {parameter} needs positive bounds")
        a, b = math.log10(start), math.log10(stop)
        return [10.0 ** (a + (b - a) * i / (steps - 1)) for i in range(steps)]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


#: Every configuration key with its type and default, in the order of the
#: CSV comment line.
_FIELDS: dict[str, tuple[type, object]] = {
    # physical constants block
    "wavelength_nm": (float, 1550.0),
    "radius_m": (float, 0.05),
    "b": (float, 0.5),
    # design block
    "design": (str, "C"),
    "m": (int, 1),
    "n_v": (float, 100.0),
    "squeeze_db": (str, None),
    "n_squeezed": (float, None),
    # task block
    "eta": (float, None),
    "phi": (float, 0.0),
    "length_km": (float, None),
    "fix_length_km": (float, None),
    "time_factor_s": (float, None),
    "m_max": (int, 64),
    "samples": (int, 1_000_000),
    "seed": (int, 1),
    "figure_id": (str, None),
    # presentation-only grid defaults (match the standard plots visually)
    "fig3a_max_photons": (float, 1e6),
    "fig3a_points": (int, 61),
    "fig3b_max_length_km": (float, 50.0),
    "fig3b_points": (int, 199),
    "fig6_lengths_km": (str, "5,15,30"),
    "fig6_max_m": (int, 16),
    "fig7_max_sigma_db": (float, 30.0),
    "fig7_max_m": (int, 16),
    # output block
    "out": (str, None),
    "format": (str, "csv"),
}


class RunConfig:
    """Resolved settings for one invocation (file values overridden by flags)."""

    def __init__(self) -> None:
        for key, (_, default) in _FIELDS.items():
            setattr(self, key, default)

    def apply(self, key: str, raw: str) -> None:
        """Set ``key`` from its text, parsed by the field's declared type."""
        if key not in _FIELDS:
            raise ConfigError(f"unknown configuration key: {key!r}")
        setattr(self, key, _parse(key, raw, _FIELDS[key][0]))

    def resolved_squeezed_photons(self) -> float:
        """Total squeezed photon number from either config route (0 if absent)."""
        if self.n_squeezed is not None and self.squeeze_db is not None:
            raise ConfigError("give either squeeze_db or n_squeezed, not both")
        if self.n_squeezed is not None:
            return self.n_squeezed
        if self.squeeze_db is not None:
            return db_to_photons(_parse("squeeze_db", self.squeeze_db, float))
        return 0.0

    def resolved_eta(self) -> float:
        """Transmissivity from --eta, or from the fiber model at L/M per coil."""
        if self.eta is not None:
            return self.eta
        if self.length_km is not None:
            return transmissivity(self.b, self.length_km / self.m)
        raise ConfigError("missing field: provide eta or length_km")

    def resolved_time_factor(self) -> float:
        """Per-interferometer time factor (seconds); 1.0 when underivable."""
        if self.time_factor_s is not None:
            return self.time_factor_s
        if self.length_km is not None:
            return time_factor(self.length_km / self.m, self.wavelength_nm, self.radius_m)
        return 1.0

    def fig6_lengths(self) -> list[float]:
        try:
            lengths = [float(tok) for tok in str(self.fig6_lengths_km).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"fig6_lengths_km expects comma-separated numbers, got {self.fig6_lengths_km!r}") from None
        if not lengths:
            raise ConfigError("fig6_lengths_km must list at least one length")
        return lengths


def _parse(key: str, raw: str, kind: type) -> object:
    """``raw`` as the field type ``kind`` (int, float or str)."""
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"configuration key {key!r} expects {expected}, got {raw!r}") from None


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(
                        f"{path}:{line_number}: expected 'key = value', got {line.strip()!r}"
                    )
                key, raw = (part.strip() for part in text.split("=", 1))
                entries[key] = raw
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    return entries


def resolve_config(flags: dict[str, str]) -> RunConfig:
    """RunConfig from defaults, then the config file, then explicit flags."""
    config = RunConfig()
    if flags.get("config"):
        for key, raw in load_config_file(flags["config"]).items():
            config.apply(key, raw)
    for key in _FIELDS:
        if key in flags:
            config.apply(key, flags[key])
    DOMAIN.check("m", config.m)
    return config


# ---------------------------------------------------------------------------
# CSV assembly
# ---------------------------------------------------------------------------

def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format_number(float(value))


def render_csv(comment: str, header: list[str], rows: list[list[object]]) -> str:
    """Deterministic CSV: comment line, header, then 12-significant-digit rows."""
    lines = [f"# {comment}", ",".join(header)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out}: {exc.strerror or exc}") from None


def _config_comment(config: RunConfig, **extra: object) -> str:
    parts = [f"{key}={value}" for key, value in sorted(extra.items())]
    # Full resolved configuration, minus output routing, so a data file is
    # reproducible from its own comment line.
    resolved = [f"{key}={getattr(config, key)}" for key in _FIELDS if key != "out"]
    return " ".join(["fogsim", *parts, *resolved])


# ---------------------------------------------------------------------------
# Improvement table
# ---------------------------------------------------------------------------

def table1_rows(config: RunConfig) -> list[list[object]]:
    """Analytic and numeric inverse sensitivity ratios at the table squeezings."""
    fixed_length = config.fix_length_km if config.fix_length_km is not None else 15.0
    rows: list[list[object]] = []
    for sigma in TABLE_SIGMAS_DB:
        n_s = db_to_photons(sigma)
        length_analytic = 1.0 / analytic.ratio_optimal_length(n_s)
        length_numeric = 1.0 / optimize.numeric_ratio_optimal_length(n_s, b=config.b)
        count_analytic = 1.0 / analytic.ratio_optimal_m(n_s)
        count_numeric = 1.0 / optimize.numeric_ratio_optimal_m(
            n_s, b=config.b, length_km=fixed_length
        )
        rows.append(
            [
                "inf" if math.isinf(sigma) else format_number(sigma),
                length_analytic,
                length_numeric,
                abs(length_analytic - length_numeric),
                count_analytic,
                count_numeric,
                abs(count_analytic - count_numeric),
            ]
        )
    return rows


def cmd_table1(config: RunConfig) -> None:
    """Constant-factor improvement table."""
    header = [
        "sigma_db",
        "improvement_length_opt_analytic",
        "improvement_length_opt_numeric",
        "improvement_length_opt_absdiff",
        "improvement_m_opt_analytic",
        "improvement_m_opt_numeric",
        "improvement_m_opt_absdiff",
    ]
    rows = table1_rows(config)
    if config.format == "json":
        records = [dict(zip(header, [row[0]] + [float(v) for v in row[1:]])) for row in rows]
        _write_output(json.dumps(records, indent=2, sort_keys=True) + "\n", config.out)
    else:
        _write_output(
            render_csv(_config_comment(config, command="table1"), header, rows),
            config.out,
        )


# ---------------------------------------------------------------------------
# Figure data sets
# ---------------------------------------------------------------------------

def figure_3a(config: RunConfig) -> tuple[list[str], list[list[object]]]:
    """Energy-split-optimized variance against total photons, per transmissivity."""
    etas = (1.0, 0.9, 0.99, 0.999)
    header = ["n_photons"]
    for eta in etas:
        header.extend([f"classical_eta_{eta}", f"squeezed_eta_{eta}"])
    rows = []
    for n in _sweep("n_photons", 1.0, config.fig3a_max_photons, config.fig3a_points, log=True):
        row: list[object] = [n]
        for eta in etas:
            row.append(analytic.classical_variance(1.0, eta, n))
            row.append(analytic.optimal_energy_split(n, eta).variance)
        rows.append(row)
    return header, rows


def figure_3b(config: RunConfig) -> tuple[list[str], list[list[object]]]:
    """Normalized variance against fiber length, plus the optimized parametric curve."""
    sigmas = (5.0, 10.0, 15.0, math.inf)
    header = ["length_km", "classical"]
    header.extend(
        "squeezed_infdb" if math.isinf(s) else f"squeezed_{s:g}db" for s in sigmas
    )
    header.extend(["param_sigma_db", "param_length_km", "param_variance"])
    lengths = _sweep("length_km", 0.5, config.fig3b_max_length_km, config.fig3b_points)
    parametric = _sweep("sigma_db", 0.0, 40.0, 81)
    rows = []
    for i, length in enumerate(lengths):
        row: list[object] = [length, analytic.variance_vs_length("C", config.b, length)]
        for sigma in sigmas:
            row.append(
                analytic.variance_vs_length("S", config.b, length, 1, db_to_photons(sigma))
            )
        if i < len(parametric):
            sigma = parametric[i]
            optimum = analytic.optimal_length("S", config.b, db_to_photons(sigma))
            row.extend([sigma, optimum.length_km, optimum.variance_normalized])
        else:
            row.extend([None, None, None])
        rows.append(row)
    return header, rows


def figure_5(config: RunConfig) -> tuple[list[str], list[list[object]]]:
    """Length-optimized normalized variance of the distributed designs.

    The product design appears twice: with the total squeezed energy fixed
    to one 10 dB source shared over the array, and with one 10 dB source
    per interferometer (which reproduces the entangled design exactly).
    """
    n_s = db_to_photons(10.0)
    header = ["m", "design_d", "design_p_shared_source", "design_p_per_mode", "design_e"]
    rows: list[list[object]] = []
    for m in (1, 2, 4, 8, 16):
        rows.append(
            [
                m,
                analytic.optimal_length("D", config.b, 0.0, m).variance_normalized,
                analytic.optimal_length("P", config.b, n_s, m).variance_normalized,
                analytic.optimal_length("P", config.b, m * n_s, m).variance_normalized,
                analytic.optimal_length("E", config.b, n_s, m).variance_normalized,
            ]
        )
    return header, rows


def figure_6(config: RunConfig) -> tuple[list[str], list[list[object]]]:
    """Fixed-length variance profiles against the interferometer count."""
    n_s = db_to_photons(10.0)
    lengths = config.fig6_lengths()
    header = ["m"]
    for length in lengths:
        tag = f"{length:g}km"
        header.extend([f"design_d_{tag}", f"design_p_{tag}", f"design_e_{tag}"])
    header.extend(
        [
            "param_length_km",
            "param_m_d",
            "param_var_d",
            "param_m_p",
            "param_var_p",
            "param_m_e",
            "param_var_e",
        ]
    )
    parametric_lengths = _sweep("length_km", 2.0, 40.0, 77)
    count = max(config.fig6_max_m, len(parametric_lengths))
    rows = []
    for i in range(count):
        row: list[object] = []
        if i < config.fig6_max_m:
            m = i + 1
            row.append(m)
            for length in lengths:
                row.append(analytic.variance_vs_length("D", config.b, length, m))
                row.append(analytic.variance_vs_length("P", config.b, length, m, n_s))
                row.append(analytic.variance_vs_length("E", config.b, length, m, n_s))
        else:
            row.extend([None] * (1 + 3 * len(lengths)))
        if i < len(parametric_lengths):
            length = parametric_lengths[i]
            d_opt = analytic.optimal_m("D", config.b, length)
            e_opt = analytic.optimal_m("E", config.b, length, n_s)
            p_opt = optimize.optimize_m_continuous("P", config.b, length, n_s, m_hi=1e4)
            row.extend(
                [
                    length,
                    d_opt.continuous,
                    d_opt.variance_continuous,
                    p_opt.x,
                    p_opt.value,
                    e_opt.continuous,
                    e_opt.variance_continuous,
                ]
            )
        else:
            row.extend([None] * 7)
        rows.append(row)
    return header, rows


def figure_7(config: RunConfig) -> tuple[list[str], list[list[object]]]:
    """Sensitivity-ratio surfaces over squeezing and interferometer count.

    Fixed total length (default 15 km): the per-coil transmissivity improves
    with the count, and every ratio is floored by 1 - eta.
    """
    length = config.fix_length_km if config.fix_length_km is not None else 15.0
    sigma_grid = _sweep("sigma_db", 0.0, config.fig7_max_sigma_db, 61)
    header = ["sigma_db", "m", "eta", "ratio_s_single", "ratio_p", "ratio_e", "one_minus_eta"]
    eta_single = transmissivity(config.b, length)
    rows = []
    for sigma in sigma_grid:
        n_s = db_to_photons(sigma)
        ratio_single = analytic.ratio_fixed_eta(n_s, eta_single)
        for m in range(1, config.fig7_max_m + 1):
            eta = transmissivity(config.b, length / m)
            rows.append(
                [
                    sigma,
                    m,
                    eta,
                    ratio_single,
                    analytic.ratio_product_fixed_eta(n_s, eta, m),
                    analytic.ratio_fixed_eta(n_s, eta),
                    1.0 - eta,
                ]
            )
    return header, rows


_FIGURE_BUILDERS = {
    "3a": figure_3a,
    "3b": figure_3b,
    "5": figure_5,
    "6": figure_6,
    "7": figure_7,
}


def cmd_figure(config: RunConfig) -> None:
    """Figure data set as CSV."""
    figure_id = config.figure_id
    header, rows = _FIGURE_BUILDERS[figure_id](config)
    comment = _config_comment(config, command="figure", id=figure_id)
    _write_output(render_csv(comment, header, rows), config.out)


# ---------------------------------------------------------------------------
# Single-point JSON commands
# ---------------------------------------------------------------------------

def _emit_json(record: dict, out: str | None) -> None:
    """Strict JSON: a non-finite number is an error, never NaN or Infinity."""
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        bad = sorted(key for key, value in record.items()
                     if isinstance(value, float) and not math.isfinite(value))
        raise ValueError(f"non-finite result: {', '.join(bad)}") from None
    _write_output(text + "\n", out)


def cmd_variance(config: RunConfig) -> None:
    """Estimator variance of one design."""
    n_s = config.resolved_squeezed_photons()
    eta = config.resolved_eta()
    t = config.resolved_time_factor()
    variance = analytic.design_variance(config.design, t, eta, config.m, config.n_v, n_s)
    _emit_json(
        {
            "design": config.design,
            "m": config.m,
            "n_v": config.n_v,
            "n_squeezed": n_s if math.isfinite(n_s) else "inf",
            "eta": eta,
            "time_factor_s": t,
            "variance": variance,
            "variance_normalized": variance * t**2 * config.n_v,
            "provenance": "analytic",
        },
        config.out,
    )


def cmd_ratio(config: RunConfig) -> None:
    """Quantum/classical sensitivity ratios."""
    n_s = config.resolved_squeezed_photons()
    try:
        eta: float | None = config.resolved_eta()
    except ConfigError:
        eta = None
    fixed_eta = None if eta is None else analytic.ratio_fixed_eta(n_s, eta)
    optimal_length = analytic.ratio_optimal_length(n_s)
    optimal_m = analytic.ratio_optimal_m(n_s)
    record = {
        "n_squeezed": n_s if math.isfinite(n_s) else "inf",
        "ratio_fixed_eta": fixed_eta,
        "ratio_optimal_length": optimal_length,
        "ratio_optimal_m": optimal_m,
        "improvement_optimal_length": 1.0 / optimal_length,
        "improvement_optimal_m": 1.0 / optimal_m,
        "provenance": "analytic",
    }
    if eta is not None and config.m > 1:
        record["ratio_product_fixed_eta"] = analytic.ratio_product_fixed_eta(
            n_s, eta, config.m
        )
    _emit_json(record, config.out)


def cmd_optimize(config: RunConfig) -> None:
    """Optimal length or count."""
    n_s = config.resolved_squeezed_photons()
    variant = config.design
    if config.fix_length_km is not None:
        length = config.fix_length_km
        search = optimize.optimize_m_integer(variant, config.b, length, n_s, config.m_max)
        record: dict[str, object] = {
            "design": variant,
            "b": config.b,
            "length_km": length,
            "m_best": search.m_best,
            "variance_best": search.variance_best,
            "provenance": "numeric-optimum",
        }
        if variant in ("D", "E"):
            reference = analytic.optimal_m(variant, config.b, length, n_s)
            record.update(
                {
                    "m_continuous": reference.continuous,
                    "variance_continuous": reference.variance_continuous,
                    "m_floor": reference.floor_candidate,
                    "m_ceil": reference.ceil_candidate,
                    "below_threshold": reference.below_threshold,
                }
            )
        if variant == "E":
            ratio = analytic.ratio_optimal_m(n_s)
            record["ratio_fixed_length"] = ratio
            record["improvement_fixed_length"] = 1.0 / ratio
        _emit_json(record, config.out)
    else:
        optimum = analytic.optimal_length(variant, config.b, n_s, config.m)
        numeric = optimize.optimize_length(variant, config.b, n_s, config.m)
        _emit_json(
            {
                "design": variant,
                "b": config.b,
                "m": config.m,
                "length_opt_km": optimum.length_km,
                "variance_normalized": optimum.variance_normalized,
                "numeric_length_km": numeric.x,
                "numeric_variance": numeric.value,
                "relative_length_difference": abs(numeric.x - optimum.length_km)
                / optimum.length_km,
                "provenance": "analytic",
            },
            config.out,
        )


def cmd_simulate(config: RunConfig) -> None:
    """Gaussian-circuit cross check."""
    # Inputs are resolved and checked in the order cmd_variance checks them.
    n_s = config.resolved_squeezed_photons()
    eta = config.resolved_eta()
    t = config.resolved_time_factor()
    design = designs.DesignConfig(config.design, config.m, config.n_v, n_s)
    result = designs.estimator_variance_sim(design, eta, t)
    stats = designs.build_and_run(design, config.phi, eta)
    reference = analytic.design_variance(
        design.variant, t, eta, design.m_interferometers, design.n_v, design.n_squeezed
    )
    _emit_json(
        {
            "design": design.variant,
            "m": design.m_interferometers,
            "n_v": design.n_v,
            "n_squeezed": design.n_squeezed,
            "eta": eta,
            "phi": config.phi,
            "time_factor_s": t,
            "homodyne_mean": stats.mean,
            "homodyne_variance": stats.variance,
            "slope": result.slope,
            "estimator_variance_sim": result.estimator_variance,
            "estimator_variance_analytic": reference,
            "relative_deviation": abs(result.estimator_variance - reference)
            / reference,
            "variance_normalized": result.variance_normalized,
            "provenance": "simulated",
        },
        config.out,
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "table1": cmd_table1,
    "figure": cmd_figure,
    "variance": cmd_variance,
    "optimize": cmd_optimize,
    "ratio": cmd_ratio,
    "simulate": cmd_simulate,
}

#: The RunConfig keys each command reads; each key is one flag of that
#: command, besides --config and --out.  Config files accept every key.
COMMAND_SETTINGS = {
    "table1": ("b", "fix_length_km", "format"),
    "figure": ("b", "figure_id"),
    "variance": ("b", "wavelength_nm", "radius_m", "design", "m", "n_v", "squeeze_db",
                 "n_squeezed", "eta", "length_km", "time_factor_s"),
    "optimize": ("b", "design", "m", "squeeze_db", "n_squeezed", "fix_length_km", "m_max"),
    "ratio": ("b", "m", "squeeze_db", "n_squeezed", "eta", "length_km"),
    "simulate": ("b", "wavelength_nm", "radius_m", "design", "m", "n_v", "squeeze_db",
                 "n_squeezed", "eta", "length_km", "phi", "time_factor_s"),
}

#: Help text of each flag, its spelling when it is not the key with dashes,
#: its allowed values and whether it must be given.  Flags carry no type:
#: RunConfig.apply parses their text like a config file's.
_FLAG_OPTIONS: dict[str, dict] = {
    "config": {"help": "flat key = value configuration file"},
    "out": {"help": "output path (default: stdout)"},
    "b": {"help": "fiber loss coefficient, dB/km"},
    "wavelength_nm": {"help": "optical wavelength, nm"},
    "radius_m": {"help": "coil radius, m"},
    "design": {"help": "gyroscope design", "choices": VARIANTS},
    "m": {"help": "number of interferometers"},
    "n_v": {"help": "per-fiber laser photons"},
    "squeeze_db": {"help": "squeezing in dB ('inf' allowed)"},
    "n_squeezed": {"help": "total squeezed photons"},
    "eta": {"help": "transmissivity of each interferometer"},
    "length_km": {"help": "total fiber length, km"},
    "phi": {"help": "interferometer phase, rad"},
    "fix_length_km": {"flag": "--fix-length", "help": "fixed total fiber length, km"},
    "m_max": {"help": "largest interferometer count searched"},
    "time_factor_s": {"flag": "--t", "help": "time factor per interferometer, s"},
    "figure_id": {"flag": "--id", "help": "figure, required", "required": True,
                  "choices": tuple(_FIGURE_BUILDERS)},
    "format": {"help": "output format", "choices": ("csv", "json")},
}


def _flag(key: str) -> str:
    return _FLAG_OPTIONS[key].get("flag", "--" + key.replace("_", "-"))


def _help(command: str | None) -> str:
    """Usage text of one command, or the command list when ``command`` is None."""
    lines = [f"usage: fogsim {command or 'COMMAND'} [FLAG VALUE ...]", ""]
    if command is None:
        lines += [f"  {name:<10}{run.__doc__}" for name, run in _COMMANDS.items()]
    else:
        lines += [_COMMANDS[command].__doc__, ""]
        for key in ("config", "out", *COMMAND_SETTINGS[command]):
            choices = ", ".join(_FLAG_OPTIONS[key].get("choices", ()))
            text = _FLAG_OPTIONS[key]["help"] + (f" ({choices})" if choices else "")
            lines.append(f"  {_flag(key):<18}{text}")
        lines.append(f"  {'-h, --help':<18}show this help")
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> tuple[str | None, dict[str, str] | None]:
    """(command, {key: flag text}) from ``argv``; the flags are None when help is asked for.

    A flag takes its value as ``--flag value`` or ``--flag=value``, is spelled
    exactly, and its last occurrence wins.  Anything else raises ConfigError.
    """
    if argv and argv[0] in ("-h", "--help"):
        return None, None
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise ConfigError(f"expected a command ({', '.join(_COMMANDS)}){got}")
    command, tokens = argv[0], iter(argv[1:])
    keys = {_flag(key): key for key in ("config", "out", *COMMAND_SETTINGS[command])}
    flags: dict[str, str] = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        flag, equals, value = token.partition("=")
        if flag not in keys:
            raise ConfigError(f"{command}: unknown flag {flag!r}")
        if not equals:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"{command}: flag {flag} expects a value")
        choices = _FLAG_OPTIONS[keys[flag]].get("choices")
        if choices and value not in choices:
            raise ConfigError(f"{command}: {flag} takes one of {', '.join(choices)}, got {value!r}")
        flags[keys[flag]] = value
    for flag, key in keys.items():
        if _FLAG_OPTIONS[key].get("required") and key not in flags:
            raise ConfigError(f"{command}: flag {flag} is required")
    return command, flags


def main(argv: list[str] | None = None) -> int:
    try:
        command, flags = parse_args(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_help(command))
            return 0
        _COMMANDS[command](resolve_config(flags))
    except optimize.ConvergenceError as exc:
        print(f"fogsim: convergence error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fogsim: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Overflow or division by zero that no library guard names.
        print(f"fogsim: error: {command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
