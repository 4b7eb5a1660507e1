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
    Deterministic CSV grids behind the standard plots, built by ``fogsim.figures``.
``fogsim variance / optimize / ratio / simulate``
    JSON records for one configuration.

A flat ``key = value`` configuration file can be supplied with ``--config``;
command-line flags override file values.  Exit codes: 0 success, 2 usage or
configuration error.
"""

import json
import math
import sys
from collections.abc import Sequence
from itertools import zip_longest

from . import analytic, designs, optimize
from .sagnac import DOMAIN, VARIANTS, db_to_photons, time_factor, transmissivity

#: Squeezing grid of the improvement table, in dB; inf is the infinite-squeezing limit.
_TABLE_SIGMAS_DB = (5.0, 10.0, 15.0, 20.0, math.inf)

def _format_number(value: float) -> str:
    """Fixed CSV number format: 12 significant digits, scientific notation."""
    return f"{value:.11e}"


class _RunConfig:
    """Resolved settings for one invocation (file values overridden by flags)."""

    def __init__(self) -> None:
        for key, (_, default, *_) in _SETTINGS.items():
            setattr(self, key, default)

    def apply(self, key: str, raw: str) -> None:
        """Set ``key`` from its text, parsed by the setting's declared type or
        checked against its allowed values."""
        if key not in _SETTINGS:
            raise ValueError(f"unknown configuration key: {key!r}")
        kind = _SETTINGS[key][0]
        if isinstance(kind, tuple):
            if raw in kind:
                setattr(self, key, raw)
                return
            expected = f"one of {', '.join(kind)}"
        else:
            try:
                setattr(self, key, kind(raw))
                return
            except ValueError:
                expected = "an integer" if kind is int else "a number"
        raise ValueError(f"configuration key {key!r} expects {expected}, got {raw!r}")

    def resolved_squeezed_photons(self) -> float:
        """Total squeezed photon number from either config route (0 if absent)."""
        if self.n_squeezed is not None and self.squeeze_db is not None:
            raise ValueError("give either squeeze_db or n_squeezed, not both")
        if self.n_squeezed is not None:
            return self.n_squeezed
        if self.squeeze_db is not None:
            return db_to_photons(self.squeeze_db)
        return 0.0

    def resolved_eta(self) -> float:
        """Transmissivity from --eta, or from the fiber model at L/M per coil."""
        if self.eta is not None:
            return self.eta
        if self.length_km is not None:
            return transmissivity(self.b, self.length_km / self.m)
        raise ValueError("missing field: provide eta or length_km")

    def resolved_time_factor(self) -> float:
        """Per-interferometer time factor (seconds); 1.0 when underivable."""
        if self.time_factor_s is not None:
            return self.time_factor_s
        if self.length_km is not None:
            return time_factor(self.length_km / self.m, self.wavelength_nm, self.radius_m)
        return 1.0

def _load_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValueError(
                        f"{path}:{line_number}: expected 'key = value', got {line.strip()!r}"
                    )
                key, raw = (part.strip() for part in text.split("=", 1))
                entries[key] = raw
    except OSError as exc:
        raise ValueError(f"cannot read configuration file {path}: {exc}") from exc
    return entries


def _resolve_config(flags: dict[str, str]) -> _RunConfig:
    """_RunConfig from defaults, then the config file, then explicit flags."""
    config = _RunConfig()
    if flags.get("config"):
        for key, raw in _load_config_file(flags["config"]).items():
            config.apply(key, raw)
    for key in _SETTINGS:
        if key in flags:
            config.apply(key, flags[key])
    DOMAIN.check("m", config.m)
    return config


# ---------------------------------------------------------------------------
# CSV documents: the layout, the improvement table and the figures
# ---------------------------------------------------------------------------

#: A table or figure: column name -> values, in header order.  Columns may
#: differ in length; a shorter one ends in blank cells.
_Columns = dict[str, Sequence[object]]


def _rows(columns: _Columns) -> zip_longest:
    """The rows of ``columns``, with None where a shorter column has ended."""
    return zip_longest(*columns.values())


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return _format_number(float(value))


def render_csv(comment: str, columns: _Columns) -> str:
    """Deterministic CSV: comment line, header, then 12-significant-digit rows."""
    lines = [f"# {comment}", ",".join(columns)]
    lines.extend(",".join(_cell(value) for value in row) for row in _rows(columns))
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {out}: {exc.strerror or exc}") from None


def _config_comment(config: _RunConfig, **extra: object) -> str:
    parts = [f"{key}={value}" for key, value in sorted(extra.items())]
    # Full resolved configuration, minus output routing, so a data file is
    # reproducible from its own comment line.
    resolved = [f"{key}={getattr(config, key)}" for key in _SETTINGS if key != "out"]
    return " ".join(["fogsim", *parts, *resolved])


def _table1_columns(config: _RunConfig) -> _Columns:
    """Analytic and numeric inverse sensitivity ratios at the table squeezings."""
    fixed_length = config.fix_length_km if config.fix_length_km is not None else 15.0
    classical_length = optimize.optimize_length("C", config.b)
    classical_count = optimize.optimize_m_continuous("D", config.b, fixed_length)

    def improvements(sigma: float) -> tuple[float, float, float, float]:
        n_s = db_to_photons(sigma)
        quantum_length = optimize.optimize_length("S", config.b, n_s)
        quantum_count = optimize.optimize_m_continuous("E", config.b, fixed_length, n_s)
        # The inverse of the quantum/classical ratio, not classical/quantum:
        # the two differ in the last bit.
        return (
            1.0 / analytic.ratio_optimal_length(n_s),
            1.0 / (quantum_length.value / classical_length.value),
            1.0 / analytic.ratio_optimal_m(n_s),
            1.0 / (quantum_count.value / classical_count.value),
        )

    length_analytic, length_numeric, count_analytic, count_numeric = zip(
        *map(improvements, _TABLE_SIGMAS_DB)
    )
    return {
        # Text, so that JSON records "inf" rather than a non-finite number.
        "sigma_db": [_format_number(sigma) for sigma in _TABLE_SIGMAS_DB],
        "improvement_length_opt_analytic": length_analytic,
        "improvement_length_opt_numeric": length_numeric,
        "improvement_length_opt_absdiff": [
            abs(a - n) for a, n in zip(length_analytic, length_numeric)
        ],
        "improvement_m_opt_analytic": count_analytic,
        "improvement_m_opt_numeric": count_numeric,
        "improvement_m_opt_absdiff": [abs(a - n) for a, n in zip(count_analytic, count_numeric)],
    }


def _cmd_table1(config: _RunConfig) -> str:
    """Constant-factor improvement table."""
    columns = _table1_columns(config)
    if config.format == "json":
        return _json([dict(zip(columns, row)) for row in _rows(columns)])
    return render_csv(_config_comment(config, command="table1"), columns)


def _cmd_figure(config: _RunConfig) -> str:
    """Figure data set as CSV."""
    if config.figure_id is None:
        raise ValueError("figure: flag --id is required")
    from . import figures  # compiled by this command alone

    columns = getattr(figures, f"figure_{config.figure_id}")(config)
    return render_csv(_config_comment(config, command="figure", id=config.figure_id), columns)


# ---------------------------------------------------------------------------
# Single-point JSON commands
# ---------------------------------------------------------------------------

def _json(record: dict | list[dict]) -> str:
    """Strict JSON of one record or a list of them: a non-finite number is an
    error naming its key, never NaN or Infinity."""
    try:
        text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        records = record if isinstance(record, list) else [record]
        bad = sorted({key for entry in records for key, value in entry.items()
                      if isinstance(value, float) and not math.isfinite(value)})
        raise ValueError(f"non-finite result: {', '.join(bad)}") from None
    return text + "\n"


def _design_point(config: _RunConfig) -> tuple[float, float, float]:
    """Squeezed photons, transmissivity and time factor, resolved and checked in that order."""
    return config.resolved_squeezed_photons(), config.resolved_eta(), config.resolved_time_factor()


def _normalized(variance: float, t: float, n_v: float, eta: float) -> float:
    """The dimensionless variance * T^2 * n_v, or an error naming the transmissivity."""
    return DOMAIN.result(variance * (t * t) * n_v, "transmissivity {} puts the normalized "
                         "variance out of floating-point range", eta)


def _cmd_variance(config: _RunConfig) -> str:
    """Estimator variance of one design."""
    n_s, eta, t = _design_point(config)
    variance = analytic.design_variance(config.design, t, eta, config.m, config.n_v, n_s)
    return _json(
        {
            "design": config.design,
            "m": config.m,
            "n_v": config.n_v,
            "n_squeezed": n_s if math.isfinite(n_s) else "inf",
            "eta": eta,
            "time_factor_s": t,
            "variance": variance,
            "variance_normalized": _normalized(variance, t, config.n_v, eta),
            "provenance": "analytic",
        }
    )


def _cmd_ratio(config: _RunConfig) -> str:
    """Quantum/classical sensitivity ratios."""
    n_s = config.resolved_squeezed_photons()
    eta = config.resolved_eta() if config.eta is not None or config.length_km is not None else None
    fixed_eta = None if eta is None else analytic.ratio_fixed_eta("S", eta, 1, n_s)
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
        record["ratio_product_fixed_eta"] = analytic.ratio_fixed_eta("P", eta, config.m, n_s)
    return _json(record)


def _cmd_optimize(config: _RunConfig) -> str:
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
            "m_best": search.x,
            "variance_best": search.value,
            "provenance": "numeric-optimum",
        }
        if variant in ("D", "E"):
            continuous = analytic.optimal_m(variant, config.b, length, n_s)
            record.update(
                {
                    "m_continuous": continuous.x,
                    "variance_continuous": continuous.value,
                    "m_floor": max(1, math.floor(continuous.x)),
                    "m_ceil": max(1, math.ceil(continuous.x)),
                    "below_threshold": continuous.x < 1.0,
                }
            )
        if variant == "E":
            ratio = analytic.ratio_optimal_m(n_s)
            record["ratio_fixed_length"] = ratio
            record["improvement_fixed_length"] = 1.0 / ratio
        return _json(record)
    optimum = analytic.optimal_length(variant, config.b, n_s, config.m)
    numeric = optimize.optimize_length(variant, config.b, n_s, config.m)
    return _json(
        {
            "design": variant,
            "b": config.b,
            "m": config.m,
            "length_opt_km": optimum.x,
            "variance_normalized": optimum.value,
            "numeric_length_km": numeric.x,
            "numeric_variance": numeric.value,
            "relative_length_difference": abs(numeric.x - optimum.x) / optimum.x,
            "provenance": "analytic",
        }
    )


def _cmd_simulate(config: _RunConfig) -> str:
    """Gaussian-circuit cross check."""
    n_s, eta, t = _design_point(config)
    # The design, then the closed form, name an input out of range before the circuit runs.
    design = designs.DesignConfig(config.design, config.m, config.n_v, n_s)
    reference = analytic.design_variance(
        design.variant, t, eta, design.m_interferometers, design.n_v, design.n_squeezed
    )
    _normalized(reference, t, design.n_v, eta)
    result = designs.estimator_variance_sim(design, eta, t)
    stats = designs.build_and_run(design, config.phi, eta)
    return _json(
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
        }
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

#: Every setting, in the order of the CSV comment line: its type, or the
#: tuple of its allowed values; its default; and, for a setting some command
#: takes as a flag, its help text and its flag when that is not the key with
#: dashes.  A flag's text is parsed like the same key in a config file.
_SETTINGS: dict[str, tuple] = {
    # physical constants block
    "wavelength_nm": (float, 1550.0, "optical wavelength, nm"),
    "radius_m": (float, 0.05, "coil radius, m"),
    "b": (float, 0.5, "fiber loss coefficient, dB/km"),
    # design block
    "design": (VARIANTS, "C", "gyroscope design"),
    "m": (int, 1, "number of interferometers"),
    "n_v": (float, 100.0, "per-fiber laser photons"),
    "squeeze_db": (float, None, "squeezing in dB ('inf' allowed)"),
    "n_squeezed": (float, None, "total squeezed photons"),
    # task block
    "eta": (float, None, "transmissivity of each interferometer"),
    "phi": (float, 0.0, "interferometer phase, rad"),
    "length_km": (float, None, "total fiber length, km"),
    "fix_length_km": (float, None, "fixed total fiber length, km", "--fix-length"),
    "time_factor_s": (float, None, "time factor per interferometer, s", "--t"),
    "m_max": (int, 64, "largest interferometer count searched"),
    "samples": (int, 1_000_000),
    "seed": (int, 1),
    "figure_id": (("3a", "3b", "5", "6", "7"), None, "figure, required", "--id"),
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
    "out": (str, None, "output path (default: stdout)"),
    "format": (("csv", "json"), "csv", "output format"),
}

#: Each command's function, which returns the document it writes, and the
#: _RunConfig keys it reads; each key is one flag of that command, besides
#: --config and --out.  Config files accept every key.
_COMMANDS = {
    "table1": (_cmd_table1, ("b", "fix_length_km", "format")),
    "figure": (_cmd_figure, ("b", "figure_id")),
    "variance": (_cmd_variance, ("b", "wavelength_nm", "radius_m", "design", "m", "n_v",
                                 "squeeze_db", "n_squeezed", "eta", "length_km", "time_factor_s")),
    "optimize": (_cmd_optimize, ("b", "design", "m", "squeeze_db", "n_squeezed", "fix_length_km",
                                 "m_max")),
    "ratio": (_cmd_ratio, ("b", "m", "squeeze_db", "n_squeezed", "eta", "length_km")),
    "simulate": (_cmd_simulate, ("b", "wavelength_nm", "radius_m", "design", "m", "n_v",
                                 "squeeze_db", "n_squeezed", "eta", "length_km", "phi",
                                 "time_factor_s")),
}


def _flag(key: str) -> str:
    row = _SETTINGS[key]
    return row[3] if len(row) > 3 else "--" + key.replace("_", "-")


def _help(command: str | None) -> str:
    """Usage text of one command, or the command list when ``command`` is None."""
    lines = [f"usage: fogsim {command or 'COMMAND'} [FLAG VALUE ...]", ""]
    if command is None:
        lines += [f"  {name:<10}{run.__doc__}" for name, (run, _) in _COMMANDS.items()]
    else:
        run, keys = _COMMANDS[command]
        lines += [run.__doc__, "", f"  {'--config':<18}flat key = value configuration file"]
        for key in ("out", *keys):
            kind, _, text, *_ = _SETTINGS[key]
            choices = f" ({', '.join(kind)})" if isinstance(kind, tuple) else ""
            lines.append(f"  {_flag(key):<18}{text}{choices}")
        lines.append(f"  {'-h, --help':<18}show this help")
    return "\n".join(lines) + "\n"


def _parse_args(argv: list[str]) -> tuple[str | None, dict[str, str] | None]:
    """(command, {key: flag text}) from ``argv``; the flags are None when help is asked for.

    A flag takes its value as ``--flag value`` or ``--flag=value``, is spelled
    exactly, and its last occurrence wins.  Anything else raises ValueError.
    """
    if argv and argv[0] in ("-h", "--help"):
        return None, None
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}){got}")
    command, tokens = argv[0], iter(argv[1:])
    keys = {"--config": "config", **{_flag(key): key for key in ("out", *_COMMANDS[command][1])}}
    flags: dict[str, str] = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        flag, equals, value = token.partition("=")
        if flag not in keys:
            raise ValueError(f"{command}: unknown flag {flag!r}")
        if not equals:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{command}: flag {flag} expects a value")
        flags[keys[flag]] = value
    return command, flags


def main(argv: list[str] | None = None) -> int:
    try:
        command, flags = _parse_args(sys.argv[1:] if argv is None else argv)
        if flags is None:
            sys.stdout.write(_help(command))
            return 0
        config = _resolve_config(flags)
        _write_output(_COMMANDS[command][0](config), config.out)
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
