"""Output checks for every request the benchmark makes.

A check returns ``None`` when the output is right and a reason otherwise.
Tolerances are set from the worst deviations measured at the commit that
introduced this benchmark, with the margin noted beside each; the figure
and table digests are the SHA-256 of that commit's output.
"""

from __future__ import annotations

import hashlib
import json
import math

#: table1 analytic-vs-numeric absdiff; worst measured 2.35e-5 (infinite dB).
TABLE1_ABSDIFF = 1e-4
#: optimal length, closed form vs golden section; worst measured 5.2e-12.
LENGTH_REL = 1e-10
#: simulate, circuit vs closed form; worst measured 3.2e-13 (M=64, eta
#: near 1, 28 dB); 7e-15 at moderate squeezing and loss.
SIMULATE_REL = 1e-11

#: SHA-256 of stdout for requests with fixed arguments.
DIGESTS = {
    ("table1",): "16a9c6389137323eda20d4c112814d0bb3e2368993d4b293efadcc17c386a6fc",
    ("table1", "--format", "json"): "0bf5f014021051c011f9448e9a89d38e9ba4909f132e97ac5d4dd406e3d07bf4",
    ("figure", "--id", "3a"): "1708ef8f4b0006828dc0497417677e039a08fc36ddcd9cdbe5645bd1aaa1ce13",
    ("figure", "--id", "3b"): "53c6c7e69b98b9b2c8e1d9b7e5e9ec6220e909e332e99c19af3822ca97f0bcee",
    ("figure", "--id", "5"): "3beb157b08a27580a2ccec0426f30c749d3307302e4c64ac58ba6af0bd5f77a3",
    ("figure", "--id", "6"): "6e282de767787152394199e87aa31834306580fd6d75c6c06c98df9817a9e2d1",
    ("figure", "--id", "7"): "d5270e7c5cf7683a867a58599eb4e1033f4337cc41df3eb949ec14a889ece9a8",
}


class Deviations:
    """Worst cross-route deviation seen per check, for the run report."""

    def __init__(self) -> None:
        self.worst: dict[str, float] = {}

    def within(self, key: str, value: float, tolerance: float) -> bool:
        if value > self.worst.get(key, -1.0):
            self.worst[key] = value
        return value <= tolerance


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _finite(record: dict, keys) -> str | None:
    for key in keys:
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            return f"field {key} is not a finite number: {value!r}"
    return None


def check_cli(op: dict, returncode: int, stdout: bytes, stderr: bytes, dev: Deviations) -> tuple[str, str | None]:
    """Classify one CLI request: ("ok" | "failed" | "incorrect", reason).

    "failed" is a request that did not complete as specified (a crash, or
    a wrong exit code); "incorrect" is one that completed with wrong output.
    """
    if op["expect"] == "usage":
        if returncode == 0:
            return "incorrect", "out-of-domain input accepted"
        if returncode != 2 or b"fogsim: error:" not in stderr or stdout:
            return "failed", f"exit {returncode}, expected 2 with 'fogsim: error:'"
        return "ok", None
    if returncode != 0:
        return "failed", f"exit {returncode}: {stderr.decode(errors='replace')[-200:]}"
    try:
        reason = _check_output(op, stdout, dev)
    except (KeyError, IndexError, TypeError) as exc:
        reason = f"output lacks an expected field: {exc!r}"
    return ("incorrect", reason) if reason else ("ok", None)


def _check_output(op: dict, stdout: bytes, dev: Deviations) -> str | None:
    key = tuple(op["argv"])
    if key in DIGESTS:
        if hashlib.sha256(stdout).hexdigest() != DIGESTS[key]:
            return "output digest differs from the recorded one"
    kind = op["kind"]
    if kind == "figure" or kind == "table1":
        return None
    try:
        record = strict_json(stdout.decode("utf-8"))
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if kind == "table1-json":
        for row in record:
            for column in ("improvement_length_opt_absdiff", "improvement_m_opt_absdiff"):
                if not dev.within("table1_absdiff", row[column], TABLE1_ABSDIFF):
                    return f"{column} {row[column]} at {row['sigma_db']} dB"
        return None
    if kind == "variance":
        bad = _finite(record, ("variance", "variance_normalized", "n_v", "eta", "time_factor_s"))
        if bad:
            return bad
        scaled = record["variance"] * record["time_factor_s"] ** 2 * record["n_v"]
        if not (record["variance"] > 0 and _rel(scaled, record["variance_normalized"]) <= 1e-12):
            return "variance_normalized is not variance * t^2 * n_v"
        return None
    if kind == "ratio":
        bad = _finite(record, ("ratio_optimal_length", "ratio_optimal_m",
                               "improvement_optimal_length", "improvement_optimal_m"))
        if bad:
            return bad
        if not 0.8359 <= record["ratio_optimal_length"] <= 1.0:
            return f"ratio_optimal_length {record['ratio_optimal_length']} outside [0.836, 1]"
        if not math.exp(-1.0) * (1 - 1e-12) <= record["ratio_optimal_m"] <= 1.0:
            return f"ratio_optimal_m {record['ratio_optimal_m']} outside [1/e, 1]"
        if _rel(record["improvement_optimal_m"] * record["ratio_optimal_m"], 1.0) > 1e-12:
            return "improvement_optimal_m is not 1 / ratio_optimal_m"
        return None
    if kind == "optimize-length":
        bad = _finite(record, ("length_opt_km", "numeric_length_km", "relative_length_difference"))
        if bad:
            return bad
        if not dev.within("length_rel", record["relative_length_difference"], LENGTH_REL):
            return f"relative_length_difference {record['relative_length_difference']}"
        return None
    if kind == "optimize-count":
        bad = _finite(record, ("m_best", "variance_best"))
        if bad:
            return bad
        if not 1 <= record["m_best"] <= 64:
            return f"m_best {record['m_best']} outside 1..64"
        continuous = record.get("m_continuous")
        if continuous is not None and 1.0 <= continuous <= 64.0:
            if record["m_best"] not in (record["m_floor"], record["m_ceil"]):
                return f"m_best {record['m_best']} is neither floor nor ceil of {continuous}"
        return None
    if kind == "simulate":
        bad = _finite(record, ("homodyne_variance", "estimator_variance_sim", "relative_deviation"))
        if bad:
            return bad
        if not dev.within("simulate_rel", record["relative_deviation"], SIMULATE_REL):
            return f"relative_deviation {record['relative_deviation']}"
        return None
    return f"no check for request kind {kind!r}"
