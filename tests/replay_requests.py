"""Replay CLI requests on two source trees and print every request whose output differs.

Run by hand, not by the test suite (its name does not match ``test_*.py``):

    python3 tests/replay_requests.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are directories that hold a ``fogsim`` package,
for instance the ``src`` of a ``git archive`` of the parent commit and this
checkout's ``src``.  Each tree runs every request in-process through
``fogsim.cli.main``, in a fresh interpreter of its own, and the two are
compared on exit code, stdout and stderr.  The requests are:

- the benchmark's seeded mixes of both workloads, 500 requests per workload
  and seed for seeds 1-3, read from ``perfbench/workloads.py`` without
  changing it;
- the benchmark's probe and out-of-domain requests;
- every request pinned in ``tests/test_golden_outputs.py``;
- ``figure`` requests that read a figure's grid settings from a ``--config``
  file, at values inside and outside their domains; the files are written
  once to a temporary directory that both trees read, so paths in messages
  match;
- a grid of loss coefficients and fiber lengths from 1e-320 to 1.7e308,
  plus 0, -3, +-inf and NaN, on every command that takes them;
- the losses at which the length optimum's value nears the float maximum,
  b = 3e154, 4e154, 1e155 and 1e156 dB/km, on ``optimize`` for C, S at
  10 dB, D at M = 16, P and E at M = 4, and E at M = 64 (S, P and E at
  10 dB), and on ``figure --id 3b`` and ``figure --id 5``;
- a grid of squeezing levels from 0 dB to the top of the domain and inf,
  through the regions where the closed form's Lambert W argument nears
  and then passes its branch point, on the commands that take squeezing,
  and on every caller of the closed form's stationarity exponent: ``ratio``
  at ``--eta 1`` and at ``--eta 0.9 --m 4``, ``optimize`` of P at M = 4
  and 64 (the only exponent that depends on M) and of E at M = 4;
- ``variance`` and ``simulate`` of designs C and E (M = 4, 10 dB) where
  the laser-only variance 1/(T^2 eta n) nears or leaves the floats: tiny
  transmissivities (down to 1e-320), time factors from 1e-200 to 1e200 s
  and laser photon numbers up to 1e300;
- ``variance`` and ``simulate`` at two points where both routes round the
  variance to the same subnormal float: S at 60 dB with ``--t 1e150 --eta
  0.999999 --n-v 1.7e8``, and C with ``--t 1e150 --eta 1 --n-v 1.7e8``;
- ``simulate`` at phases -0.7, 2.0, pi and 1e6, which give both signs of
  cos(phi) and sin(phi), for every design at each of the counts 1, 4 and
  64 that it takes (44 requests), with ``--eta 0.8`` and, for S, P and E,
  ``--squeeze-db 10``;
- the front end's own paths: ``--help``, ``-h``, no arguments, an unknown
  command, ``COMMAND --help`` for each of the six commands, a flag with no
  value (``variance --m``), an abbreviated flag (``variance --squeeze 10``),
  ``figure`` without ``--id``, and ``table1`` writing to a directory that
  does not exist (``--out /nonexistent/dir/t.csv``).

Each request runs once, whatever the number of sources it comes from.  The
script prints one block per request that differs and a summary line, and
exits 1 if any request differs.  Where both outputs of a differing request
carry ``numeric_length_km`` and ``length_opt_km``, the block gives the
numeric length's relative distance from the closed form's before and after,
and the summary counts the requests whose numeric length moved closer and
farther.  The summary also counts, for each tree, the requests that end in
the CLI's fallback line ``fogsim: error: <command>: <Class>Error: ...``,
which names no input, and the exit-0 outputs that carry a computed result
that is 0.0 or subnormal, and so has lost digits: a JSON field named for a
variance or ``m_continuous``, or a CSV cell of a variance or count-optimum
column.  Echoed inputs, grids and differences do not count.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The benchmark mixes replayed: these seeds, this many requests per workload and seed.
SEEDS = (1, 2, 3)
COUNT = 500

#: Runs the JSON list of argv on stdin through ``cli.main`` and prints a JSON
#: list of [exit code, stdout, stderr].  A warning is printed every time it is
#: raised, as in a fresh process, and an escaping exception is exit 1.
_WORKER = """
import contextlib, io, json, sys, warnings
warnings.simplefilter("always")
from fogsim import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

#: Loss coefficients and fiber lengths of the grid: every fourth decade from
#: 1e-320 to 1e308, the edges of double range, values met at the edges of
#: the length-resolved variance, and values outside every domain.
GRID = (
    *(f"1e{exponent}" for exponent in range(-320, 309, 4)),
    "1e-160", "1.4e-154", "1e-12", "0.5", "15", "1e154", "1e300", "7.9e307", "1e308", "1.7e308",
    "0", "-3", "inf", "-inf", "nan",
)
#: A coarser grid for the requests that take both b and L.
PAIR_GRID = ("1e-320", "1e-300", "1e-200", "1e-160", "1.4e-154", "1e-100", "1e-12", "0.5",
             "15", "1e6", "1e100", "1e154", "1e200", "1e300", "1.7e308", "0", "inf", "nan")
SQUEEZE = ("--squeeze-db", "10")
#: Losses, in dB/km, between the top of ``GRID``'s 1e154 and the decade where
#: the length optimum's value leaves the floats for every design.
TOP_LOSSES = ("3e154", "4e154", "1e155", "1e156")
#: The stderr line of an arithmetic error that no library guard names.
FALLBACK = re.compile(r"^fogsim: error: \w+: [A-Z]\w*Error: ", re.MULTILINE)
#: Squeezing levels in dB: the table's range, the levels where the closed
#: form loses accuracy or alternates between an error and a wrong value
#: (162.6-168.5), where ``lambert_w0`` rejects its argument (from 1548), the
#: top of the domain and the infinite-squeezing limit.
SQUEEZE_GRID = ("0", "10", "40", "80", "95", "120", "162.6", "165", "168.5", "200",
                "1547", "1548", "3076.5", "inf")
#: (--eta, --t, --n-v) at which 1/(T^2 eta n) is subnormal, overflows or
#: underflows, with a normal-range point of each for contrast.
TIME_FACTOR_CASES = tuple(
    (eta, t, n_v)
    for eta in ("1e-320", "1e-310", "2.2e-308", "1e-300", "1")
    for t in ("1e-200", "1e-160", "1e-155", "0.01", "1e150", "1e200")
    for n_v in ("1", "1e10", "1e100", "1e300")
)
#: (design flags, --t, --eta, --n-v) at which both routes round the variance
#: to the same subnormal float, 1.18e-314 for S and 5.9e-309 for C.
SUBNORMAL_POINTS = (
    (("--design", "S", "--squeeze-db", "60"), "1e150", "0.999999", "1.7e8"),
    (("--design", "C"), "1e150", "1", "1.7e8"),
)
#: Circuit phases: -0.7, 2.0 and pi between them give both signs of cos(phi)
#: and sin(phi), and 1e6 is a phase of many periods.
PHASES = ("-0.7", "2.0", "3.141592653589793", "1e6")
#: The CLI's commands, each asked for its help text.
COMMANDS = ("table1", "figure", "variance", "optimize", "ratio", "simulate")
#: Requests that stop in the front end: help, usage errors and an unwritable output.
FRONT_END = (
    ("--help",), ("-h",), (), ("plot",),
    *((command, "--help") for command in COMMANDS),
    ("variance", "--m"), ("variance", "--squeeze", "10"), ("figure",),
    ("table1", "--out", "/nonexistent/dir/t.csv"),
)
#: JSON fields and CSV columns that hold a computed variance or optimum.
RESULT_FIELD = re.compile(r"var|^(m_continuous|param_m_.*|classical.*|squeezed.*|design_.*)$")
#: (figure id, grid setting, value) of each configuration-file request.
CONFIG_CASES = (
    ("3a", "fig3a_points", "2"),
    ("3a", "fig3a_max_photons", "1e155"),
    ("3a", "fig3a_max_photons", "1.7976931348623157e308"),
    ("3b", "fig3b_max_length_km", "1e3"),
    ("3b", "fig3b_max_length_km", "-1"),
    ("6", "fig6_lengths_km", "5,inf"),
    ("6", "fig6_lengths_km", "0"),
    ("6", "fig6_max_m", "1"),
    ("6", "fig6_max_m", "100"),
    ("7", "fig7_max_m", "1"),
    ("7", "fig7_max_sigma_db", "0"),
    ("7", "fig7_max_sigma_db", "3076.5"),
)


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden_requests() -> list[list[str]]:
    """The pinned requests, read by running only the golden test module's assignments."""
    path = ROOT / "tests" / "test_golden_outputs.py"
    names: dict = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            exec(compile(ast.Module(body=[node], type_ignores=[]), str(path), "exec"), names)
    return [list(argv) for argv in
            (*names["DOCUMENT_DIGESTS"], *names["JSON_REQUESTS"], *names["SIMULATE_REQUESTS"])]


def _grid_requests() -> list[list[str]]:
    by_loss = [
        ["table1"], ["table1", "--format", "json"],
        *(["figure", "--id", figure_id] for figure_id in ("3b", "5", "6", "7")),
        *(["optimize", "--design", variant, *(SQUEEZE if variant in "SPE" else ())]
          for variant in "CSDPE"),
        ["optimize", "--design", "P", "--m", "4", *SQUEEZE],
        ["ratio", *SQUEEZE, "--length-km", "15"],
        ["variance", "--design", "E", "--m", "4", *SQUEEZE, "--length-km", "15"],
    ]
    by_length = [
        ["table1"],
        *(["optimize", "--design", variant, *(SQUEEZE if variant in "PE" else ())]
          for variant in "DPE"),
        ["variance", "--design", "D", "--m", "4", "--b", "0.5"],
    ]
    requests = [[*argv, "--b", b] for argv in by_loss for b in GRID]
    requests += [[*argv, "--fix-length" if argv[0] != "variance" else "--length-km", length]
                 for argv in by_length for length in GRID]
    requests += [
        [*argv, "--fix-length", length, "--b", b]
        for argv in by_length[:4]
        for length in PAIR_GRID
        for b in PAIR_GRID
    ]
    return requests


def _top_loss_requests() -> list[list[str]]:
    by_loss = [
        ["optimize", "--design", "C"],
        ["optimize", "--design", "S", *SQUEEZE],
        ["optimize", "--design", "D", "--m", "16"],
        *(["optimize", "--design", variant, "--m", "4", *SQUEEZE] for variant in "PE"),
        ["optimize", "--design", "E", "--m", "64", *SQUEEZE],
        ["figure", "--id", "3b"],
        ["figure", "--id", "5"],
    ]
    return [[*argv, "--b", b] for argv in by_loss for b in TOP_LOSSES]


def _squeeze_requests() -> list[list[str]]:
    by_squeezing = [
        ["ratio"],
        ["ratio", "--eta", "1"],
        ["ratio", "--eta", "0.9", "--m", "4"],
        *(["optimize", "--design", variant, *fix]
          for variant in "SEP" for fix in ((), ("--fix-length", "15"))),
        *(["optimize", "--design", "P", "--m", m] for m in ("4", "64")),
        ["optimize", "--design", "E", "--m", "4"],
        ["variance", "--design", "S", "--eta", "1"],
        ["simulate", "--design", "S", "--eta", "1"],
    ]
    return [[*argv, "--squeeze-db", sigma] for argv in by_squeezing for sigma in SQUEEZE_GRID]


def _time_factor_requests() -> list[list[str]]:
    designs = (("--design", "C"), ("--design", "E", "--m", "4", *SQUEEZE))
    return [
        [command, *design, "--eta", eta, "--t", t, "--n-v", n_v]
        for command in ("variance", "simulate") for design in designs
        for eta, t, n_v in TIME_FACTOR_CASES
    ] + [
        [command, *design, "--t", t, "--eta", eta, "--n-v", n_v]
        for command in ("variance", "simulate") for design, t, eta, n_v in SUBNORMAL_POINTS
    ]


def _phase_requests() -> list[list[str]]:
    counts = [(variant, "1") for variant in "CS"] + [(v, m) for v in "DPE" for m in ("1", "4", "64")]
    return [
        ["simulate", "--design", variant, "--m", m, "--eta", "0.8",
         *(SQUEEZE if variant in "SPE" else ()), "--phi", phi]
        for variant, m in counts for phi in PHASES
    ]


def _config_requests(directory: str) -> list[list[str]]:
    """Write one configuration file per case into ``directory``; the requests that read them."""
    requests = []
    for number, (figure_id, key, value) in enumerate(CONFIG_CASES):
        path = os.path.join(directory, f"case{number}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{key} = {value}\n")
        requests.append(["figure", "--id", figure_id, "--config", path])
    return requests


def requests(config_dir: str) -> list[tuple[str, ...]]:
    """Every request of the replay, each once, in a fixed order.

    The configuration-file requests write their files into ``config_dir``.
    """
    workloads = _module(ROOT / "perfbench" / "workloads.py")
    ops = [op for seed in SEEDS for workload in workloads.WORKLOADS
           for op in workloads.generate(workload, seed, COUNT)]
    ops += workloads.probe() + workloads.out_of_domain()
    every = [op["argv"] for op in ops] + _golden_requests() + _grid_requests() + _squeeze_requests()
    every += _top_loss_requests()
    every += _time_factor_requests()
    every += _phase_requests()
    every += _config_requests(config_dir)
    every += FRONT_END
    return list(dict.fromkeys(map(tuple, every)).keys())


def run(source: str, argvs: list[tuple[str, ...]]) -> list[list]:
    """Exit code, stdout and stderr of each request on the fogsim under ``source``."""
    result = subprocess.run(
        [sys.executable, "-c", _WORKER],
        input=json.dumps(argvs),
        env=dict(os.environ, PYTHONPATH=os.path.abspath(source)),
        capture_output=True,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        sys.exit(f"replay on {source} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def _first_difference(old: str, new: str) -> str:
    for line, (a, b) in enumerate(zip(old.splitlines(), new.splitlines()), 1):
        if a != b:
            return f"line {line}: {a!r} -> {b!r}"
    return f"{len(old.splitlines())} lines -> {len(new.splitlines())} lines"


def _length_error(out: str) -> float | None:
    """Relative distance of the numeric length optimum from the closed form's, if ``out`` has both."""
    try:
        fields = json.loads(out)
    except ValueError:
        return None
    if not isinstance(fields, dict) or not {"numeric_length_km", "length_opt_km"} <= fields.keys():
        return None
    return abs(fields["numeric_length_km"] - fields["length_opt_km"]) / fields["length_opt_km"]


def _lost_digits(code: int, out: str) -> bool:
    """Whether an exit-0 output carries a computed variance or optimum that is 0.0 or subnormal."""
    if code != 0:
        return False
    if out.startswith("# "):
        header, *rows = out.splitlines()[1:]
        pairs = [(name, float(cell)) for row in rows
                 for name, cell in zip(header.split(","), row.split(",")) if cell]
    else:
        try:
            records = json.loads(out)
        except ValueError:
            return False
        pairs = [pair for record in (records if isinstance(records, list) else [records])
                 for pair in record.items()]
    return any(RESULT_FIELD.search(name) and isinstance(value, float)
               and abs(value) < sys.float_info.min for name, value in pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as config_dir:
        argvs = requests(config_dir)
        old, new = run(args.old_src, argvs), run(args.new_src, argvs)
    differing = closer = farther = 0
    for argv, (old_code, old_out, old_err), (new_code, new_out, new_err) in zip(
        argvs, old, new, strict=True
    ):
        if (old_code, old_out, old_err) == (new_code, new_out, new_err):
            continue
        differing += 1
        print(" ".join(argv))
        if old_code != new_code:
            print(f"  exit: {old_code} -> {new_code}")
        if old_out != new_out:
            print(f"  stdout: {_first_difference(old_out, new_out)}")
        if old_err != new_err:
            print(f"  stderr: {old_err.strip()!r} -> {new_err.strip()!r}")
        old_error, new_error = _length_error(old_out), _length_error(new_out)
        if old_error is not None and new_error is not None:
            print(f"  length error: {old_error:.2g} -> {new_error:.2g}")
            closer += new_error < old_error
            farther += new_error > old_error
    fallbacks = [sum(bool(FALLBACK.search(err)) for _, _, err in tree) for tree in (old, new)]
    lost = [sum(_lost_digits(code, out) for code, out, _ in tree) for tree in (old, new)]
    print(f"{len(argvs)} requests, {differing} differ; "
          f"numeric length optima: {closer} moved closer, {farther} farther; "
          f"fallback lines: {fallbacks[0]} -> {fallbacks[1]}; "
          f"zero or subnormal results: {lost[0]} -> {lost[1]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
