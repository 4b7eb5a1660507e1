"""Import-time guards.  The package, the CLI and every command run without
numpy, which only the test suite's oracles use; importing the CLI loads
every layer but no argument-parsing library; and the layers' records are
immutable tuples, built without generated dataclass code."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import fogsim
from fogsim import analytic, cli, designs, gaussian, optimize, sagnac

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fogsim.__file__)))


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this fogsim."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SOURCE_ROOT),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_pure_routes_run_without_numpy():
    # A None entry in sys.modules makes every later ``import numpy`` fail.
    result = _python(
        'import sys\nsys.modules["numpy"] = None\n'
        "import fogsim\n"
        "from fogsim import analytic, optimize, sagnac\n"
        "n_s = sagnac.db_to_photons(10)\n"
        "print(optimize.numeric_ratio_optimal_length(n_s))\n"
        "print(optimize.optimize_m_integer('P', 0.5, 15, n_s).m_best)\n"
        "print(analytic.optimal_m('E', 0.5, 15, n_s).chosen)\n"
    )
    assert result.returncode == 0, result.stderr
    # The same numbers as in this process, where numpy is loaded.
    n_s = sagnac.db_to_photons(10)
    expected = [
        optimize.numeric_ratio_optimal_length(n_s),
        optimize.optimize_m_integer("P", 0.5, 15, n_s).m_best,
        analytic.optimal_m("E", 0.5, 15, n_s).chosen,
    ]
    assert result.stdout.split() == [str(value) for value in expected]


@pytest.mark.parametrize("module", ["fogsim", "fogsim.cli"])
def test_import_leaves_numpy_unloaded(module):
    result = _python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_loads_every_layer_and_no_argument_parser():
    result = _python(
        "import json, sys, fogsim.cli\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('fogsim.')\n"
        "                        or name in ('argparse', 'gettext'))))"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [
        f"fogsim.{layer}" for layer in ("analytic", "cli", "designs", "gaussian", "optimize", "sagnac")
    ]


def test_scalar_problem_is_the_only_dataclass():
    modules = (analytic, cli, designs, gaussian, optimize, sagnac)
    classes = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("fogsim.")
    }
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == [optimize.ScalarProblem]


#: One instance of each result and configuration record of the layers.
RECORDS = [
    analytic.optimal_energy_split(100.0, 0.9),
    analytic.optimal_length("S", 0.5, 10.0),
    analytic.optimal_m("E", 0.5, 15.0, 10.0),
    optimize.optimize_length("C", 0.5),
    optimize.optimize_m_integer("P", 0.5, 15.0, 10.0),
    gaussian.vacuum_state(),
    gaussian.SymplecticTransform(((1.0, 0.0), (0.0, 1.0))),
    gaussian.HomodyneResult(0.0, 0.25),
    designs.DesignConfig("C"),
    designs.estimator_variance_sim(designs.DesignConfig("C"), 0.9, 1.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_every_record_class_is_covered():
    assert {type(record).__name__ for record in RECORDS} == {
        "EnergySplit", "LengthOptimum", "IntegerOptimum", "ScalarMinimum", "CountSearchResult",
        "GaussianState", "SymplecticTransform", "HomodyneResult", "DesignConfig", "CircuitResult",
    }


#: One request of every command; simulate for each multi-port design.
CLI_REQUESTS = [
    ["table1"],
    ["table1", "--format", "json"],
    *(["figure", "--id", figure_id] for figure_id in ("3a", "3b", "5", "6", "7")),
    ["variance", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "0.8"],
    ["optimize", "--design", "S", "--squeeze-db", "10"],
    ["optimize", "--design", "E", "--fix-length", "15", "--squeeze-db", "10"],
    ["ratio", "--squeeze-db", "10", "--eta", "0.8", "--m", "4"],
    ["simulate", "--design", "D", "--m", "4", "--eta", "0.8", "--phi", "0.01"],
    *(
        ["simulate", "--design", variant, "--m", "4", "--squeeze-db", "10",
         "--eta", "0.8", "--phi", "0.01"]
        for variant in "PE"
    ),
]

_RUN_REQUESTS = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from fogsim import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""


def test_every_command_runs_without_numpy():
    result = _python(_RUN_REQUESTS, json.dumps(CLI_REQUESTS))
    assert result.returncode == 0, result.stderr
    blocked = json.loads(result.stdout)
    for argv, (code, out) in zip(CLI_REQUESTS, blocked, strict=True):
        # The same bytes as in this process, where numpy is loaded.
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected):
            expected_code = cli.main(argv)
        assert (code, out) == (expected_code, expected.getvalue()), argv
        assert code == 0, argv
