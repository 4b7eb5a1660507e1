"""Import-time guards.  The package, the CLI and every command run without
numpy, which only the test suite's oracles use; importing the CLI registers
every layer in ``sys.modules`` but runs only the layers each command uses,
and only ``figure`` compiles the figure module; no request compiles more
source than it needs; the CLI loads no argument-parsing library; the layers' records are immutable
tuples, built without generated dataclass code, and a checked record cannot
be rebuilt unchecked; no module reads another module's private names; and
every public layer function is entered by some command."""

import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

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
        "print(optimize.optimize_length('S', 0.5, n_s).value)\n"
        "print(optimize.optimize_m_integer('P', 0.5, 15, n_s).x)\n"
        "print(analytic.optimal_m('E', 0.5, 15, n_s).x)\n"
    )
    assert result.returncode == 0, result.stderr
    # The same numbers as in this process, where numpy is loaded.
    n_s = sagnac.db_to_photons(10)
    expected = [
        optimize.optimize_length("S", 0.5, n_s).value,
        optimize.optimize_m_integer("P", 0.5, 15, n_s).x,
        analytic.optimal_m("E", 0.5, 15, n_s).x,
    ]
    assert result.stdout.split() == [str(value) for value in expected]


@pytest.mark.parametrize("module", ["fogsim", "fogsim.cli"])
def test_import_leaves_numpy_unloaded(module):
    result = _python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


LAYERS = ("analytic", "designs", "gaussian", "optimize", "sagnac")

#: What a fresh interpreter has after ``import fogsim.cli`` and one request:
#: the layers registered by the import, the fogsim modules executed by the
#: end of the request, and the modules only ``optimize`` needs.  A layer
#: still unexecuted is a lazy module; reading any attribute of it,
#: ``__dict__`` included, would execute it, so only its type is looked at.
_LAYERS_RUN = """
import contextlib, io, json, sys, types
import fogsim.cli
layers = [name for name in sys.modules if name.startswith("fogsim.") and name != "fogsim.cli"]
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = fogsim.cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "registered": sorted(name.removeprefix("fogsim.") for name in layers),
    "executed": sorted(name.removeprefix("fogsim.") for name, module in sys.modules.items()
                       if name.startswith("fogsim.") and name != "fogsim.cli"
                       and type(module) is types.ModuleType),
    "loaded": sorted(name for name in ("argparse", "gettext", "dataclasses", "inspect", "__future__")
                     if name in sys.modules),
}))
"""


@pytest.mark.parametrize("argv, code, executed, loaded", [
    # The CLI takes its input table and coil functions from sagnac by name.
    ((), None, ["sagnac"], []),
    (("variance", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "0.8"), 0,
     ["analytic", "sagnac"], []),
    (("ratio", "--squeeze-db", "10", "--eta", "0.8", "--m", "4"), 0, ["analytic", "sagnac"], []),
    # Only figure compiles the figure module, which the package does not register.
    (("figure", "--id", "5"), 0, ["analytic", "figures", "sagnac"], []),
    (("figure", "--id", "6"), 0, ["analytic", "figures", "optimize", "sagnac"],
     ["dataclasses", "inspect"]),
    (("variance", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "1.5"), 2,
     ["analytic", "sagnac"], []),
    (("simulate", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "0.8"), 0,
     ["analytic", "designs", "gaussian", "sagnac"], []),
    (("optimize", "--design", "S", "--squeeze-db", "10"), 0,
     ["analytic", "optimize", "sagnac"], ["dataclasses", "inspect"]),
    (("table1",), 0, ["analytic", "optimize", "sagnac"], ["dataclasses", "inspect"]),
], ids=["import", "variance", "ratio", "figure", "figure-6", "usage-error", "simulate",
        "optimize", "table1"])
def test_each_command_runs_only_the_layers_it_uses(argv, code, executed, loaded):
    result = _python(_LAYERS_RUN, *argv)
    assert result.returncode == 0, result.stderr
    # Every layer is registered on import, as the benchmark's tracer requires.
    assert json.loads(result.stdout) == {
        "code": code, "registered": list(LAYERS), "executed": executed, "loaded": loaded,
    }


def test_module_run_of_the_cli_writes_nothing_to_stderr():
    """``python -m fogsim.cli`` warns through runpy if the CLI module is
    already in ``sys.modules`` when it starts; the package registers only
    the layers."""
    result = subprocess.run(
        [sys.executable, "-m", "fogsim.cli", "simulate", "--design", "E", "--m", "4",
         "--squeeze-db", "10", "--eta", "0.8"],
        env=dict(os.environ, PYTHONPATH=SOURCE_ROOT),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["design"] == "E"


@pytest.mark.parametrize("layer", LAYERS)
def test_every_import_spelling_gives_one_layer_module(layer):
    """The spellings that leave a lazy layer unexecuted come first; the
    module object stays the same once its body has run."""
    result = _python(
        "import importlib, sys, types\n"
        f"from fogsim import {layer}\n"
        f"spellings = [{layer}, sys.modules['fogsim.{layer}']]\n"
        f"pending = type({layer}) is not types.ModuleType\n"
        f"import fogsim.{layer}\n"
        f"spellings += [fogsim.{layer}, importlib.import_module('fogsim.{layer}')]\n"
        f"print(pending, type({layer}) is types.ModuleType,\n"
        f"      all(spelling is {layer} for spelling in spellings))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True", "True"]


def test_benchmark_tracer_wraps_the_names_it_expects():
    """The benchmark's tracer wraps ``cli.render_csv``, ``designs._run_circuit``
    and every layer's public functions by name, and rebuilds a ScalarProblem
    with ``dataclasses.replace``; a rename fails here, not only there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["figure", "--id", "5"]) == 0
            assert cli.main(["optimize", "--design", "S", "--squeeze-db", "10"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counters["cli.render_csv.bytes"] > 0
    assert tracer.counters["optimize.minimize_scalar.evals"] > 0
    assert dataclasses.is_dataclass(optimize.ScalarProblem)


def test_benchmark_selftest_passes():
    """The benchmark's self-test traces real CLI requests: it reads the
    ``iterations`` of every ``minimize_scalar`` result, times
    ``analytic.optimal_m`` by name, and requires the eigen-check counts of
    ``simulate`` to repeat across runs."""
    result = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "PASS"


def test_scalar_problem_is_the_only_dataclass():
    modules = (analytic, cli, designs, gaussian, optimize, sagnac)
    classes = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("fogsim.")
    }
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == [optimize.ScalarProblem]


#: One instance of each result and configuration record of the layers.
RECORDS = [
    analytic.optimal_length("S", 0.5, 10.0),
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


#: A rebuild of each checked record, with one field its constructor rejects.
BAD_REBUILDS = [
    (gaussian.vacuum_state(), {"cov": ((-1.0, 0.0), (0.0, -1.0))}),
    (gaussian.SymplecticTransform(((1.0, 0.0), (0.0, 1.0))), {"matrix": ((2.0, 0.0), (0.0, 2.0))}),
    (gaussian.HomodyneResult(0.0, 1.0), {"variance": -1.0}),
    (gaussian.HomodyneResult(0.0, 1.0), {"variance": math.inf}),
    (gaussian.HomodyneResult(0.0, 1.0), {"variance": 5e-324}),
    (designs.DesignConfig("C"), {"variant": "Q", "m_interferometers": 0, "n_v": -1.0,
                                 "n_squeezed": math.nan}),
    (designs.estimator_variance_sim(designs.DesignConfig("C"), 0.9, 1.0),
     {"estimator_variance": math.inf}),
    (designs.estimator_variance_sim(designs.DesignConfig("C"), 0.9, 1.0),
     {"variance_normalized": 5e-324}),
]


@pytest.mark.parametrize("record, fields", BAD_REBUILDS,
                         ids=[type(record).__name__ for record, _ in BAD_REBUILDS])
def test_checked_records_cannot_be_rebuilt_unchecked(record, fields):
    assert type(record)._make(record) == record
    with pytest.raises(ValueError):
        record._replace(**fields)
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), **fields}.values())


def test_every_record_class_is_covered():
    assert {type(record).__name__ for record in RECORDS} == {
        "Optimum", "GaussianState", "SymplecticTransform", "HomodyneResult", "DesignConfig",
        "CircuitResult",
    }


#: One request of every command, variance also from a coil length and loss;
#: simulate for each multi-port design.
CLI_REQUESTS = [
    ["table1"],
    ["table1", "--format", "json"],
    *(["figure", "--id", figure_id] for figure_id in ("3a", "3b", "5", "6", "7")),
    ["variance", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "0.8"],
    ["variance", "--design", "P", "--m", "4", "--squeeze-db", "10", "--length-km", "15",
     "--b", "0.5"],
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

#: Prints the exit code of the request in ``sys.argv`` and the source lines
#: of each fogsim module that ``import fogsim.cli`` and the request compile,
#: by file name.
_COMPILED = """
import contextlib, importlib.machinery, io, json, os, sys
compiled = []
source_to_code = importlib.machinery.SourceFileLoader.source_to_code
def record(loader, data, path, *args, **kwargs):
    compiled.append(path)
    return source_to_code(loader, data, path, *args, **kwargs)
importlib.machinery.SourceFileLoader.source_to_code = record
import fogsim.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = fogsim.cli.main(sys.argv[1:])
package = os.path.dirname(fogsim.__file__)
lines = {}
for path in compiled:
    if os.path.dirname(path) == package:
        with open(path, encoding="utf-8") as handle:
            lines[os.path.basename(path)] = len(handle.read().splitlines())
print(json.dumps({"code": code, "compiled": lines}))
"""


@pytest.mark.parametrize(
    # The first request of each command.
    "argv", {argv[0]: argv for argv in reversed(CLI_REQUESTS)}.values(), ids=" ".join
)
def test_each_command_compiles_only_what_it_runs(argv, tmp_path):
    """Only ``figure`` compiles the figure module, and ``variance``, ``ratio``,
    ``optimize`` and ``table1`` compile at most 1400 lines of fogsim source.
    An empty bytecode cache that is never written makes every module that
    runs compile from source."""
    command = argv[0]
    result = subprocess.run(
        [sys.executable, "-c", _COMPILED, *argv],
        env=dict(os.environ, PYTHONPATH=SOURCE_ROOT, PYTHONDONTWRITEBYTECODE="1",
                 PYTHONPYCACHEPREFIX=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout)
    assert record["code"] == 0
    compiled = record["compiled"]
    assert {"__init__.py", "cli.py", "sagnac.py", "analytic.py"} <= compiled.keys()
    assert ("figures.py" in compiled) == (command == "figure")
    if command in ("variance", "ratio", "optimize", "table1"):
        assert sum(compiled.values()) <= 1400, compiled


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


def test_every_public_layer_function_is_run_by_a_command():
    """A public layer function that no command enters is reached only by the
    tests, and belongs with them, in ``tests/_oracles.py``."""
    public = {
        value.__code__: f"{name}.{key}"
        for name in LAYERS
        for key, value in vars(getattr(fogsim, name)).items()
        if isinstance(value, types.FunctionType) and not key.startswith("_")
        and value.__module__ == f"fogsim.{name}"
    }
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in CLI_REQUESTS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(CLI_REQUESTS)
    missing = sorted(public[code] for code in public.keys() - entered)
    assert not missing, f"no command enters {', '.join(missing)}"


def test_cli_exports_only_what_its_callers_use():
    """``main`` is the ``fogsim`` script's entry point and the benchmark's, and
    the benchmark's tracer wraps ``render_csv``; everything else is private."""
    defined = set()
    for node in ast.parse(Path(cli.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    assert {name for name in defined if not name.startswith("_")} == {"main", "render_csv"}


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


SOURCES = sorted((Path(SOURCE_ROOT) / "fogsim").glob("*.py"))


def _private_reads(source: str) -> list[str]:
    """``module._name`` reads and ``from .module import _name`` imports of a sibling's private name."""
    tree = ast.parse(source)
    siblings = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_private_read_finder_sees_both_forms():
    source = "from . import analytic\nfrom .sagnac import _KM, check\nanalytic._check(1)\n"
    assert _private_reads(source) == ["sagnac._KM", "analytic._check"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path.read_text()) == []
