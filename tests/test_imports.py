"""Route independence at import time: the closed-form and optimizer routes
run without numpy, which only the circuit route (``gaussian``, ``designs``)
needs."""

import os
import subprocess
import sys

import fogsim
from fogsim import analytic, optimize, sagnac

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fogsim.__file__)))


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this fogsim."""
    return subprocess.run(
        [sys.executable, "-c", code],
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


def test_package_import_leaves_numpy_unloaded():
    result = _python("import sys, fogsim; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
