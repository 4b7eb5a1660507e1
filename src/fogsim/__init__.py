"""Sensitivity modeling for classical, squeezed, and entangled fiber gyroscopes.

The package pairs an exact Gaussian-circuit simulator with the closed-form
sensitivity expressions and with independent numeric optimizers, so that
every reported optimum and ratio can be cross-validated along two routes.
All of it is pure Python; numpy is needed only by the test suite's oracles.
Import names from their modules: ``fogsim.analytic``, ``fogsim.optimize``,
``fogsim.designs``, ``fogsim.gaussian`` and ``fogsim.sagnac``.

Importing the package registers those five layers lazily: each is in
``sys.modules`` and bound here at once, but its body is compiled and run
only on its first attribute access, so a command pays start-up only for
the layers it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# CPython's LazyLoader is not thread-safe before 3.12; fogsim imports from one thread.
for _layer in ("sagnac", "analytic", "optimize", "gaussian", "designs"):
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_layer] = _module
    _spec.loader.exec_module(_module)
del _layer, _spec, _module
