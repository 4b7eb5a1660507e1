"""Sensitivity modeling for classical, squeezed, and entangled fiber gyroscopes.

The package pairs an exact Gaussian-circuit simulator with the closed-form
sensitivity expressions and with independent numeric optimizers, so that
every reported optimum and ratio can be cross-validated along two routes.
All of it is pure Python; numpy is needed only by the test suite's oracles.
Import names from their modules: ``fogsim.analytic``, ``fogsim.optimize``,
``fogsim.designs``, ``fogsim.gaussian`` and ``fogsim.sagnac``.
"""

__version__ = "0.1.0"
