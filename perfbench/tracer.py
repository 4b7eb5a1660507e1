"""In-memory span tracer that wraps fogsim's functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces functions by
wrappers in every loaded ``fogsim`` module that holds them, so a name
imported by value (``designs`` takes the ``gaussian`` functions by name,
``cli`` the ``sagnac`` ones, the package re-exports nearly everything) is
traced wherever it is called from.

A span is ``[name, start, end, parent, op]``; spans stay in memory until
``fold`` turns them into per-name totals, which is what gets written out.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

#: fogsim modules whose public functions become spans, as "<layer>.<name>".
LAYER_MODULES = ("analytic", "optimize", "designs", "gaussian", "sagnac")

#: Methods and private functions traced as well: the eigen-check and the
#: propagation step of the dense engine, and one circuit propagation.
EXTRA_TARGETS = (
    ("gaussian", "GaussianState", "symplectic_eigenvalues"),
    ("gaussian", "SymplecticTransform", "apply"),
    ("designs", None, "_run_circuit"),
    ("cli", None, "render_csv"),
)


class Tracer:
    """Records spans around wrapped calls; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        #: per-name totals: [calls, outermost inclusive s, self s]
        self.totals: dict[str, list[float]] = {}
        #: counters recorded at the call boundary (not timings)
        self.counters: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def call(self, name: str, func, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call(name, func, *args, **kwargs)

        return wrapper

    def _wrap_minimize(self, name: str, func):
        """minimize_scalar, counting objective evaluations and iterations."""
        tracer = self

        @functools.wraps(func)
        def wrapper(problem):
            objective = problem.objective

            def counted(x):
                tracer.count("optimize.minimize_scalar.evals", 1)
                return objective(x)

            result = tracer.call(
                name, func, dataclasses.replace(problem, objective=counted)
            )
            tracer.count("optimize.minimize_scalar.iterations", result.iterations)
            return result

        return wrapper

    def _wrap_render(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            text = tracer.call(name, func, *args, **kwargs)
            tracer.count("cli.render_csv.bytes", len(text.encode("utf-8")))
            return text

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded fogsim module."""
        modules = {
            key: module
            for key, module in sys.modules.items()
            if module is not None and (key == "fogsim" or key.startswith("fogsim."))
        }
        replacements: dict[int, object] = {}
        for layer in LAYER_MODULES:
            module = modules[f"fogsim.{layer}"]
            for attr, func in vars(module).items():
                if (
                    inspect.isfunction(func)
                    and not attr.startswith("_")
                    and func.__module__ == module.__name__
                ):
                    replacements[id(func)] = self._make(f"{layer}.{attr}", func)
        for layer, owner, attr in EXTRA_TARGETS:
            module = modules.get(f"fogsim.{layer}")
            if module is None:
                continue
            if owner is None:
                func = getattr(module, attr)
                replacements[id(func)] = self._make(f"{layer}.{attr}", func)
            else:
                cls = getattr(module, owner)
                func = cls.__dict__[attr]
                self._originals.append((cls, attr, func))
                setattr(cls, attr, self._make(f"{layer}.{owner}.{attr}", func))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _make(self, name: str, func):
        if name == "optimize.minimize_scalar":
            return self._wrap_minimize(name, func)
        if name == "cli.render_csv":
            return self._wrap_render(name, func)
        return self._wrap(name, func)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    # -- aggregation -------------------------------------------------------

    def fold(self) -> None:
        """Add the recorded spans to ``totals`` and drop them.

        Self time is a span's duration minus the time its direct children
        cover; inclusive time counts only the outermost span of a name, so
        recursion is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(spans):
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            duration = end - start
            entry[0] += 1
            entry[2] += duration - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry[1] += duration
        self.spans = []

    def summary(self) -> dict:
        self.fold()
        return {"totals": self.totals, "counters": self.counters}
