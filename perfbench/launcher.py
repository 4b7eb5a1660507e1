"""Traced stand-in for ``python -m fogsim.cli``: same argv, same stdout.

Run as ``python launcher.py <fogsim cli arguments>`` with ``PYTHONPATH=src``
and ``PERFBENCH_T0`` set to the parent's ``time.perf_counter()`` just before
it started this process (CLOCK_MONOTONIC, shared by all processes on Linux).
Timings of interpreter start, ``import numpy`` and ``import fogsim`` and the
per-name span totals of the request are written at exit to stderr as one
line prefixed with ``SUMMARY_PREFIX``; stdout carries only fogsim's output.
"""

import time

_ENTERED = time.perf_counter()

import importlib.abc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SUMMARY_PREFIX = "perfbench-summary: "


class NumpyImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of numpy's package module, whoever imports it."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        if spec is None or spec.loader is None:
            return spec
        loader_exec = spec.loader.exec_module
        timer = self

        def exec_module(module):
            start = time.perf_counter()
            try:
                loader_exec(module)
            finally:
                timer.seconds = time.perf_counter() - start

        spec.loader.exec_module = exec_module
        return spec


def main(argv: list[str]) -> int:
    startup = {"interp_ms": (_ENTERED - float(os.environ["PERFBENCH_T0"])) * 1e3}
    numpy_timer = NumpyImportTimer()
    sys.meta_path.insert(0, numpy_timer)
    start = time.perf_counter()
    import fogsim.cli

    startup["import_fogsim_ms"] = (time.perf_counter() - start) * 1e3
    startup["import_numpy_ms"] = numpy_timer.seconds * 1e3
    if numpy_timer in sys.meta_path:
        sys.meta_path.remove(numpy_timer)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", fogsim.cli.main, argv)
    finally:
        sys.stdout.flush()
        record = tracer.summary()
        record["startup"] = startup
        sys.stderr.write(SUMMARY_PREFIX + json.dumps(record) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
