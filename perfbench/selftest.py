"""Self-test of the benchmark's tracing, run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
1. a traced request writes the same stdout bytes as the untraced one;
2. the per-layer counts repeat exactly across two traced runs of the
   fixed probe (circuit runs per simulate, eigen-check calls per M);
3. every metric name, in BENCHMARK.json and as computed, matches
   ``[A-Za-z0-9_.-]+``.
Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
os.environ["PYTHONPATH"] = "src"

import workloads  # noqa: E402
from driver import CliClient, _cli_record  # noqa: E402
from layers import SIMULATE_MS, per_layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ["designs.circuit_runs_per_simulate"] + [
    f"gaussian.symplectic_eigenvalues.m{m}_calls" for m in SIMULATE_MS
]


def traced_probe(client: CliClient) -> tuple[dict, list[bytes]]:
    records, outputs = [], []
    for op in workloads.probe():
        _, _, proc = client.request(op, traced=True)
        records.append(_cli_record(op, proc))
        outputs.append(proc.stdout)
    return per_layer_metrics(records), outputs


def main() -> int:
    if not os.path.isfile(os.path.join("src", "fogsim", "cli.py")):
        print("selftest: run from the root of a fogsim checkout (src/fogsim not found)", file=sys.stderr)
        return 2
    failures = []
    client = CliClient()

    first, traced_outputs = traced_probe(client)
    for op, traced in zip(workloads.probe(), traced_outputs):
        _, _, plain = client.request(op)
        status, reason = client.check(op, plain)
        if status != "ok":
            failures.append(f"untraced {' '.join(op['argv'])}: {reason}")
        if plain.stdout != traced:
            failures.append(f"stdout differs when traced: {' '.join(op['argv'])}")

    second, _ = traced_probe(client)
    for name in COUNTS:
        if first[name] != second[name] or first[name] <= 0:
            failures.append(f"{name} does not repeat: {first[name]} vs {second[name]}")

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(first)
    names += [w["name"] for w in spec["workloads"]]
    failures += [f"bad metric name {name!r}" for name in names if not NAME.fullmatch(name)]
    declared = {m["name"] for m in spec["per_layer"]}
    failures += [f"computed but not declared: {name}" for name in first if name not in declared]
    failures += [f"declared but not computed: {name}" for name in declared
                 if name not in first and name != "trace.overhead_ms"]

    for name in COUNTS:
        print(f"{name} = {first[name]:g}")
    print(f"checked {len(workloads.probe())} requests and {len(set(names))} names")
    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
