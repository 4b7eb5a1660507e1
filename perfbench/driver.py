"""One workload client: set up, report ready, run for a time, report.

``run.py`` starts this process, times it until the line ``ready`` (its
set-up: interpreter start, input generation and one untimed warm-up
request, which starts fogsim and imports it), then writes ``run`` or
``quit`` to its stdin. After ``run`` the driver measures for ``--seconds``
and prints one JSON line of results.

With ``--trace 1`` each request runs untraced and traced, followed by the
fixed probe of ``workloads.probe``; the result holds the per-layer metrics
of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
REQUEST_TIMEOUT_S = 120
#: Requests generated per run; a run that outlasts them starts over.
CLI_REQUESTS = 2000


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


class Outcomes:
    """Attempted, failed and incorrect counts, with the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons: list[str] = []

    def add(self, status: str, reason: str | None, label: str, attempt: bool = True) -> None:
        self.attempted += attempt
        if status != "ok":
            self.failed += 1
            self.incorrect += status == "incorrect"
            if len(self.reasons) < 8:
                self.reasons.append(f"{status}: {label}: {reason}")


class CliClient:
    def __init__(self) -> None:
        self.dev = checks.Deviations()

    def request(self, op: dict, traced: bool = False):
        """Run one request; return (latency s, child CPU s, completed process)."""
        if traced:
            command = [sys.executable, LAUNCHER, *op["argv"]]
            env = dict(os.environ, PERFBENCH_T0=repr(time.perf_counter()))
        else:
            command = [sys.executable, "-m", "fogsim.cli", *op["argv"]]
            env = None
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            command, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            timeout=REQUEST_TIMEOUT_S,
        )
        latency = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return latency, cpu, proc

    def check(self, op: dict, proc) -> tuple[str, str | None]:
        return checks.check_cli(op, proc.returncode, proc.stdout, proc.stderr, self.dev)


def _summary_of(stderr: bytes) -> dict | None:
    from launcher import SUMMARY_PREFIX

    for line in stderr.decode("utf-8", errors="replace").splitlines():
        if line.startswith(SUMMARY_PREFIX):
            return json.loads(line[len(SUMMARY_PREFIX):])
    return None


def cli_measure(client: CliClient, ops: list[dict], seconds: float, outcomes: Outcomes):
    """Closed loop over ``ops`` for ``seconds``; returns latencies and CPU."""
    latencies, cpu_total = [], 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        op = ops[index % len(ops)]
        index += 1
        try:
            latency, cpu, proc = client.request(op)
        except subprocess.TimeoutExpired:
            outcomes.add("failed", f"timeout after {REQUEST_TIMEOUT_S} s", " ".join(op["argv"]))
            continue
        latencies.append(latency)
        cpu_total += cpu
        outcomes.add(*client.check(op, proc), " ".join(op["argv"]))
    return latencies, cpu_total


def _cli_record(op: dict, proc) -> dict:
    record = _summary_of(proc.stderr) or {"totals": {}, "counters": {}}
    record.update(ops=1, kind=op["kind"], m=op.get("m"))
    return record


def end_to_end(latencies: list[float], cpu_total: float, window: float, rss_kb: float,
               outcomes: Outcomes) -> dict:
    count = len(latencies)
    return {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile_90(latencies) * 1e3,
        "ops_per_s": outcomes.attempted / window,
        "cpu_ms_per_op": cpu_total / count * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
        "samples": count,
    }


def run_untraced(client: CliClient, ops: list[dict], seconds: float) -> dict:
    outcomes = Outcomes()
    start = time.perf_counter()
    latencies, cpu = cli_measure(client, ops, seconds, outcomes)
    window = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "metrics": end_to_end(latencies, cpu, window, rss_kb, outcomes),
        "outcomes": vars(outcomes),
        "deviations": client.dev.worst,
    }


def run_traced(client: CliClient, ops: list[dict], seconds: float) -> dict:
    """Each request untraced and traced back to back (alternating which goes
    first, so both see the same host speed), then the fixed probe traced."""
    from layers import per_layer_metrics

    outcomes = Outcomes()
    records: list[dict] = []
    latencies: dict[bool, list[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        op = ops[index % len(ops)]
        label = " ".join(op["argv"])
        stdout = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            latency, _, proc = client.request(op, traced)
            latencies[traced].append(latency)
            outcomes.add(*client.check(op, proc), label)
            stdout[traced] = proc.stdout
            if traced:
                records.append(_cli_record(op, proc))
        if stdout[False] != stdout[True]:
            outcomes.add("incorrect", "traced stdout differs from untraced", label, attempt=False)
        index += 1
    for op in workloads.probe():
        _, _, proc = client.request(op, traced=True)
        outcomes.add(*client.check(op, proc), " ".join(op["argv"]))
        records.append(_cli_record(op, proc))
    metrics = per_layer_metrics(records)
    metrics["trace.overhead_ms"] = (
        statistics.median(latencies[True]) - statistics.median(latencies[False])) * 1e3
    return {"metrics": metrics, "outcomes": vars(outcomes), "deviations": client.dev.worst}


def known_defects(client: CliClient) -> list[dict]:
    """Outcome of each out-of-domain request, run after the measured window
    and counted in no total."""
    report = []
    for op in workloads.out_of_domain():
        _, _, proc = client.request(op)
        status, reason = client.check(op, proc)
        report.append({"argv": " ".join(op["argv"]), "status": status, "reason": reason})
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    client = CliClient()
    ops = workloads.generate(args.workload, args.seed, CLI_REQUESTS)
    warmup = workloads.WARMUP[args.workload]
    _, _, proc = client.request(warmup)
    status, reason = client.check(warmup, proc)
    if status != "ok":
        print(f"warm-up request failed: {reason}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    run = run_traced if args.trace else run_untraced
    result = run(client, ops, args.seconds)
    result["out_of_domain"] = known_defects(client)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
