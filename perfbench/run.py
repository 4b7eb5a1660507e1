"""fogsim benchmark: one workload, one seed, one run.

Usage, from the root of a fogsim checkout (the package is used from
``src`` through ``PYTHONPATH``; nothing is installed):

    python3 perfbench/run.py --workload cli-analytic --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it starts the workload's driver ``SETUP_SAMPLES`` times,
times each until it is ready (``setup_s`` is the median), lets one of them
measure and prints the end-to-end metrics. With ``--trace 1`` it runs the
traced variant once and prints the per-layer metrics. Human-readable lines
come first; the last line of stdout is the JSON result. Metric names and
units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DRIVER = os.path.join(HERE, "driver.py")
SETUP_SAMPLES = 7
#: The first set-up in a fresh checkout also compiles fogsim's bytecode.
SETUP_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    pass


def start_driver(args) -> tuple[subprocess.Popen, float]:
    command = [sys.executable, DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH="src"))
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchmarkError(f"driver did not become ready (exit {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen, timeout: float = SETUP_TIMEOUT_S) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def finish(proc: subprocess.Popen, command: str) -> str:
    """Send ``command`` to a ready driver and return its output."""
    try:
        output, _ = proc.communicate(command + "\n", timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("driver did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"driver exited with {proc.returncode}")
    return output


def measure(args) -> tuple[dict, list[float]]:
    """Run the driver once; set it up ``SETUP_SAMPLES`` times around that.

    The set-ups are split before and after the measured run so that their
    median spans the run's whole stretch of time, not one moment of it.
    """
    before = 1 if args.trace else SETUP_SAMPLES // 2 + 1
    after = 0 if args.trace else SETUP_SAMPLES - before
    setups = []
    for sample in range(before + after):
        proc, setup = start_driver(args)
        setups.append(setup)
        output = finish(proc, "run" if sample == before - 1 else "quit")
        if sample == before - 1:
            result = json.loads(output.strip().splitlines()[-1])
    return result, setups


def machine() -> dict:
    """The host and software the numbers were taken on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # OpenBLAS starts its pool on import and counts the calling thread in it,
    # so the threads of a process that has just imported numpy are the pool.
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy\n"
         "for line in open('/proc/self/status'):\n"
         "    if line.startswith('Threads:'): print(line.split()[1])"],
        capture_output=True, text=True, timeout=60,
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": int(probe.stdout.strip() or 0),
        "pythonpath": "src",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="fogsim benchmark (one run)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "fogsim", "cli.py")):
        print("perfbench: run from the root of a fogsim checkout (src/fogsim not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        result, setups = measure(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    outcomes = result["outcomes"]
    info = machine()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("machine " + json.dumps(info))
    if not args.trace:
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
        print(f"latency samples {values['samples']}")
    print(f"fail_ratio {outcomes['failed']}/{outcomes['attempted']} = "
          f"{outcomes['failed'] / outcomes['attempted']:.4f}")
    for reason in outcomes["reasons"]:
        print(f"  {reason}")
    print("worst cross-route deviations " + json.dumps(result["deviations"]))
    print("out-of-domain requests, run after the measured window and counted in no total:")
    for defect in result["out_of_domain"]:
        print(f"  {defect['status']}: {defect['argv']}" + (f": {' '.join(defect['reason'].split())}" if defect["reason"] else ""))
    for m in wanted:
        print(f"{m['name']:48s} {values[m['name']]:.6g} {m['unit']}")

    print(json.dumps({
        "correct": outcomes["incorrect"] == 0,
        "attempted": outcomes["attempted"],
        "failed": outcomes["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
