"""Seeded request mixes of the benchmark's workloads.

Both workloads are closed loops with one client. A mix is a sequence of
fixed-size cycles whose slot counts are constant and whose order and
parameters are drawn from the seed, so the share of each request kind in a
run, and with it the latency percentiles, does not depend on the draw.
Draws use the paper's figure ranges: 0-30 dB of squeezing,
b in [0.2, 2] dB/km, L in [2, 40] km, eta in [0.5, 1), phi in [0, 0.1].
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-analytic", "cli-simulate")

FIGURE_IDS = ("3a", "3b", "5", "6", "7")

#: Malformed requests of the timed mix, which end in a named usage error
#: (exit 2): missing or contradictory arguments, then values out of range.
MALFORMED = (
    ["variance", "--design", "E", "--m", "4", "--squeeze-db", "10"],
    ["optimize", "--design", "C", "--m", "3", "--b", "0.5"],
)
OUT_OF_RANGE = (
    ["variance", "--design", "D", "--m", "4", "--eta", "1.5"],
    ["optimize", "--design", "D", "--fix-length", "-3"],
)
#: Out-of-domain requests (ROADMAP item 4) that should also exit 2 but exit
#: 1 with a traceback at the commit that added this benchmark. They run once
#: after every measured window and are reported on their own, outside the
#: timed mix, so that a run's failure count does not depend on how many
#: requests fit in its window.
OUT_OF_DOMAIN = (
    ["table1", "--b", "0"],
    ["ratio", "--squeeze-db", "1e6"],
)

#: Untimed warm-up request of each workload (fixed, so set-up time does not
#: depend on the seed).
WARMUP = {
    "cli-analytic": {"kind": "variance", "argv": ["variance", "--design", "C", "--eta", "0.9"], "expect": "ok"},
    "cli-simulate": {"kind": "simulate", "m": 1, "argv": ["simulate", "--design", "C", "--eta", "0.9"], "expect": "ok"},
}


def _num(value: float) -> str:
    return repr(float(value))


def _squeeze(rng: random.Random) -> list[str]:
    return ["--squeeze-db", _num(rng.uniform(0.0, 30.0))]


def _design(rng: random.Random) -> list[str]:
    variant = rng.choice("CSDPE")
    m = 1 if variant in "CS" else rng.choice((1, 4, 16, 64))
    argv = ["--design", variant, "--m", str(m)]
    if variant in "SPE":
        argv += _squeeze(rng)
    return argv


def _transmission(rng: random.Random) -> list[str]:
    """Either --eta, or --length-km with --b (the fiber-model route)."""
    if rng.random() < 0.5:
        return ["--eta", _num(rng.uniform(0.5, 1.0))]
    return ["--length-km", _num(rng.uniform(2.0, 40.0)), "--b", _num(rng.uniform(0.2, 2.0))]


def _analytic_cycle(rng: random.Random, cycle: int) -> list[dict]:
    """40 requests: 38 valid and 2 (5 %) malformed, one of them out of range."""
    ops = [
        {"kind": "table1", "argv": ["table1"], "expect": "ok"},
        {"kind": "table1-json", "argv": ["table1", "--format", "json"], "expect": "ok"},
    ]
    for figure_id in FIGURE_IDS * 2:
        ops.append({"kind": "figure", "argv": ["figure", "--id", figure_id], "expect": "ok"})
    for _ in range(7):
        design = _design(rng)
        ops.append({"kind": "variance", "argv": ["variance", *design, *_transmission(rng)], "expect": "ok"})
    for _ in range(6):
        design = _design(rng)
        b = ["--b", _num(rng.uniform(0.2, 2.0))]
        ops.append({"kind": "optimize-length", "argv": ["optimize", *design, *b], "expect": "ok"})
    for _ in range(6):
        variant = rng.choice("DPE")
        argv = ["optimize", "--design", variant, "--fix-length", _num(rng.uniform(2.0, 40.0)),
                "--b", _num(rng.uniform(0.2, 2.0))]
        if variant in "PE":
            argv += _squeeze(rng)
        ops.append({"kind": "optimize-count", "argv": argv, "expect": "ok"})
    for _ in range(7):
        argv = ["ratio", *_squeeze(rng)]
        draw = rng.random()
        if draw < 0.3:
            argv += ["--eta", _num(rng.uniform(0.5, 1.0)), "--m", str(rng.choice((2, 4, 16)))]
        elif draw < 0.6:
            argv += _transmission(rng)
        ops.append({"kind": "ratio", "argv": argv, "expect": "ok"})
    ops.append({"kind": "malformed", "argv": list(MALFORMED[cycle % 2]), "expect": "usage"})
    ops.append({"kind": "malformed", "argv": list(OUT_OF_RANGE[cycle % 2]), "expect": "usage"})
    rng.shuffle(ops)
    return ops


def _simulate_op(rng: random.Random, variant: str, m: int) -> dict:
    argv = ["simulate", "--design", variant, "--m", str(m)]
    if variant in "SPE":
        argv += _squeeze(rng)
    argv += ["--eta", _num(rng.uniform(0.5, 1.0)), "--phi", _num(rng.uniform(0.0, 0.1))]
    return {"kind": "simulate", "m": m, "argv": argv, "expect": "ok"}


def _simulate_cycle(rng: random.Random, cycle: int) -> list[dict]:
    """20 requests. By count: M=1 35 %, M=4 30 %, M=16 15 %, M=64 15 %,
    M=128 5 %, so the median falls inside the M=4 band and the 90th
    percentile inside the M=64 band."""
    slots = [("C", 1), ("C", 1), ("S", 1), ("S", 1), ("D", 1), ("P", 1), ("E", 1)]
    slots += [(v, 4) for v in "DPEDPE"] + [(v, 16) for v in "DPE"] + [(v, 64) for v in "DPE"]
    slots.append(("DPE"[cycle % 3], 128))
    ops = [_simulate_op(rng, variant, m) for variant, m in slots]
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` requests of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    build = _analytic_cycle if workload == "cli-analytic" else _simulate_cycle
    ops: list[dict] = []
    cycle = 0
    while len(ops) < count:
        ops.extend(build(rng, cycle))
        cycle += 1
    return ops[:count]


def out_of_domain() -> list[dict]:
    return [{"kind": "malformed", "argv": list(argv), "expect": "usage"} for argv in OUT_OF_DOMAIN]


def probe() -> list[dict]:
    """Fixed requests appended to every traced run, so that each layer is
    reached on every workload (``cli-analytic`` never simulates, and
    ``cli-simulate`` never optimizes)."""
    ops = [
        {"kind": "table1", "argv": ["table1"], "expect": "ok"},
        {"kind": "figure", "argv": ["figure", "--id", "5"], "expect": "ok"},
        {"kind": "variance", "argv": ["variance", "--design", "E", "--m", "4", "--squeeze-db", "10",
                                      "--length-km", "15", "--b", "0.5"], "expect": "ok"},
        {"kind": "optimize-length", "argv": ["optimize", "--design", "S", "--squeeze-db", "10"], "expect": "ok"},
        {"kind": "optimize-count", "argv": ["optimize", "--design", "E", "--fix-length", "15",
                                            "--squeeze-db", "10"], "expect": "ok"},
        {"kind": "ratio", "argv": ["ratio", "--squeeze-db", "10", "--eta", "0.8"], "expect": "ok"},
    ]
    for variant, m in (("S", 1), ("E", 1), ("P", 4), ("D", 16), ("E", 64), ("P", 128)):
        argv = ["simulate", "--design", variant, "--m", str(m), "--eta", "0.8", "--phi", "0.01"]
        if variant in "SPE":
            argv += ["--squeeze-db", "10"]
        ops.append({"kind": "simulate", "m": m, "argv": argv, "expect": "ok"})
    return ops
