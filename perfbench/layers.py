"""Per-layer metrics from the span totals of traced requests.

Each record is the ``Tracer.summary()`` of ``ops`` operations: one CLI
request (with the ``startup`` timings of its launcher), or all traced
operations of the in-process workload. Records are pooled: "per op" means
per traced operation across all records, "per call" per traced call, and
"mM" per simulate request at M interferometers. Byte and flop counts
labelled ``computed`` are derived from call counts and matrix sizes, not
measured.
"""

from __future__ import annotations

import statistics

SIMULATE_MS = (1, 4, 16, 64, 128)
ANALYTIC = ("lambert_w0", "variance_vs_length", "design_variance", "optimal_length", "optimal_m")


def per_layer_metrics(records: list[dict]) -> dict[str, float]:
    def total(name: str, field: int, subset=None) -> float:
        return sum(r["totals"].get(name, (0, 0.0, 0.0))[field] for r in (records if subset is None else subset))

    def counter(name: str) -> float:
        return sum(r["counters"].get(name, 0.0) for r in records)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    ops = sum(r["ops"] for r in records)
    metrics: dict[str, float] = {}

    startups = [r["startup"] for r in records if "startup" in r]
    for key in ("interp_ms", "import_numpy_ms", "import_fogsim_ms"):
        metrics[f"startup.{key}"] = statistics.median(s[key] for s in startups)

    cli_requests = [r for r in records if "cli.main" in r["totals"]]
    metrics["cli.main.self_ms"] = ratio(total("cli.main", 2, cli_requests) * 1e3, len(cli_requests))
    renders = total("cli.render_csv", 0)
    metrics["cli.render_csv.ms"] = ratio(total("cli.render_csv", 1) * 1e3, renders)
    metrics["cli.render_csv.bytes"] = ratio(counter("cli.render_csv.bytes"), renders)

    for name in ANALYTIC:
        metrics[f"analytic.{name}.calls"] = total(f"analytic.{name}", 0) / ops
        metrics[f"analytic.{name}.ms"] = total(f"analytic.{name}", 1) * 1e3 / ops

    minimizations = total("optimize.minimize_scalar", 0)
    metrics["optimize.minimize_scalar.calls"] = minimizations / ops
    metrics["optimize.minimize_scalar.ms"] = total("optimize.minimize_scalar", 1) * 1e3 / ops
    metrics["optimize.minimize_scalar.iterations_mean"] = ratio(
        counter("optimize.minimize_scalar.iterations"), minimizations)
    metrics["optimize.minimize_scalar.evals_per_call"] = ratio(
        counter("optimize.minimize_scalar.evals"), minimizations)
    metrics["optimize.optimize_m_integer.ms"] = total("optimize.optimize_m_integer", 1) * 1e3 / ops

    simulates = [r for r in records if r["kind"] == "simulate"]
    metrics["designs.circuit_runs_per_simulate"] = ratio(
        total("designs._run_circuit", 0, simulates), len(simulates))
    for m in SIMULATE_MS:
        at_m = [r for r in simulates if r["m"] == m]
        count = len(at_m)
        n = 4 * m  # quadratures of the 2M-mode circuit

        def per_request(name: str, field: int) -> float:
            return ratio(total(name, field, at_m), count)

        engine_ms = (per_request("designs.estimator_variance_sim", 1)
                     + per_request("designs.build_and_run", 1)) * 1e3
        eigen_calls = per_request("gaussian.GaussianState.symplectic_eigenvalues", 0)
        eigen_ms = per_request("gaussian.GaussianState.symplectic_eigenvalues", 1) * 1e3
        applies = per_request("gaussian.SymplecticTransform.apply", 0)
        metrics[f"designs.estimator_variance_sim.m{m}_ms"] = per_request("designs.estimator_variance_sim", 1) * 1e3
        metrics[f"designs.build_and_run.m{m}_ms"] = per_request("designs.build_and_run", 1) * 1e3
        metrics[f"gaussian.symplectic_eigenvalues.m{m}_calls"] = eigen_calls
        metrics[f"gaussian.symplectic_eigenvalues.m{m}_ms"] = eigen_ms
        metrics[f"gaussian.SymplecticTransform.apply.m{m}_ms"] = per_request("gaussian.SymplecticTransform.apply", 1) * 1e3
        metrics[f"gaussian.pure_loss.m{m}_ms"] = per_request("gaussian.pure_loss", 1) * 1e3
        metrics[f"gaussian.eigen_share.m{m}"] = ratio(eigen_ms, engine_ms)
        # One n x n float64 covariance per state built (each runs the check).
        metrics[f"gaussian.cov_bytes_computed.m{m}"] = eigen_calls * 8 * n * n
        # S @ cov @ S.T per apply (2 products) and Omega @ cov per check.
        metrics[f"gaussian.matmul_flops_computed.m{m}"] = (applies * 4 + eigen_calls * 2) * n ** 3

    for name in ("db_to_photons", "time_factor"):
        metrics[f"sagnac.{name}.ms"] = ratio(total(f"sagnac.{name}", 1) * 1e3, total(f"sagnac.{name}", 0))
    return metrics
