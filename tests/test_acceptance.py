"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or with ``-s`` to see the printed summaries of the passing criteria.
"""

import math
import time

import pytest

from fogsim import analytic, designs, optimize
from fogsim.designs import DesignConfig
from fogsim.sagnac import db_to_photons

import _dense
from _oracles import homodyne_closed_form, lambert_bisect, laser_amplitude

TABLE_SIGMAS = (5.0, 10.0, 15.0, 20.0, math.inf)
TABLE_LENGTH_OPT = (1.116, 1.168, 1.187, 1.193, 1.196)
TABLE_COUNT_OPT = (1.435, 1.837, 2.154, 2.375, 2.718)

GRID_ETAS = (0.1, 0.5, 0.9, 1.0)
GRID_PHIS = (0.0, 0.01, 0.3)
GRID_COUNTS = (1, 2, 4, 8)
GRID_SQUEEZED = (0.0, 0.37, 2.03, 9.72)


def _passed(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def _grid_configs(n_v: float = 2.5):
    configs = [DesignConfig("C", n_v=n_v)]
    configs.extend(DesignConfig("S", n_v=n_v, n_squeezed=n) for n in GRID_SQUEEZED)
    for m in GRID_COUNTS:
        configs.append(DesignConfig("D", m_interferometers=m, n_v=n_v))
        for n in GRID_SQUEEZED:
            configs.append(DesignConfig("P", m_interferometers=m, n_v=n_v, n_squeezed=n))
            configs.append(DesignConfig("E", m_interferometers=m, n_v=n_v, n_squeezed=n))
    return configs


def test_criterion_01_table_reproduction_two_routes():
    started = time.perf_counter()
    for sigma, expected_1, expected_2 in zip(
        TABLE_SIGMAS, TABLE_LENGTH_OPT, TABLE_COUNT_OPT
    ):
        n_s = db_to_photons(sigma)
        analytic_1 = 1.0 / analytic.ratio_optimal_length(n_s)
        numeric_1 = 1.0 / (
            optimize.optimize_length("S", 0.5, n_s).value / optimize.optimize_length("C", 0.5).value
        )
        analytic_2 = 1.0 / analytic.ratio_optimal_m(n_s)
        numeric_2 = 1.0 / (
            optimize.optimize_m_continuous("E", 0.5, 15.0, n_s).value
            / optimize.optimize_m_continuous("D", 0.5, 15.0).value
        )
        assert abs(analytic_1 - expected_1) <= 1e-3, (sigma, analytic_1)
        assert abs(numeric_1 - expected_1) <= 1e-3, (sigma, numeric_1)
        assert abs(analytic_2 - expected_2) <= 1e-3, (sigma, analytic_2)
        assert abs(numeric_2 - expected_2) <= 1e-3, (sigma, numeric_2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f} s"
    _passed(1, f"both benchmark rows, analytic and numeric, in {elapsed * 1e3:.0f} ms")


def test_criterion_02_limit_constants_at_sixty_db():
    n_s = db_to_photons(60.0)
    length_ratio = analytic.ratio_optimal_length(n_s)
    count_ratio = analytic.ratio_optimal_m(n_s)
    assert abs(length_ratio - 0.836) < 0.005
    assert abs(count_ratio - 1.0 / math.e) < 0.005
    # Convergence toward the W branch point is the slow part; confirm the
    # array exponent against the bisection oracle at the same squeezing.
    oracle = lambert_bisect(2.0 * (n_s - math.sqrt(n_s * (1.0 + n_s))) / math.e)
    assert analytic._exponent(1, n_s) == pytest.approx(oracle, abs=1e-10)
    _passed(
        2,
        f"60 dB ratios {length_ratio:.4f} (limit 0.836) and "
        f"{count_ratio:.4f} (limit 1/e)",
    )


def test_criterion_03_classical_optimal_length_two_routes():
    for b in (0.25, 0.5, 1.0):
        closed = analytic.optimal_length("C", b).x
        numeric = optimize.optimize_length("C", b).x
        assert closed == pytest.approx(8.686 / b, rel=1e-4)
        assert abs(numeric - closed) / closed <= 1e-6
    assert analytic.optimal_length("C", 0.5).x == pytest.approx(
        17.372, abs=5e-4
    )
    _passed(3, "closed form and golden-section agree to 1e-6 at b in {0.25, 0.5, 1}")


def test_criterion_04_heisenberg_scaling_and_sql_restoration():
    for n in (1.0, 10.0, 100.0):
        split = analytic.optimal_energy_split(n, 1.0)
        assert split.value == pytest.approx(1.0 / (n * (n + 1.0)), rel=1e-12)

    def loglog_slope(eta, n_lo, n_hi):
        v_lo = analytic.optimal_energy_split(n_lo, eta).value
        v_hi = analytic.optimal_energy_split(n_hi, eta).value
        return (math.log(v_hi) - math.log(v_lo)) / (math.log(n_hi) - math.log(n_lo))

    lossless = loglog_slope(1.0, 1e2, 1e4)
    assert abs(lossless - (-2.0)) < 0.02
    lossy = loglog_slope(0.99, 1e6, 1e8)
    assert abs(lossy - (-1.0)) < 0.05
    _passed(
        4,
        f"lossless slope {lossless:.4f} (Heisenberg), eta=0.99 slope "
        f"{lossy:.4f} (SQL restored)",
    )


def test_criterion_05_oracle_equivalence_suite():
    started = time.perf_counter()
    circuit_checks = 0
    estimator_checks = 0
    for config in _grid_configs():
        for eta in GRID_ETAS:
            for phi in GRID_PHIS:
                sim = designs.build_and_run(config, phi, eta)
                ref = homodyne_closed_form(config, phi, eta)
                assert abs(sim.mean - ref.mean) <= 1e-10
                assert abs(sim.variance - ref.variance) <= 1e-10
                circuit_checks += 1
            simulated = designs.estimator_variance_sim(config, eta, 1.0)
            reference = analytic.design_variance(
                config.variant,
                1.0,
                eta,
                config.m_interferometers,
                config.n_v,
                config.n_squeezed,
            )
            assert (
                abs(simulated.estimator_variance - reference) / reference <= 1e-9
            )
            estimator_checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f} s"
    _passed(
        5,
        f"{circuit_checks} circuit-vs-formula and {estimator_checks} "
        f"estimator checks in {elapsed:.1f} s",
    )


def test_criterion_06_distributed_design_identities():
    for m in (2, 4, 8, 16):
        for sigma in (5.0, 10.0, 15.0):
            n_s = db_to_photons(sigma)
            single = analytic.optimal_length("S", 0.5, n_s, 1)
            array = analytic.optimal_length("E", 0.5, n_s, m)
            assert array.x == pytest.approx(m * single.x, rel=1e-10)
            assert array.value == pytest.approx(single.value / m, rel=1e-10)
    _passed(6, "entangled optima scale as M times the single-squeezer optima")


def test_criterion_07_entanglement_equals_product_per_mode():
    for m in GRID_COUNTS:
        for per_port in (0.37, 2.03, 9.72):
            entangled = DesignConfig(
                "E", m_interferometers=m, n_v=1.0, n_squeezed=per_port
            )
            product = DesignConfig(
                "P", m_interferometers=m, n_v=1.0, n_squeezed=m * per_port
            )
            for eta in GRID_ETAS:
                for phi in GRID_PHIS:
                    a = designs.build_and_run(entangled, phi, eta)
                    b = designs.build_and_run(product, phi, eta)
                    assert abs(a.variance - b.variance) <= 1e-12
    _passed(7, "one squeezer split M ways equals M per-port squeezers exactly")


def test_criterion_08_fixed_length_ratio_independence():
    n_s = db_to_photons(10.0)
    ratios = [
        optimize.optimize_m_continuous("E", b, length, n_s).value
        / optimize.optimize_m_continuous("D", b, length).value
        for b, length in ((0.5, 15.0), (0.25, 40.0), (1.0, 8.0))
    ]
    for other in ratios[1:]:
        assert abs(other - ratios[0]) / ratios[0] <= 1e-6
    _passed(8, f"continuous-count ratio {ratios[0]:.9f} across three (b, L) pairs")


def test_criterion_09_count_optimum_spot_check():
    """Stated expectation: integer count optimum of 5 at 10 dB, b=0.5, L=15 km.

    The faithful evaluation disagrees: the continuous optimum is 4.41 and
    direct evaluation of the fixed-length variance at the floor and ceiling
    gives 2.559706/L^2 at M=4 versus 2.562689/L^2 at M=5, so the argmin is
    4 by a 0.12 percent margin.  The assertion below encodes the stated
    expectation and is expected to fail; see the decisions ledger.
    """
    n_s = db_to_photons(10.0)
    search = optimize.optimize_m_integer("E", 0.5, 15.0, n_s)
    continuous = analytic.optimal_m("E", 0.5, 15.0, n_s).x
    profile = {m: analytic.variance_vs_length("E", 0.5, 15.0, m, n_s) for m in (4, 5)}
    assert search.x == 5, (
        "stated expectation M_opt = 5, measured argmin "
        f"M = {search.x} (normalized variance * L^2: "
        f"M=4 -> {profile[4] * 15.0 ** 2:.6f}, M=5 -> {profile[5] * 15.0 ** 2:.6f}; "
        f"continuous optimum {continuous:.4f})"
    )
    _passed(9, "integer count optimum equals 5")


def test_criterion_10_monte_carlo_sanity():
    eta, sigma_db, phi, count, seed = 0.8, 10.0, 0.01, 10**6, 20260809
    n_s = db_to_photons(sigma_db)
    config = DesignConfig("S", n_v=100.0, n_squeezed=n_s)
    exact = designs.build_and_run(config, phi, eta)

    # Rebuild the same circuit with the dense engine of the tests and draw
    # seeded samples from the output port.
    state = _dense.tensor(
        _dense.coherent_state(laser_amplitude(config), 0.0),
        _dense.squeezed_vacuum(n_s, "im"),
    )
    state = _dense.conjugate_phase_transform(phi).apply(state)
    state = _dense.pure_loss(state, eta)
    samples = _dense.sample_homodyne(state, 1, "im", count, seed)

    sigma = math.sqrt(exact.variance)
    mean_error = sigma / math.sqrt(count)
    variance_error = exact.variance * math.sqrt(2.0 / (count - 1))
    mean_gap = abs(samples.mean() - exact.mean)
    variance_gap = abs(samples.var(ddof=1) - exact.variance)
    assert mean_gap <= 4.0 * mean_error
    assert variance_gap <= 4.0 * variance_error
    _passed(
        10,
        f"sample mean off by {mean_gap / mean_error:.2f} SE, sample variance "
        f"off by {variance_gap / variance_error:.2f} SE ({count} draws)",
    )
