"""Circuit-vs-closed-form tests for the five gyroscope designs."""

import math

import pytest

from fogsim import analytic
from fogsim.designs import (
    DesignConfig,
    build_and_run,
    estimator_variance_sim,
    homodyne_closed_form,
    mean_slope,
)
from fogsim.sagnac import db_to_photons

ETAS = (0.1, 0.5, 0.9, 1.0)
PHIS = (0.0, 0.01, 0.3)
COUNTS = (1, 2, 4, 8)
SQUEEZED = (0.0, 0.37, 2.03, 9.72)


def grid_configs(n_v=2.5):
    """All valid design configurations over the reference grid."""
    configs = [DesignConfig("C", n_v=n_v)]
    configs.extend(DesignConfig("S", n_v=n_v, n_squeezed=n_s) for n_s in SQUEEZED)
    for m in COUNTS:
        configs.append(DesignConfig("D", m_interferometers=m, n_v=n_v))
        for n_s in SQUEEZED:
            configs.append(
                DesignConfig("P", m_interferometers=m, n_v=n_v, n_squeezed=n_s)
            )
            configs.append(
                DesignConfig("E", m_interferometers=m, n_v=n_v, n_squeezed=n_s)
            )
    return configs


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            DesignConfig("X")

    def test_classical_designs_reject_squeezing(self):
        with pytest.raises(ValueError):
            DesignConfig("C", n_squeezed=1.0)
        with pytest.raises(ValueError):
            DesignConfig("D", m_interferometers=2, n_squeezed=1.0)

    def test_single_interferometer_designs_reject_m(self):
        with pytest.raises(ValueError):
            DesignConfig("S", m_interferometers=2, n_squeezed=1.0)

    def test_nonpositive_laser_power(self):
        with pytest.raises(ValueError):
            DesignConfig("C", n_v=0.0)


class TestSingleInterferometer:
    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("eta", ETAS)
    def test_classical_variance_is_loss_independent(self, phi, eta):
        config = DesignConfig("C", n_v=100.0)
        result = build_and_run(config, phi, eta)
        assert result.mean == pytest.approx(
            math.sqrt(eta) * math.sin(phi) * 10.0, abs=1e-12
        )
        assert result.variance == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("eta", ETAS)
    def test_squeezed_dark_port_variance(self, eta):
        n_s = db_to_photons(10.0)
        config = DesignConfig("S", n_v=100.0, n_squeezed=n_s)
        result = build_and_run(config, 0.0, eta)
        mu, nu = math.sqrt(1 + n_s), math.sqrt(n_s)
        expected = (eta * (mu - nu) ** 2 + 1 - eta) / 4.0
        assert result.mean == pytest.approx(0.0, abs=1e-12)
        assert result.variance == pytest.approx(expected, abs=1e-12)


class TestDistributedEquivalences:
    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("n_s", SQUEEZED)
    def test_entangled_single_port_reduces_to_squeezed(self, eta, phi, n_s):
        entangled = DesignConfig("E", m_interferometers=1, n_v=3.0, n_squeezed=n_s)
        squeezed = DesignConfig("S", n_v=3.0, n_squeezed=n_s)
        a = build_and_run(entangled, phi, eta)
        b = build_and_run(squeezed, phi, eta)
        assert a.mean == pytest.approx(b.mean, abs=1e-13)
        assert a.variance == pytest.approx(b.variance, abs=1e-13)

    def test_product_design_matches_explicit_formula(self):
        # Independent evaluation of the separable-input readout variance at
        # arbitrary phase: per-port squeezers of n_s = N_s / M photons enter
        # with weight cos^2/M each.
        m, n_s_total, phi, eta = 4, db_to_photons(10.0), 0.3, 0.7
        config = DesignConfig("P", m_interferometers=m, n_v=2.0, n_squeezed=n_s_total)
        result = build_and_run(config, phi, eta)
        per_port = n_s_total / m
        mu, nu = math.sqrt(1 + per_port), math.sqrt(per_port)
        expected_variance = (
            eta
            * (
                math.sin(phi) ** 2 / 4.0
                + math.cos(phi) ** 2 / m * sum((mu - nu) ** 2 / 4.0 for _ in range(m))
            )
            + (1 - eta) / 4.0
        )
        assert result.variance == pytest.approx(expected_variance, abs=1e-12)
        assert result.mean == pytest.approx(
            math.sqrt(eta) * math.sin(phi) * math.sqrt(m * 2.0), abs=1e-12
        )

    @pytest.mark.parametrize("m", COUNTS)
    def test_circuit_matches_closed_form_grid(self, m):
        for config in grid_configs():
            if config.m_interferometers != m:
                continue
            for eta in ETAS:
                for phi in PHIS:
                    sim = build_and_run(config, phi, eta)
                    ref = homodyne_closed_form(config, phi, eta)
                    assert sim.mean == pytest.approx(ref.mean, abs=1e-10)
                    assert sim.variance == pytest.approx(ref.variance, abs=1e-10)

    @pytest.mark.parametrize("m", (1, 2, 4, 8))
    @pytest.mark.parametrize("per_port", (0.37, 2.03))
    def test_entangled_equals_product_per_port(self, m, per_port):
        # One squeezer of x photons split M ways performs exactly like M
        # independent squeezers of x photons each.
        entangled = DesignConfig("E", m_interferometers=m, n_v=1.0, n_squeezed=per_port)
        product = DesignConfig(
            "P", m_interferometers=m, n_v=1.0, n_squeezed=m * per_port
        )
        for eta in ETAS:
            for phi in PHIS:
                a = build_and_run(entangled, phi, eta)
                b = build_and_run(product, phi, eta)
                assert a.variance == pytest.approx(b.variance, abs=1e-12)


class TestEstimatorVariance:
    def test_classical(self):
        config = DesignConfig("C", n_v=100.0)
        result = estimator_variance_sim(config, 0.5, 2.0)
        assert result.estimator_variance == pytest.approx(
            1.0 / (2.0**2 * 0.5 * 100.0), rel=1e-12
        )

    def test_distributed_scales_with_count(self):
        config = DesignConfig("D", m_interferometers=8, n_v=10.0)
        result = estimator_variance_sim(config, 0.5, 1.0)
        assert result.estimator_variance == pytest.approx(
            1.0 / (0.5 * 8 * 10.0), rel=1e-12
        )

    def test_entangled_formula(self):
        n_s = db_to_photons(10.0)
        config = DesignConfig("E", m_interferometers=4, n_v=10.0, n_squeezed=n_s)
        result = estimator_variance_sim(config, 0.8, 1.5)
        expected = (1.0 / (1.5**2 * 0.8 * 40.0)) * (0.8 / 10.0 + 0.2)
        assert result.estimator_variance == pytest.approx(expected, rel=1e-12)
        assert result.variance_normalized == pytest.approx(
            expected * 1.5**2 * 10.0, rel=1e-12
        )

    def test_sim_matches_analytic_over_grid(self):
        for config in grid_configs():
            for eta in ETAS:
                sim = estimator_variance_sim(config, eta, 1.0)
                reference = analytic.design_variance(
                    config.variant,
                    1.0,
                    eta,
                    config.m_interferometers,
                    config.n_v,
                    config.n_squeezed,
                )
                assert sim.estimator_variance == pytest.approx(reference, rel=1e-9)

    def test_slope_matches_finite_differences(self):
        step = 1e-6
        for config in (
            DesignConfig("C", n_v=4.0),
            DesignConfig("S", n_v=4.0, n_squeezed=2.0),
            DesignConfig("E", m_interferometers=4, n_v=4.0, n_squeezed=2.0),
            DesignConfig("P", m_interferometers=3, n_v=4.0, n_squeezed=2.0),
        ):
            for phi in (0.0, 0.2):
                eta = 0.6
                exact = mean_slope(config, phi, eta)
                upper = build_and_run(config, phi + step, eta).mean
                lower = build_and_run(config, phi - step, eta).mean
                numeric = (upper - lower) / (2 * step)
                assert numeric == pytest.approx(exact, rel=1e-8)

    def test_zero_transmissivity_is_degenerate(self):
        from fogsim.designs import DegenerateConfigurationError

        with pytest.raises(DegenerateConfigurationError):
            estimator_variance_sim(DesignConfig("C"), 0.0, 1.0)

    def test_bad_time_factor(self):
        with pytest.raises(ValueError):
            estimator_variance_sim(DesignConfig("C"), 0.5, 0.0)


class TestMonotonicity:
    def test_variance_non_increasing_in_squeezing(self):
        for variant, m in (("S", 1), ("P", 4), ("E", 4)):
            for eta in ETAS:
                previous = math.inf
                for n_s in SQUEEZED:
                    config = DesignConfig(
                        variant, m_interferometers=m, n_v=1.0, n_squeezed=n_s
                    )
                    value = estimator_variance_sim(config, eta, 1.0).estimator_variance
                    assert value <= previous + 1e-15
                    previous = value

    def test_variance_non_increasing_in_transmissivity(self):
        for config in grid_configs():
            values = [
                estimator_variance_sim(config, eta, 1.0).estimator_variance
                for eta in sorted(ETAS)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
