"""Circuit tests for the five gyroscope designs: against the closed forms and the dense oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import analytic
from fogsim.designs import (
    DesignConfig,
    _run_circuit,
    _splitter_mix,
    build_and_run,
    estimator_variance_sim,
)
from fogsim.sagnac import DOMAIN, db_to_photons, transmissivity

import _exact
from _dense import balanced_splitter_array
from _oracles import dense_design_circuit, homodyne_closed_form

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

    @pytest.mark.parametrize("n_v", [math.inf, math.nan])
    def test_non_finite_laser_power(self, n_v):
        with pytest.raises(ValueError):
            DesignConfig("C", n_v=n_v)


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


@st.composite
def fiber_designs(draw):
    """A design over the paper's ranges: 0-30 dB, b 0.2-2 dB/km, L 2-40 km, M up to 1000."""
    variant = draw(st.sampled_from("CSDPE"))
    m = 1 if variant in "CS" else draw(st.integers(1, 1000))
    sigma_db = 0.0 if variant in "CD" else draw(st.floats(0.0, 30.0))
    b, length = draw(st.floats(0.2, 2.0)), draw(st.floats(2.0, 40.0))
    return variant, m, db_to_photons(sigma_db), b, length


#: The worst relative deviation over 3000 seeded draws was 3.4e-14 (E, M = 820, 29 dB).
LENGTH_FORM_RTOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(fiber_designs())
def test_circuit_matches_length_resolved_form(design):
    # Two independent routes to one number: the circuit at the transmissivity
    # of one coil of length L/M, and the closed form in the total length L,
    # whose normalization divides by (L/M)^2.
    variant, m, n_s, b, length = design
    eta = transmissivity(b, length / m)
    sim = estimator_variance_sim(DesignConfig(variant, m, 1.0, n_s), eta, 1.0)
    closed = analytic.variance_vs_length(variant, b, length, m, n_s) * (length / m) ** 2
    assert sim.variance_normalized == pytest.approx(closed, rel=LENGTH_FORM_RTOL)


#: Above about 130 dB the circuit attains the loss bound, and rounding leaves
#: it up to 7 ulps either side: the worst of 100 000 draws up to 3076.5 dB was
#: 1.6e-15 below.
LOSS_BOUND_RTOL = 1e-14


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from("SPE"),
    m=st.integers(1, 64),
    sigma=st.floats(0.0, DOMAIN["squeeze_db"][3]),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    log_n_v=st.floats(-6.0, 12.0),
    log_t=st.floats(-3.0, 3.0),
)
def test_circuit_obeys_the_loss_bound(variant, m, sigma, eta, log_n_v, log_t):
    # The loss bound of test_analytic's TestRatios, in the model's form, on
    # the circuit: its variance is never below 1 - eta times the laser-only
    # one, whose photons are all the lasers' M n_v.  That one is exact: the
    # closed form's loses bits where T^2 eta is subnormal.
    m = 1 if variant == "S" else m
    n_v, t = 10.0**log_n_v, 10.0**log_t
    try:
        sim = estimator_variance_sim(DesignConfig(variant, m, n_v, db_to_photons(sigma)), eta, t)
    except ValueError:  # a variance out of floating-point range
        return
    classical = _exact.classical_variance(t, eta, n_v) / m
    assert sim.estimator_variance >= (1.0 - eta) * classical * (1.0 - LOSS_BOUND_RTOL)


#: The worst relative error of 40 000 seeded draws was 3.0e-15 (E, M = 63,
#: 374 dB, eta = 1 - 2**-53).
EXACT_RTOL = 1e-14


@settings(max_examples=300, deadline=None)
@given(
    variant=st.sampled_from("SDPE"),
    m=st.integers(1, 64),
    sigma=st.floats(0.0, DOMAIN["squeeze_db"][3]),
    # eta = 1 exactly is test_circuit_keeps_its_squeezing_at_unit_transmissivity.
    eta=st.floats(1e-3, 1.0, exclude_max=True),
    log_n_v=st.floats(-3.0, 9.0),
    log_t=st.floats(-3.0, 3.0),
)
def test_circuit_matches_the_exact_fixed_eta_form(variant, m, sigma, eta, log_n_v, log_t):
    # The circuit against the mpmath twin of ratio_fixed_eta times the
    # laser-only variance, whose photons are all the lasers' M n_v.
    m = 1 if variant == "S" else m
    n_s = 0.0 if variant == "D" else db_to_photons(sigma)
    n_v, t = 10.0**log_n_v, 10.0**log_t
    sim = estimator_variance_sim(DesignConfig(variant, m, n_v, n_s), eta, t)
    exact = _exact.design_variance(variant, t, eta, m, n_v, n_s)
    assert abs(sim.estimator_variance - exact) <= EXACT_RTOL * exact


@pytest.mark.xfail(strict=True, reason="the splitter array's rounding floors design E's "
                   "read-port variance near 1e-31 of the vacuum's")
def test_circuit_keeps_its_squeezing_at_unit_transmissivity():
    # At eta = 1 the ratio to the laser-only variance is q = 1e-40 at 400 dB.
    # Mapped back through the three-port splitter array, whose 1/sqrt(3) is
    # rounded, the readout row keeps parts of about 1e-16 on the two vacuum
    # ports, where it has none exactly; their noise floors the ratio at 6e-31.
    n_s = db_to_photons(400.0)
    sim = estimator_variance_sim(DesignConfig("E", 3, 1.0, n_s), 1.0, 1.0)
    exact = _exact.design_variance("E", 1.0, 1.0, 3, 1.0, n_s)
    assert abs(sim.estimator_variance - exact) <= EXACT_RTOL * exact


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
                exact = _run_circuit(config, phi, eta)[1]
                upper = build_and_run(config, phi + step, eta).mean
                lower = build_and_run(config, phi - step, eta).mean
                numeric = (upper - lower) / (2 * step)
                assert numeric == pytest.approx(exact, rel=1e-8)

    def test_zero_transmissivity_is_named(self):
        # The homodyne moments exist at eta = 0, but no rotation signal does.
        build_and_run(DesignConfig("C"), 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^transmissivity must lie in \(0, 1\], got 0.0$"):
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


#: Both signs of cos(phi) and sin(phi), so each phase coefficient's sign is pinned.
ORACLE_PHIS = (0.0, 0.01, 0.3, 1.2, -0.7, 2.0, math.pi)
ORACLE_ETAS = (0.0, 0.5, 1.0)
#: At most 30 dB, where the dense engine's eigen-checks are well conditioned.
ORACLE_SQUEEZE_DB = (0.0, 10.0, 30.0)


def _oracle_configs(variant, m):
    if variant in ("C", "D"):
        return [DesignConfig(variant, m_interferometers=m, n_v=2.5)]
    return [
        DesignConfig(variant, m_interferometers=m, n_v=2.5, n_squeezed=db_to_photons(db))
        for db in ORACLE_SQUEEZE_DB
    ]


def _close(value, reference, tol=1e-12):
    """Relative agreement, or absolute where the reference is 0."""
    if reference == 0.0:
        return abs(value) <= tol
    return abs(value - reference) <= tol * abs(reference)


class TestDenseOracle:
    """The O(M) readout against the dense 4M x 4M propagation."""

    @pytest.mark.parametrize(
        "variant, m",
        [("C", 1), ("S", 1)] + [(v, m) for v in "DPE" for m in (1, 2, 3, 4, 16)],
    )
    def test_mean_variance_and_slope_match(self, variant, m):
        for config in _oracle_configs(variant, m):
            for phi in ORACLE_PHIS:
                for eta in ORACLE_ETAS:
                    fast, fast_slope = _run_circuit(config, phi, eta)
                    dense, dense_slope = dense_design_circuit(config, phi, eta)
                    case = (config, phi, eta)
                    assert _close(fast.mean, dense.mean), case
                    assert _close(fast.variance, dense.variance), case
                    assert _close(fast_slope, dense_slope), case

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_householder_update_is_the_splitter_mixing(self, m):
        mixing = balanced_splitter_array(m).matrix[0::2, 0::2]
        # The mixing matrix is symmetric, so mixing each row of I gives its rows.
        mixed = np.array([_splitter_mix(row.tolist()) for row in np.eye(m)])
        np.testing.assert_allclose(mixed, mixing, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("variant", ["D", "P", "E"])
    def test_ten_thousand_interferometers(self, variant):
        m, eta = 10_000, 0.8
        n_s = 0.0 if variant == "D" else db_to_photons(10.0)
        config = DesignConfig(variant, m_interferometers=m, n_v=100.0, n_squeezed=n_s)
        result = estimator_variance_sim(config, eta, 1.0)
        reference = analytic.design_variance(variant, 1.0, eta, m, 100.0, n_s)
        assert result.estimator_variance == pytest.approx(reference, rel=1e-12)
