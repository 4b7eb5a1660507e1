"""Closed-form layer: Lambert W, exponents, optima, ratios, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import analytic
from fogsim.analytic import (
    array_size_exponent,
    classical_variance,
    design_variance,
    lambert_w0,
    length_exponent,
    optimal_energy_split,
    optimal_length,
    optimal_m,
    ratio_fixed_eta,
    ratio_optimal_length,
    ratio_optimal_m,
    ratio_product_fixed_eta,
    variance_vs_length,
)
from fogsim.sagnac import db_to_photons, transmissivity

from _oracles import grid_minimum, lambert_bisect

TABLE_SIGMAS = (5.0, 10.0, 15.0, 20.0, math.inf)
TABLE_LENGTH_OPT = (1.116, 1.168, 1.187, 1.193, 1.196)
TABLE_COUNT_OPT = (1.435, 1.837, 2.154, 2.375, 2.718)


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_unit(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_against_bisection(self):
        x = -2.0 / math.e**2
        assert lambert_w0(x) == pytest.approx(lambert_bisect(x), abs=1e-12)
        assert lambert_w0(x) == pytest.approx(-0.4064, abs=1e-4)

    @given(st.floats(min_value=-math.exp(-1.0) + 1e-12, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_residual_bound(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))

    @given(
        st.floats(min_value=-math.exp(-1.0), max_value=100.0),
        st.floats(min_value=1e-12, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_increasing(self, x, delta):
        assert lambert_w0(x + delta) >= lambert_w0(x)

    def test_near_branch_accuracy(self):
        # The fixed-length limit drives the argument toward the branch
        # point, so accuracy there matters.
        for delta in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
            x = -math.exp(-1.0) * (1.0 - delta)
            assert lambert_w0(x) == pytest.approx(lambert_bisect(x), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0 / math.e - 1e-9)


class TestExponents:
    def test_zero_squeezing(self):
        assert length_exponent(0.0) == 0.0
        assert array_size_exponent(0.0) == 0.0

    def test_infinite_squeezing_limits(self):
        assert length_exponent(math.inf) == pytest.approx(
            lambert_bisect(-2.0 / math.e**2), abs=1e-12
        )
        assert array_size_exponent(math.inf) == -1.0

    def test_ten_db_value(self):
        n_s = db_to_photons(10.0)
        x = 4.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e**2
        assert length_exponent(n_s) == pytest.approx(lambert_bisect(x), abs=1e-12)
        assert length_exponent(n_s) == pytest.approx(-0.3433, abs=2e-4)
        # Its inverse-ratio must reproduce the known 10 dB improvement.
        lam = length_exponent(n_s)
        assert (2.0 + lam) / (2.0 * math.exp(lam)) == pytest.approx(1.168, abs=1e-3)

    def test_array_exponent_against_bisection(self):
        for sigma in (1.0, 5.0, 10.0, 20.0, 40.0):
            n_s = db_to_photons(sigma)
            x = 2.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e
            assert array_size_exponent(n_s) == pytest.approx(
                lambert_bisect(x), abs=1e-12
            )

    def test_product_exponent_reduces_at_one(self):
        for n_s in (0.0, 0.5, 2.025, 9.7):
            assert length_exponent(n_s, 1) == length_exponent(n_s)
            # M squeezers of n_s photons each act like one of n_s photons.
            for m in (2, 8):
                assert length_exponent(m * n_s, m) == pytest.approx(
                    length_exponent(n_s), abs=1e-12
                )

    def test_limit_of_length_exponent_argument(self):
        # 4 (x - sqrt(x (1 + x))) / e^2 tends to -2/e^2 from above.
        for n_s in (1e2, 1e4, 1e6):
            arg = 4.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e**2
            assert arg > -2.0 / math.e**2
        assert 4.0 * (1e8 - math.sqrt(1e8 * (1 + 1e8))) / math.e**2 == pytest.approx(
            -2.0 / math.e**2, rel=1e-7
        )


class TestVarianceFormulas:
    def test_classical_direct_substitution(self):
        assert classical_variance(1.0, 1.0, 100.0) == pytest.approx(0.01)

    def test_halving_transmissivity_doubles_variance(self):
        assert classical_variance(1.0, 0.5, 100.0) == pytest.approx(
            2.0 * classical_variance(1.0, 1.0, 100.0)
        )

    def test_squeezed_reduces_to_classical(self):
        assert design_variance("S", 2.0, 0.7, 1, 50.0, 0.0) == classical_variance(
            2.0, 0.7, 50.0
        )

    def test_lossless_ten_db_divides_by_ten(self):
        n_s = db_to_photons(10.0)
        assert design_variance("S", 1.0, 1.0, 1, 100.0, n_s) == pytest.approx(
            classical_variance(1.0, 1.0, 100.0) / 10.0, rel=1e-12
        )

    def test_infinite_squeezing_ratio_limit(self):
        for eta in (0.3, 0.8):
            ratio = design_variance(
                "S", 1.0, eta, 1, 10.0, math.inf
            ) / classical_variance(1.0, eta, 10.0)
            assert ratio == pytest.approx(1.0 - eta, rel=1e-12)

    @pytest.mark.parametrize("time_factor_s", [1e200, 1e-200])
    def test_time_factor_out_of_range_is_named(self, time_factor_s):
        # T^2 overflows (or underflows to 0); the error names the time factor.
        with pytest.raises(ValueError, match="time factor"):
            classical_variance(time_factor_s, 0.9, 100.0)

    def test_fiber_form_matches_optimized_value(self):
        b = 0.5
        length = 20.0 / (math.log(10.0) * b)
        direct = 1.0 / (length**2 * transmissivity(b, length))
        assert direct == pytest.approx(
            optimal_length("C", b).variance_normalized, rel=1e-12
        )
        assert direct == pytest.approx(variance_vs_length("C", b, length), rel=1e-12)


class TestEnergySplit:
    def test_lossless_heisenberg(self):
        for n in (1.0, 10.0, 100.0):
            split = optimal_energy_split(n, 1.0)
            assert split.variance == pytest.approx(1.0 / (n * (n + 1.0)), rel=1e-12)

    def test_stable_form_equals_textbook_form(self):
        # The implementation rationalizes the small denominator; check it
        # against the literal expression away from eta = 1.
        for eta in (0.3, 0.6, 0.9):
            for n in (5.0, 100.0, 3000.0):
                split = optimal_energy_split(n, eta)
                z = math.sqrt(1.0 + 4.0 * eta * (1.0 - eta) * n)
                literal = (
                    2.0 * (1.0 - eta) ** 2 / (eta * (1.0 + 2.0 * (1.0 - eta) * n - z))
                )
                assert split.variance == pytest.approx(literal, rel=1e-9)

    def test_against_grid_oracle(self):
        n, eta = 100.0, 0.5
        split = optimal_energy_split(n, eta)
        x, value = grid_minimum(
            lambda n_s: design_variance("S", 1.0, eta, 1, n - n_s, n_s), 0.0, n * 0.999
        )
        assert split.n_squeezed == pytest.approx(x, rel=1e-6)
        assert split.variance == pytest.approx(value, rel=1e-10)

    def test_optimal_squeezing_expression(self):
        n, eta = 100.0, 0.5
        z = math.sqrt(1.0 + 4.0 * eta * (1.0 - eta) * n)
        expected = 2.0 * eta**2 * n**2 / (1.0 + z + 2.0 * eta * n * (2.0 - eta + z))
        assert optimal_energy_split(n, eta).n_squeezed == pytest.approx(
            expected, rel=1e-12
        )

    def test_high_energy_limit(self):
        eta = 0.5
        n = 1e9
        split = optimal_energy_split(n, eta)
        assert split.variance * eta * n == pytest.approx(1.0 - eta, rel=1e-4)


class TestOptimalLength:
    def test_classical_seventeen_km(self):
        optimum = optimal_length("C", 0.5)
        assert optimum.length_km == pytest.approx(17.372, abs=5e-4)
        assert optimum.length_km == pytest.approx(8.686 / 0.5, abs=1e-3)
        assert optimum.variance_normalized == pytest.approx(
            math.e**2 * math.log(10.0) ** 2 * 0.25 / 400.0, rel=1e-12
        )

    def test_entangled_single_port_reduces_to_squeezed(self):
        for n_s in (0.0, 1.0, db_to_photons(10.0)):
            e = optimal_length("E", 0.5, n_s, 1)
            s = optimal_length("S", 0.5, n_s, 1)
            assert e.length_km == s.length_km
            assert e.variance_normalized == s.variance_normalized

    def test_squeezed_ten_db_shortens_fiber(self):
        n_s = db_to_photons(10.0)
        optimum = optimal_length("S", 0.5, n_s)
        lam = lambert_bisect(4.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e**2)
        expected = 10.0 * (2.0 + lam) / (math.log(10.0) * 0.5)
        assert optimum.length_km == pytest.approx(expected, rel=1e-10)
        assert optimum.length_km == pytest.approx(14.39, abs=5e-3)
        assert optimum.length_km < optimal_length("C", 0.5).length_km

    @pytest.mark.parametrize("variant,m,n_s", [
        ("C", 1, 0.0),
        ("S", 1, 2.025),
        ("D", 4, 0.0),
        ("P", 4, 2.025),
        ("E", 4, 2.025),
    ])
    @pytest.mark.parametrize("b", [0.2, 0.5, 1.0])
    def test_stationary_minimum(self, variant, m, n_s, b):
        optimum = optimal_length(variant, b, n_s, m)
        length = optimum.length_km
        step = length * 1e-5
        center = variance_vs_length(variant, b, length, m, n_s)
        upper = variance_vs_length(variant, b, length + step, m, n_s)
        lower = variance_vs_length(variant, b, length - step, m, n_s)
        derivative = (upper - lower) / (2 * step)
        assert abs(derivative) * length / center < 1e-6
        assert upper - 2 * center + lower > 0
        assert center == pytest.approx(optimum.variance_normalized, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("sigma", [5.0, 10.0, 15.0])
    def test_distributed_identities(self, m, sigma):
        n_s = db_to_photons(sigma)
        single = optimal_length("S", 0.5, n_s, 1)
        array = optimal_length("E", 0.5, n_s, m)
        assert array.length_km == pytest.approx(m * single.length_km, rel=1e-10)
        assert array.variance_normalized == pytest.approx(
            single.variance_normalized / m, rel=1e-10
        )
        classical_single = optimal_length("C", 0.5)
        classical_array = optimal_length("D", 0.5, 0.0, m)
        assert classical_array.length_km == pytest.approx(
            m * classical_single.length_km, rel=1e-12
        )


class TestOptimalCount:
    def test_distributed_example(self):
        optimum = optimal_m("D", 0.5, 20.0)
        assert optimum.continuous == pytest.approx(2.3026, abs=1e-4)
        # Direct evaluation picks between the floor and ceiling candidates.
        assert optimum.floor_candidate == 2
        assert optimum.ceil_candidate == 3
        assert optimum.variance_floor < optimum.variance_ceil
        assert optimum.chosen == 2

    def test_entangled_reduces_to_distributed_without_squeezing(self):
        d = optimal_m("D", 0.5, 20.0)
        e = optimal_m("E", 0.5, 20.0, 0.0)
        assert e.continuous == pytest.approx(d.continuous, rel=1e-14)
        assert e.chosen == d.chosen

    def test_entangled_ten_db_spot_values(self):
        # At b = 0.5, L = 15, 10 dB, the continuous optimum sits at 4.41
        # interferometers and the floor wins the integer comparison by a
        # 0.12 percent margin (normalized 2.5597 vs 2.5627 in units of L^2).
        optimum = optimal_m("E", 0.5, 15.0, db_to_photons(10.0))
        assert optimum.continuous == pytest.approx(4.4093, abs=2e-4)
        assert optimum.floor_candidate == 4
        assert optimum.ceil_candidate == 5
        assert optimum.variance_floor * 15.0**2 == pytest.approx(2.559706, abs=1e-5)
        assert optimum.variance_ceil * 15.0**2 == pytest.approx(2.562689, abs=1e-5)
        assert optimum.chosen == 4

    def test_below_threshold_flag(self):
        optimum = optimal_m("D", 0.5, 1.0)
        assert optimum.continuous == pytest.approx(0.11513, abs=1e-4)
        assert optimum.below_threshold
        assert optimum.chosen == 1

    def test_product_design_needs_numeric_route(self):
        with pytest.raises(ValueError):
            optimal_m("P", 0.5, 15.0, 1.0)


class TestRatios:
    def test_no_squeezing_means_no_improvement(self):
        assert ratio_fixed_eta(0.0, 0.6) == 1.0
        assert ratio_optimal_length(0.0) == pytest.approx(1.0, rel=1e-14)
        assert ratio_optimal_m(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_fixed_eta_formula(self):
        n_s = db_to_photons(10.0)
        for eta in (0.2, 0.7, 1.0):
            assert ratio_fixed_eta(n_s, eta) == pytest.approx(
                eta / 10.0 + 1.0 - eta, rel=1e-12
            )

    def test_product_ratio_bounded_by_entangled(self):
        n_s = db_to_photons(10.0)
        for m in (2, 4, 8):
            for eta in (0.3, 0.9):
                assert ratio_product_fixed_eta(n_s, eta, m) >= ratio_fixed_eta(
                    n_s, eta
                )

    def test_infinite_squeezing_limits(self):
        assert ratio_fixed_eta(math.inf, 0.7) == pytest.approx(0.3, rel=1e-12)
        w = lambert_bisect(-2.0 / math.e**2)
        assert ratio_optimal_length(math.inf) == pytest.approx(
            2.0 * math.exp(w) / (2.0 + w), rel=1e-12
        )
        assert ratio_optimal_length(math.inf) == pytest.approx(0.836, abs=5e-4)
        assert ratio_optimal_m(math.inf) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_benchmark_table_rows(self):
        for sigma, expected in zip(TABLE_SIGMAS, TABLE_LENGTH_OPT):
            n_s = db_to_photons(sigma)
            assert 1.0 / ratio_optimal_length(n_s) == pytest.approx(
                expected, abs=1e-3
            )
        for sigma, expected in zip(TABLE_SIGMAS, TABLE_COUNT_OPT):
            n_s = db_to_photons(sigma)
            assert 1.0 / ratio_optimal_m(n_s) == pytest.approx(expected, abs=1e-3)

    def test_ratio_ordering(self):
        for sigma in np.linspace(0.0, 40.0, 41):
            n_s = db_to_photons(sigma)
            fixed = ratio_optimal_m(n_s)
            unconstrained = ratio_optimal_length(n_s)
            assert 1.0 / math.e - 1e-12 <= fixed <= unconstrained <= 1.0 + 1e-12

    def test_count_ratio_independent_of_fiber_parameters(self):
        # e^(array exponent) depends only on the squeezed photon number;
        # cross-check by re-deriving it from the closed-form optima at
        # different (b, L) pairs.
        n_s = db_to_photons(10.0)
        reference = ratio_optimal_m(n_s)
        for b, length in ((0.5, 15.0), (0.25, 40.0), (1.0, 8.0)):
            quantum = optimal_m("E", b, length, n_s).variance_continuous
            classical = optimal_m("D", b, length).variance_continuous
            assert quantum / classical == pytest.approx(reference, rel=1e-12)


class TestDesignVarianceDispatch:
    def test_all_variants(self):
        n_s = 2.0
        assert design_variance("C", 1.0, 0.5, 1, 10.0) == pytest.approx(0.2)
        assert design_variance("D", 1.0, 0.5, 4, 10.0) == pytest.approx(0.05)
        squeezed = design_variance("S", 1.0, 0.5, 1, 10.0, n_s)
        entangled = design_variance("E", 1.0, 0.5, 4, 10.0, n_s)
        assert entangled == pytest.approx(squeezed / 4.0, rel=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            design_variance("Z", 1.0, 0.5)

    def test_rejects_invalid_design_arguments(self):
        with pytest.raises(ValueError, match="single interferometer"):
            design_variance("S", 1.0, 0.5, 2, 10.0, 1.0)
        with pytest.raises(ValueError, match="no squeezed light"):
            design_variance("D", 1.0, 0.5, 2, 10.0, 1.0)
        with pytest.raises(ValueError, match="at least 1"):
            variance_vs_length("P", 0.5, 15.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ratio_product_fixed_eta(-1.0, 0.5, 4)

    @pytest.mark.parametrize(
        "call",
        [
            analytic.inverse_squeeze_factor,
            length_exponent,
            array_size_exponent,
            lambda n: ratio_product_fixed_eta(n, 0.5, 4),
        ],
        ids=["inverse_squeeze_factor", "length_exponent", "array_size_exponent", "design_P"],
    )
    def test_nan_squeezing_rejected(self, call):
        with pytest.raises(ValueError, match="squeezed photon number must be nonnegative"):
            call(math.nan)

    @pytest.mark.parametrize("variant,m", [("C", 1), ("S", 1), ("D", 4), ("P", 4), ("E", 4)])
    def test_variance_is_laser_only_times_ratio(self, variant, m):
        # One scalar separates the designs: variance over the laser-only
        # variance of the same array is the fixed-eta ratio.
        n_s = 0.0 if variant in ("C", "D") else db_to_photons(10.0)
        eta = 0.8
        laser_only = classical_variance(1.0, eta, m * 10.0)
        ratio = (
            ratio_product_fixed_eta(n_s, eta, m) if variant == "P"
            else ratio_fixed_eta(n_s, eta)
        )
        assert design_variance(variant, 1.0, eta, m, 10.0, n_s) == pytest.approx(
            laser_only * ratio, rel=1e-15
        )
