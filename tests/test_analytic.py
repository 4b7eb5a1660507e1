"""Closed-form layer: Lambert W, exponents, optima, ratios, identities."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogsim import analytic
from fogsim.analytic import (
    _exponent,
    classical_variance,
    design_variance,
    lambert_w0,
    optimal_energy_split,
    optimal_length,
    optimal_m,
    ratio_fixed_eta,
    ratio_optimal_length,
    ratio_optimal_m,
    variance_vs_length,
)
from fogsim.optimize import optimize_m_integer
from fogsim.sagnac import DOMAIN, db_to_photons, transmissivity

import _exact
from _oracles import grid_minimum, lambert_bisect

TABLE_SIGMAS = (5.0, 10.0, 15.0, 20.0, math.inf)
TABLE_LENGTH_OPT = (1.116, 1.168, 1.187, 1.193, 1.196)
TABLE_COUNT_OPT = (1.435, 1.837, 2.154, 2.375, 2.718)


def _lambert_w_mp(x: float) -> mpmath.mpf:
    """50-digit principal-branch Lambert W of the float ``x``."""
    with mpmath.workdps(50):
        return mpmath.lambertw(mpmath.mpf(x)).real


#: Every exponent argument lies in [-1/e, 0]: an even grid across it, and a
#: grid that approaches the branch point.
W_GRID = [-math.exp(-1.0) * (1.0 - k / 400.0) for k in range(1, 401)]
W_NEAR_BRANCH = [-math.exp(-1.0) * (1.0 - delta) for delta in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)]


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_unit(self):
        # -ln(2) e^(-ln 2) = -ln(2) / 2.
        assert lambert_w0(-math.log(2.0) / 2.0) == pytest.approx(-math.log(2.0), rel=1e-14)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_against_bisection(self):
        x = -2.0 / math.e**2
        assert lambert_w0(x) == pytest.approx(lambert_bisect(x), abs=1e-12)
        assert lambert_w0(x) == pytest.approx(-0.4064, abs=1e-4)

    @given(st.floats(min_value=-math.exp(-1.0) + 1e-12, max_value=0.0))
    @settings(max_examples=200, deadline=None)
    def test_residual_bound(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-13

    @given(
        st.floats(min_value=-math.exp(-1.0), max_value=0.0),
        st.floats(min_value=1e-12, max_value=0.4),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_increasing(self, x, delta):
        assert lambert_w0(min(x + delta, 0.0)) >= lambert_w0(x)

    def test_residual_against_mpmath(self):
        for x in W_GRID + W_NEAR_BRANCH:
            w = lambert_w0(x)
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(w) * mpmath.exp(w) - x) <= 1e-13, x

    def test_against_mpmath(self):
        # W' = 1 / (e^W (1 + W)) grows without bound at the branch point, so
        # the grid keeps 1e-3 away from it here.
        for x in W_GRID:
            if x > -math.exp(-1.0) + 1e-3:
                assert abs(lambert_w0(x) - _lambert_w_mp(x)) <= 1e-12, x

    def test_near_branch_accuracy(self):
        # The fixed-length limit drives the argument toward the branch
        # point, so accuracy there matters.
        for x in W_NEAR_BRANCH:
            assert abs(lambert_w0(x) - _lambert_w_mp(x)) <= 1e-10, x

    def test_domain_error(self):
        with pytest.raises(ValueError, match="below the branch point"):
            lambert_w0(-1.0 / math.e - 1e-9)

    @pytest.mark.parametrize("x", [5e-324, 1.0, math.e, math.inf])
    def test_positive_argument_rejected(self, x):
        with pytest.raises(ValueError, match=r"above 0, outside the solved range \[-1/e, 0\]"):
            lambert_w0(x)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            lambert_w0(math.nan)


class TestExponents:
    def test_zero_squeezing(self):
        assert _exponent(2, 0.0) == 0.0
        assert _exponent(1, 0.0) == 0.0

    def test_infinite_squeezing_limits(self):
        assert _exponent(2, math.inf) == pytest.approx(
            lambert_bisect(-2.0 / math.e**2), abs=1e-12
        )
        assert _exponent(1, math.inf) == -1.0

    def test_ten_db_value(self):
        n_s = db_to_photons(10.0)
        x = 4.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e**2
        assert _exponent(2, n_s) == pytest.approx(lambert_bisect(x), abs=1e-12)
        assert _exponent(2, n_s) == pytest.approx(-0.3433, abs=2e-4)
        # Its inverse-ratio must reproduce the known 10 dB improvement.
        lam = _exponent(2, n_s)
        assert (2.0 + lam) / (2.0 * math.exp(lam)) == pytest.approx(1.168, abs=1e-3)

    def test_array_exponent_against_bisection(self):
        for sigma in (1.0, 5.0, 10.0, 20.0, 40.0):
            n_s = db_to_photons(sigma)
            x = 2.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e
            assert _exponent(1, n_s) == pytest.approx(
                lambert_bisect(x), abs=1e-12
            )

    def test_product_exponent_reduces_at_one(self):
        for n_s in (0.0, 0.5, 2.025, 9.7):
            assert _exponent(2, n_s, 1) == _exponent(2, n_s)
            # M squeezers of n_s photons each act like one of n_s photons.
            for m in (2, 8):
                assert _exponent(2, m * n_s, m) == pytest.approx(
                    _exponent(2, n_s), abs=1e-12
                )

    def test_limit_of_the_length_argument(self):
        # 4 (x - sqrt(x (1 + x))) / e^2 tends to -2/e^2 from above.
        for n_s in (1e2, 1e4, 1e6):
            arg = 4.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e**2
            assert arg > -2.0 / math.e**2
        assert 4.0 * (1e8 - math.sqrt(1e8 * (1 + 1e8))) / math.e**2 == pytest.approx(
            -2.0 / math.e**2, rel=1e-7
        )


class TestExponentTwin:
    """The exponent and both optimum ratios against the exact twin, 0 to 30 dB.

    Each bound rounds up the worst error of the Lambert-W route, measured in
    0.02 dB steps: 7.6e-13 for k = 1 and 2.7e-14 for k = 2, and 7.6e-13 and
    1.0e-14 relative for the two ratios.  Above 30 dB the argument k (q - 1)
    cancels more digits: at 39.9 dB ``ratio_optimal_m`` is 4.0e-11 off,
    relative, and ``optimal_m``'s x 2.8e-9 (E, b = 0.5 dB/km, L = 15 km).
    That range is left to ROADMAP item 13.
    """

    SIGMAS = [step / 4.0 for step in range(121)]

    @pytest.mark.parametrize("k, m, tolerance", [
        (1, 1, 1e-12), *((2, m, 4e-14) for m in (1, 2, 4, 16, 64)),
    ])
    def test_exponent(self, k, m, tolerance):
        for sigma in self.SIGMAS:
            n_s = db_to_photons(sigma)
            assert abs(_exponent(k, n_s, m) - _exact.exponent(k, n_s, m)) <= tolerance, sigma

    @pytest.mark.parametrize("ratio, tolerance", [(ratio_optimal_length, 2e-14), (ratio_optimal_m, 1e-12)])
    def test_ratio(self, ratio, tolerance):
        for sigma in self.SIGMAS:
            n_s = db_to_photons(sigma)
            exact = getattr(_exact, ratio.__name__)(n_s)
            assert abs(ratio(n_s) - exact) <= tolerance * exact, sigma


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

    def test_classical_variance_where_t_squared_eta_is_subnormal(self):
        # T^2 eta = 2.2e-312 would keep 39 of its 53 bits, and the variance,
        # 4.5e306, be off by 1.1e-13; scaled out of the subnormals it is not.
        eta = sys.float_info.min
        exact = _exact.classical_variance(1e-2, eta, 1e5)
        assert abs(classical_variance(1e-2, eta, 1e5) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("time_factor_s, eta, n_photons", [
        (1e200, 0.9, 100.0),  # T^2 overflows
        (1e-200, 0.9, 100.0),  # T^2 underflows to 0
        (0.01, 1e-310, 1.0),  # 1/(T^2 eta n) overflows on the scaled, subnormal-product path
        (1e-160, 1.0, 1.0),  # T^2 is subnormal, and the variance overflows
        (1e150, 1.0, 1e10),  # T^2 n overflows, so the variance rounds to 0
        (1e150, 1.0, 1.7e8),  # the variance, 5.9e-309, is subnormal
    ])
    def test_time_factor_out_of_range_is_named(self, time_factor_s, eta, n_photons):
        with pytest.raises(ValueError, match=re.escape(f"time factor {time_factor_s} s puts")):
            classical_variance(time_factor_s, eta, n_photons)

    def test_fiber_form_matches_optimized_value(self):
        b = 0.5
        length = 20.0 / (math.log(10.0) * b)
        direct = 1.0 / (length**2 * transmissivity(b, length))
        assert direct == pytest.approx(
            optimal_length("C", b).value, rel=1e-12
        )
        assert direct == pytest.approx(variance_vs_length("C", b, length), rel=1e-12)


class TestEnergySplit:
    def test_lossless_heisenberg(self):
        for n in (1.0, 10.0, 100.0):
            split = optimal_energy_split(n, 1.0)
            assert split.value == pytest.approx(1.0 / (n * (n + 1.0)), rel=1e-12)

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
                assert split.value == pytest.approx(literal, rel=1e-9)

    def test_against_grid_oracle(self):
        n, eta = 100.0, 0.5
        split = optimal_energy_split(n, eta)
        x, value = grid_minimum(
            lambda n_s: design_variance("S", 1.0, eta, 1, n - n_s, n_s), 0.0, n * 0.999
        )
        assert split.x == pytest.approx(x, rel=1e-6)
        assert split.value == pytest.approx(value, rel=1e-10)

    def test_optimal_squeezing_expression(self):
        n, eta = 100.0, 0.5
        z = math.sqrt(1.0 + 4.0 * eta * (1.0 - eta) * n)
        expected = 2.0 * eta**2 * n**2 / (1.0 + z + 2.0 * eta * n * (2.0 - eta + z))
        assert optimal_energy_split(n, eta).x == pytest.approx(
            expected, rel=1e-12
        )

    def test_high_energy_limit(self):
        eta = 0.5
        n = 1e9
        split = optimal_energy_split(n, eta)
        assert split.value * eta * n == pytest.approx(1.0 - eta, rel=1e-4)

    @pytest.mark.parametrize("n, eta", [(1e155, 1.0), (1e200, 1.0), (1e-200, 1e-200)])
    def test_variance_out_of_range_names_the_photon_number(self, n, eta):
        # 1 / (N (N + 1)) underflows at eta = 1; about 1 / (eta N) overflows where eta N is tiny.
        message = (f"total photon number {n!r} puts the variance of the optimal split out of "
                   f"floating-point range (transmissivity {eta!r})")
        with pytest.raises(ValueError, match=re.escape(message)):
            optimal_energy_split(n, eta)

    def test_split_out_of_range_names_the_photon_number(self):
        # The variance, 1e300, is a float; the split, about eta^2 N^2 = 1e-600, is not.
        message = ("total photon number 1.0 puts the squeezed photon number of the optimal split "
                   "out of floating-point range (transmissivity 1e-300)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimal_energy_split(1.0, 1e-300)

    @pytest.mark.parametrize("n, eta", [
        (1e155, 1e-3), (1e200, 1e-100),  # N^2 overflows
        (1e150, 1e-160),  # eta^2 is subnormal
        (1e300, 1e-295),  # both
        (1e160, 0.9), (1e300, 1e-10),  # 2 eta N (N + 1) overflows
        (1.5e308, 1e-311),  # 1 + 2 (1 - eta) N overflows
    ])
    def test_split_whose_squares_leave_the_normal_floats(self, n, eta):
        # The optimal split and its variance are normal floats all the same.
        with mpmath.workdps(50):
            n_mp, eta_mp = mpmath.mpf(n), mpmath.mpf(eta)
            z = mpmath.sqrt(1 + 4 * eta_mp * (1 - eta_mp) * n_mp)
            x = 2 * eta_mp**2 * n_mp**2 / (1 + z + 2 * eta_mp * n_mp * (2 - eta_mp + z))
            value = (1 + 2 * (1 - eta_mp) * n_mp + z) / (2 * eta_mp * n_mp * (n_mp + 1))
        split = optimal_energy_split(n, eta)
        assert abs(split.x / x - 1) <= 1e-15
        assert abs(split.value / value - 1) <= 1e-15


class TestOptimalLength:
    def test_classical_seventeen_km(self):
        optimum = optimal_length("C", 0.5)
        assert optimum.x == pytest.approx(17.372, abs=5e-4)
        assert optimum.x == pytest.approx(8.686 / 0.5, abs=1e-3)
        assert optimum.value == pytest.approx(
            math.e**2 * math.log(10.0) ** 2 * 0.25 / 400.0, rel=1e-12
        )

    def test_entangled_single_port_reduces_to_squeezed(self):
        for n_s in (0.0, 1.0, db_to_photons(10.0)):
            e = optimal_length("E", 0.5, n_s, 1)
            s = optimal_length("S", 0.5, n_s, 1)
            assert e.x == s.x
            assert e.value == s.value

    def test_squeezed_ten_db_shortens_fiber(self):
        n_s = db_to_photons(10.0)
        optimum = optimal_length("S", 0.5, n_s)
        lam = lambert_bisect(4.0 * (n_s - math.sqrt(n_s * (1 + n_s))) / math.e**2)
        expected = 10.0 * (2.0 + lam) / (math.log(10.0) * 0.5)
        assert optimum.x == pytest.approx(expected, rel=1e-10)
        assert optimum.x == pytest.approx(14.39, abs=5e-3)
        assert optimum.x < optimal_length("C", 0.5).x

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
        length = optimum.x
        step = length * 1e-5
        center = variance_vs_length(variant, b, length, m, n_s)
        upper = variance_vs_length(variant, b, length + step, m, n_s)
        lower = variance_vs_length(variant, b, length - step, m, n_s)
        derivative = (upper - lower) / (2 * step)
        assert abs(derivative) * length / center < 1e-6
        assert upper - 2 * center + lower > 0
        assert center == pytest.approx(optimum.value, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("sigma", [5.0, 10.0, 15.0])
    def test_distributed_identities(self, m, sigma):
        n_s = db_to_photons(sigma)
        single = optimal_length("S", 0.5, n_s, 1)
        array = optimal_length("E", 0.5, n_s, m)
        assert array.x == pytest.approx(m * single.x, rel=1e-10)
        assert array.value == pytest.approx(
            single.value / m, rel=1e-10
        )
        classical_single = optimal_length("C", 0.5)
        classical_array = optimal_length("D", 0.5, 0.0, m)
        assert classical_array.x == pytest.approx(
            m * classical_single.x, rel=1e-12
        )

    @pytest.mark.parametrize("variant,b,m,quantity", [
        ("C", 1e-310, 1, "optimal fiber length"),
        ("D", 1e-300, 1e10, "optimal fiber length"),
        ("C", 1e-200, 1, "variance"),
        ("C", 1e-160, 1, "variance"),
        ("E", 1e-160, 4, "variance"),
        ("S", 1e155, 1, "variance"),
        ("D", 1e300, 4, "variance"),
    ])
    def test_out_of_range_optimum_names_the_loss(self, variant, b, m, quantity):
        # Never a length of inf or a variance of 0, subnormal or inf.
        with pytest.raises(ValueError, match=re.escape(f"loss coefficient {b} dB/km puts the {quantity} out")):
            optimal_length(variant, b, 0.0, m)

    def test_smallest_loss_with_a_normal_variance_is_kept(self):
        assert optimal_length("C", 1e-150).value >= sys.float_info.min


class TestOptimalCount:
    def test_distributed_example(self):
        optimum = optimal_m("D", 0.5, 20.0)
        assert optimum.x == pytest.approx(2.3026, abs=1e-4)
        # Direct evaluation picks between the floor and ceiling candidates.
        assert (math.floor(optimum.x), math.ceil(optimum.x)) == (2, 3)
        assert variance_vs_length("D", 0.5, 20.0, 2) < variance_vs_length("D", 0.5, 20.0, 3)
        assert optimize_m_integer("D", 0.5, 20.0).x == 2

    def test_entangled_reduces_to_distributed_without_squeezing(self):
        d = optimal_m("D", 0.5, 20.0)
        e = optimal_m("E", 0.5, 20.0, 0.0)
        assert e.x == pytest.approx(d.x, rel=1e-14)
        assert optimize_m_integer("E", 0.5, 20.0, 0.0).x == optimize_m_integer("D", 0.5, 20.0).x

    @pytest.mark.parametrize("b, length", [(0.5, 20.0), (0.2, 2.0), (2.0, 40.0), (0.37, 13.1)])
    def test_distributed_is_the_laser_only_closed_form(self, b, length):
        # Without squeezing w = 0, and c L / (1 + w), c e^(1 + w) / L are
        # c L and c e / L to the last bit.
        c = b * math.log(10.0) / 10.0
        assert optimal_m("D", b, length) == (c * length, c * math.e / length, 0)

    def test_entangled_ten_db_spot_values(self):
        # At b = 0.5, L = 15, 10 dB, the continuous optimum sits at 4.41
        # interferometers and the floor wins the integer comparison by a
        # 0.12 percent margin (normalized 2.5597 vs 2.5627 in units of L^2).
        n_s = db_to_photons(10.0)
        optimum = optimal_m("E", 0.5, 15.0, n_s)
        assert optimum.x == pytest.approx(4.4093, abs=2e-4)
        assert (math.floor(optimum.x), math.ceil(optimum.x)) == (4, 5)
        variance_floor = variance_vs_length("E", 0.5, 15.0, 4, n_s)
        variance_ceil = variance_vs_length("E", 0.5, 15.0, 5, n_s)
        assert variance_floor * 15.0**2 == pytest.approx(2.559706, abs=1e-5)
        assert variance_ceil * 15.0**2 == pytest.approx(2.562689, abs=1e-5)
        assert optimize_m_integer("E", 0.5, 15.0, n_s).x == 4

    def test_below_threshold_flag(self):
        optimum = optimal_m("D", 0.5, 1.0)
        assert optimum.x == pytest.approx(0.11513, abs=1e-4)
        assert optimum.x < 1.0
        assert optimize_m_integer("D", 0.5, 1.0).x == 1

    @pytest.mark.parametrize("variant, b, length, quantity", [
        ("D", 1e-300, 1e100, "variance"),
        ("E", 1e-300, 1e100, "variance"),
        ("D", 1e-308, 2.0, "optimal interferometer count"),
        ("E", 1e-160, 1.4e-154, "optimal interferometer count"),
    ])
    def test_out_of_range_optimum_names_the_loss_and_length(self, variant, b, length, quantity):
        # Never a count or a variance of 0 or subnormal.
        message = f"loss coefficient {b} dB/km and fiber length {length} km put the {quantity} out"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            optimal_m(variant, b, length, 0.0 if variant == "D" else 10.0)

    def test_product_design_needs_numeric_route(self):
        with pytest.raises(ValueError):
            optimal_m("P", 0.5, 15.0, 1.0)

    @pytest.mark.parametrize("variant, n_s, message", [
        ("D", 10.0, "design D takes no squeezed light"),
        ("D", math.nan, "squeezed photon number must be nonnegative, got nan"),
        ("E", math.nan, "squeezed photon number must be nonnegative, got nan"),
        ("E", math.inf, "squeezed photon number inf has no finite continuous count optimum"),
    ])
    def test_squeezing_is_checked(self, variant, n_s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            optimal_m(variant, 0.5, 15.0, n_s)


class TestScaling:
    """The length-resolved variance depends on b and L only through b L, apart
    from its 1 / L^2 factor: (b, L) -> (k b, L / k) multiplies it by k^2, and
    so the count optimum's value, while its count stays."""

    K = 7.0
    #: b over 300 decades, the total loss b L from 1e-10 to 1e4 dB, and the
    #: squeezing over its whole domain; a draw that raises is skipped.
    DRAWS = dict(
        log_b=st.floats(-150.0, 150.0),
        log_total_db=st.floats(-10.0, 4.0),
        sigma=st.floats(0.0, 3076.5),
    )
    SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

    @staticmethod
    def _pair(function, log_b, log_total_db):
        """``function(b, L)`` and ``function(k b, L / k)``."""
        b = 10.0**log_b
        length = 10.0**log_total_db / b
        k = TestScaling.K
        return (function(loss, fiber) for loss, fiber in ((b, length), (k * b, length / k)))

    @SETTINGS
    @given(**DRAWS)
    def test_variance_scales_by_k_squared(self, log_b, log_total_db, sigma):
        n_s = db_to_photons(sigma)
        for variant, squeezing in (("D", 0.0), ("P", n_s), ("E", n_s)):
            profile = lambda b, length: variance_vs_length(variant, b, length, 3, squeezing)
            try:
                variance, scaled = self._pair(profile, log_b, log_total_db)
            except (ValueError, ArithmeticError):
                continue
            assert scaled == pytest.approx(self.K**2 * variance, rel=1e-12)

    @SETTINGS
    @given(**DRAWS)
    def test_count_optimum_keeps_its_count(self, log_b, log_total_db, sigma):
        n_s = db_to_photons(sigma)
        for variant, squeezing in (("D", 0.0), ("E", n_s)):
            count = lambda b, length: optimal_m(variant, b, length, squeezing)
            try:
                optimum, scaled = self._pair(count, log_b, log_total_db)
            except (ValueError, ArithmeticError):  # ZeroDivisionError: ROADMAP item 1
                continue
            assert scaled.x == pytest.approx(optimum.x, rel=1e-12)
            assert scaled.value == pytest.approx(self.K**2 * optimum.value, rel=1e-12)

    def test_subnormal_length_square(self):
        # L**2 is subnormal at both points; the kernel divides by L twice there.
        n_s = db_to_photons(200.0)
        profile = lambda b, length: variance_vs_length("E", b, length, 3, n_s)
        variance, scaled = self._pair(profile, 148.0, -11.0)
        assert scaled == pytest.approx(self.K**2 * variance, rel=1e-12)


class TestOptimalityCertificate:
    """A closed-form optimum is not beaten by its own objective at half and at twice its x.

    b runs from 1e-3 to 1e2 dB/km, L from 0.1 to 1e3 km and the squeezing
    from 0 to 40 dB.  Above 40 dB the exponent's cancelling argument and the
    kernel's q - 1 + e^u let the objective beat the optimum, from 83 dB;
    ROADMAP item 13 mends that range.
    """

    SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

    @staticmethod
    def _not_beaten(profile, optimum, smallest=0.0):
        for factor in (0.5, 2.0):
            if factor * optimum.x >= smallest:
                assert profile(factor * optimum.x) >= optimum.value, factor

    @SETTINGS
    @given(log_b=st.floats(-3.0, 2.0), log_length=st.floats(-1.0, 3.0), sigma=st.floats(0.0, 40.0))
    def test_count_optimum(self, log_b, log_length, sigma):
        b, length = 10.0**log_b, 10.0**log_length
        for variant, n_s in (("D", 0.0), ("E", db_to_photons(sigma))):
            optimum = optimal_m(variant, b, length, n_s)
            # variance_vs_length takes counts from 1.
            self._not_beaten(lambda m: variance_vs_length(variant, b, length, m, n_s), optimum, 1.0)

    @SETTINGS
    @given(log_b=st.floats(-3.0, 2.0), sigma=st.floats(0.0, 40.0), m=st.integers(1, 64))
    def test_length_optimum(self, log_b, sigma, m):
        b, n_s = 10.0**log_b, db_to_photons(sigma)
        for variant, count, squeezing in (("C", 1, 0.0), ("S", 1, n_s), ("P", m, n_s), ("E", m, n_s)):
            optimum = optimal_length(variant, b, squeezing, count)
            self._not_beaten(
                lambda length: variance_vs_length(variant, b, length, count, squeezing), optimum
            )


class TestRatios:
    def test_no_squeezing_means_no_improvement(self):
        assert ratio_fixed_eta("S", 0.6, 1, 0.0) == 1.0
        assert ratio_optimal_length(0.0) == pytest.approx(1.0, rel=1e-14)
        assert ratio_optimal_m(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_fixed_eta_formula(self):
        n_s = db_to_photons(10.0)
        for eta in (0.2, 0.7, 1.0):
            assert ratio_fixed_eta("S", eta, 1, n_s) == pytest.approx(
                eta / 10.0 + 1.0 - eta, rel=1e-12
            )

    def test_product_ratio_bounded_by_entangled(self):
        n_s = db_to_photons(10.0)
        for m in (2, 4, 8):
            for eta in (0.3, 0.9):
                assert ratio_fixed_eta("P", eta, m, n_s) >= ratio_fixed_eta("E", eta, m, n_s)

    @settings(max_examples=300, deadline=None)
    @given(
        variant=st.sampled_from("SPE"),
        eta=st.floats(0.0, 1.0, exclude_min=True),
        m=st.integers(1, 10**9),
        sigma=st.floats(0.0, DOMAIN["squeeze_db"][3]) | st.just(math.inf),
    )
    def test_fixed_eta_ratio_obeys_the_loss_bound(self, variant, eta, m, sigma):
        # Phase estimation through a channel of transmissivity eta has variance
        # at least (1 - eta) / (eta N) (Escher et al., Nat. Phys. 7, 406 (2011);
        # Demkowicz-Dobrzanski et al., Nat. Commun. 3, 1063 (2012)).  The test
        # takes the model's form, ratio >= 1 - eta, stronger than the strict
        # (1 - eta) n_v / (n_v + N_s); infinite squeezing attains it.  No slack:
        # eta q >= 0, and rounding is monotone.
        m = 1 if variant == "S" else m
        ratio = ratio_fixed_eta(variant, eta, m, db_to_photons(sigma))
        assert ratio >= 1.0 - eta
        if sigma == math.inf:
            assert ratio == 1.0 - eta

    def test_infinite_squeezing_limits(self):
        assert ratio_fixed_eta("S", 0.7, 1, math.inf) == pytest.approx(0.3, rel=1e-12)
        w = lambert_bisect(-2.0 / math.e**2)
        assert ratio_optimal_length(math.inf) == pytest.approx(
            2.0 * math.exp(w) / (2.0 + w), rel=1e-12
        )
        assert ratio_optimal_length(math.inf) == pytest.approx(0.836, abs=5e-4)
        assert ratio_optimal_m(math.inf) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_infinite_squeezing_limits_are_the_loss_bound_minima(self):
        # The paper's two limits are those of the loss bound, not of squeezing
        # alone: see the bound's two minima in tests/_exact.py.
        length_gain = 1.0 / ratio_optimal_length(math.inf)
        count_gain = 1.0 / ratio_optimal_m(math.inf)
        assert abs(length_gain - _exact.LENGTH_GAIN_LIMIT) <= 4e-15 * _exact.LENGTH_GAIN_LIMIT
        assert abs(count_gain - _exact.COUNT_GAIN_LIMIT) <= 4e-15 * _exact.COUNT_GAIN_LIMIT

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
            quantum = optimal_m("E", b, length, n_s).value
            classical = optimal_m("D", b, length).value
            assert quantum / classical == pytest.approx(reference, rel=1e-12)


class TestDesignVarianceDispatch:
    def test_all_variants(self):
        n_s = 2.0
        assert design_variance("C", 1.0, 0.5, 1, 10.0) == pytest.approx(0.2)
        assert design_variance("D", 1.0, 0.5, 4, 10.0) == pytest.approx(0.05)
        squeezed = design_variance("S", 1.0, 0.5, 1, 10.0, n_s)
        entangled = design_variance("E", 1.0, 0.5, 4, 10.0, n_s)
        assert entangled == pytest.approx(squeezed / 4.0, rel=1e-12)

    def test_subnormal_variance_names_the_design(self):
        # The laser-only variance, 1e-306, is normal; times the ratio 2e-6 it is not.
        n_s = db_to_photons(60.0)
        message = (f"design S with {n_s} squeezed photons puts the variance out of floating-point "
                   "range (transmissivity 0.999999, time factor 1e+153 s)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design_variance("S", 1e153, 0.999999, 1, 1.0, n_s)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            design_variance("Z", 1.0, 0.5)

    def test_rejects_invalid_design_arguments(self):
        with pytest.raises(ValueError, match="single interferometer"):
            design_variance("S", 1.0, 0.5, 2, 10.0, 1.0)
        with pytest.raises(ValueError, match="no squeezed light"):
            design_variance("D", 1.0, 0.5, 2, 10.0, 1.0)
        with pytest.raises(ValueError, match=r"interferometer count must lie in \[1, inf\)"):
            variance_vs_length("P", 0.5, 15.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ratio_fixed_eta("P", 0.5, 4, -1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: _exponent(2, n),
            lambda n: _exponent(1, n),
            lambda n: ratio_fixed_eta("P", 0.5, 4, n),
        ],
        ids=["exponent_k2", "exponent_k1", "design_P"],
    )
    def test_nan_squeezing_rejected(self, call):
        with pytest.raises(ValueError, match="squeezed photon number must be nonnegative"):
            call(math.nan)

    @pytest.mark.parametrize(
        "call, expected",
        [
            *(
                (lambda variant=variant, m=m: ratio_fixed_eta(variant, 0.7, m, math.inf),
                 (0.0 + 1.0) - 0.7)
                for variant, m in (("S", 1), ("P", 4), ("E", 4))
            ),
            (lambda: variance_vs_length("P", 0.5, 15.0, 4, math.inf),
             4 * (0.0 - 1.0 + math.exp(0.5 * analytic.LN10 / 10.0 * 15.0 / 4)) / 15.0**2),
            (lambda: db_to_photons(math.inf), math.inf),
        ],
        ids=["ratio_S", "ratio_P", "ratio_E", "variance_P", "db_to_photons"],
    )
    def test_infinite_squeezing_limit_is_exact(self, call, expected):
        # IEEE arithmetic reaches each limit: 1 / inf = 0 and sinh(inf)^2 = inf.
        assert call() == expected

    @pytest.mark.parametrize("variant,m", [("C", 1), ("S", 1), ("D", 4), ("P", 4), ("E", 4)])
    def test_variance_is_laser_only_times_ratio(self, variant, m):
        # One scalar separates the designs: variance over the laser-only
        # variance of the same array is the fixed-eta ratio.
        n_s = 0.0 if variant in ("C", "D") else db_to_photons(10.0)
        eta = 0.8
        laser_only = classical_variance(1.0, eta, m * 10.0)
        assert design_variance(variant, 1.0, eta, m, 10.0, n_s) == pytest.approx(
            laser_only * ratio_fixed_eta(variant, eta, m, n_s), rel=1e-15
        )
