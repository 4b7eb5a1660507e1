"""Numeric optimizer: golden-section behavior and analytic cross-validation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fogsim import analytic
from fogsim.optimize import (
    ConvergenceError,
    EvaluationError,
    ScalarProblem,
    minimize_scalar,
    numeric_ratio_optimal_length,
    numeric_ratio_optimal_m,
    optimize_energy_split_numeric,
    optimize_length,
    optimize_m_continuous,
    optimize_m_integer,
)
from fogsim.sagnac import db_to_photons

CROSS_CHECK_B = (0.2, 0.5, 1.0)
CROSS_CHECK_SIGMA = (0.0, 5.0, 10.0, 15.0, 20.0)
CROSS_CHECK_M = (1, 2, 4, 8, 16)
CROSS_CHECK_L = (5.0, 15.0, 30.0)


class TestMinimizeScalar:
    def test_shifted_quadratic(self):
        result = minimize_scalar(ScalarProblem(lambda x: (x - 2.0) ** 2, (0.0, 5.0)))
        assert result.x == pytest.approx(2.0, abs=1e-10)
        assert result.value == pytest.approx(0.0, abs=1e-18)

    def test_classical_length(self):
        result = optimize_length("C", 0.5)
        assert result.x == pytest.approx(17.3717792761, rel=1e-6)

    def test_squeezed_length_matches_analytic(self):
        n_s = db_to_photons(10.0)
        result = optimize_length("S", 0.5, n_s)
        reference = analytic.optimal_length("S", 0.5, n_s)
        assert result.x == pytest.approx(reference.length_km, rel=1e-6)
        assert result.value == pytest.approx(reference.variance_normalized, rel=1e-9)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            minimize_scalar(ScalarProblem(lambda x: x * x, (1.0, 1.0)))

    @pytest.mark.parametrize(
        "objective",
        [
            lambda x: math.inf,
            lambda x: 1.0 / (x - x),  # ZeroDivisionError
            lambda x: math.exp(1e6 * (x + 1.0)),  # OverflowError
        ],
        ids=["inf", "zero-division", "overflow"],
    )
    def test_non_finite_objective(self, objective):
        with pytest.raises(EvaluationError):
            minimize_scalar(ScalarProblem(objective, (0.0, 1.0)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-9, 1e6, allow_nan=False),
    )
    def test_prescan_points_are_linspace(self, lo, width):
        # The pre-scan grid must equal numpy.linspace bit for bit: every
        # optimum the CLI prints depends on it.
        hi = lo + width
        assume(lo < hi)
        seen = []

        def objective(x):
            seen.append(x)
            return (x - lo) ** 2

        minimize_scalar(ScalarProblem(objective, (lo, hi)))
        assert seen[:65] == np.linspace(lo, hi, 65).tolist()

    def test_iteration_budget(self):
        problem = ScalarProblem(
            lambda x: (x - 2.0) ** 2, (0.0, 5.0), tolerance=1e-14, max_iterations=2
        )
        with pytest.raises(ConvergenceError):
            minimize_scalar(problem)


class TestLengthCrossValidation:
    @pytest.mark.parametrize("b", CROSS_CHECK_B)
    @pytest.mark.parametrize("sigma", CROSS_CHECK_SIGMA)
    def test_single_interferometer(self, b, sigma):
        n_s = db_to_photons(sigma)
        variant = "C" if n_s == 0 else "S"
        numeric = optimize_length(variant, b, n_s)
        reference = analytic.optimal_length(variant, b, n_s)
        assert numeric.x == pytest.approx(reference.length_km, rel=1e-6)
        assert numeric.value == pytest.approx(reference.variance_normalized, rel=1e-6)

    @pytest.mark.parametrize("b", CROSS_CHECK_B)
    @pytest.mark.parametrize("m", CROSS_CHECK_M)
    @pytest.mark.parametrize("variant", ("D", "P", "E"))
    def test_distributed(self, b, m, variant):
        n_s = 0.0 if variant == "D" else db_to_photons(10.0)
        numeric = optimize_length(variant, b, n_s, m)
        reference = analytic.optimal_length(variant, b, n_s, m)
        assert numeric.x == pytest.approx(reference.length_km, rel=1e-6)
        assert numeric.value == pytest.approx(reference.variance_normalized, rel=1e-6)


class TestCountOptimization:
    def test_short_fiber_prefers_single_interferometer(self):
        result = optimize_m_integer("D", 0.5, 1.0)
        reference = analytic.optimal_m("D", 0.5, 1.0)
        assert result.m_best == 1
        assert reference.below_threshold
        assert reference.continuous == pytest.approx(0.1151, abs=1e-4)

    def test_integer_profile_matches_analytic_choice(self):
        for b, length in ((0.5, 15.0), (0.5, 20.0), (0.25, 40.0)):
            for sigma in (0.0, 10.0):
                n_s = db_to_photons(sigma)
                variant = "D" if n_s == 0 else "E"
                search = optimize_m_integer(variant, b, length, n_s)
                reference = analytic.optimal_m(variant, b, length, n_s)
                assert search.m_best == reference.chosen
                assert search.variance_best == pytest.approx(
                    reference.variance_chosen, rel=1e-12
                )

    def test_entangled_spot_profile(self):
        # b = 0.5, L = 15, 10 dB: exhaustive evaluation confirms the integer
        # optimum at 4 interferometers, in a near-tie with 5.
        search = optimize_m_integer("E", 0.5, 15.0, db_to_photons(10.0))
        assert search.m_best == 4
        profile = dict(search.profile)
        assert profile[4] < profile[5] < profile[6]
        assert profile[4] < profile[3]
        assert (profile[5] - profile[4]) / profile[4] < 0.002

    @pytest.mark.parametrize("m_cap", [1, 2])
    def test_m_max_respected(self, m_cap):
        search = optimize_m_integer("E", 0.5, 15.0, 1.0, m_max=m_cap)
        assert len(search.profile) == m_cap
        assert search.m_best <= m_cap

    def test_product_profile_sits_between(self):
        # A shared squeezed budget: the product design loses per-port
        # squeezing as the array grows, staying between the other two.
        n_s = db_to_photons(10.0)
        d = optimize_m_integer("D", 0.5, 15.0).profile
        p = optimize_m_integer("P", 0.5, 15.0, n_s).profile
        e = optimize_m_integer("E", 0.5, 15.0, n_s).profile
        for m in range(2, 65):
            assert e[m - 1][1] < p[m - 1][1] < d[m - 1][1]

    @pytest.mark.parametrize("b,length", [(0.5, 15.0), (0.25, 40.0), (1.0, 8.0)])
    @pytest.mark.parametrize("sigma", (0.0, 10.0, 20.0))
    def test_continuous_count_matches_analytic(self, b, length, sigma):
        n_s = db_to_photons(sigma)
        variant = "D" if n_s == 0 else "E"
        numeric = optimize_m_continuous(variant, b, length, n_s, m_hi=1e3)
        reference = analytic.optimal_m(variant, b, length, n_s)
        if reference.continuous >= 1.0:
            assert numeric.x == pytest.approx(reference.continuous, rel=1e-6)
            assert numeric.value == pytest.approx(
                reference.variance_continuous, rel=1e-6
            )

    def test_rejects_non_distributed(self):
        with pytest.raises(ValueError):
            optimize_m_integer("C", 0.5, 15.0)
        with pytest.raises(ValueError):
            optimize_m_continuous("C", 0.5, 15.0)
        with pytest.raises(ValueError):
            optimize_m_continuous("S", 0.5, 15.0, 1.0)


class TestEnergySplitNumeric:
    def test_lossless_heisenberg(self):
        result = optimize_energy_split_numeric(10.0, 1.0)
        assert result.variance == pytest.approx(1.0 / 110.0, rel=1e-9)

    @pytest.mark.parametrize("eta", (0.5, 0.9, 0.99))
    @pytest.mark.parametrize("n", (10.0, 1000.0))
    def test_matches_analytic(self, eta, n):
        numeric = optimize_energy_split_numeric(n, eta)
        reference = analytic.optimal_energy_split(n, eta)
        assert numeric.n_squeezed == pytest.approx(reference.n_squeezed, rel=1e-8)
        assert numeric.variance == pytest.approx(reference.variance, rel=1e-8)

    def test_squeezing_never_exceeds_half_budget(self):
        for eta in (0.1, 0.5, 0.9, 0.999, 1.0):
            for n in (1.0, 10.0, 100.0, 1e4):
                result = optimize_energy_split_numeric(n, eta)
                assert result.n_squeezed <= n / 2.0 + 1e-9 * n

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            optimize_energy_split_numeric(0.0, 0.5)


class TestExponentArbitration:
    """The fixed-length count optimization is governed by a different
    Lambert-W exponent than the length optimization.  The numeric optimizer
    is the arbiter: its ratios must land on e^(array exponent) and must be
    far from the length-exponent family."""

    @pytest.mark.parametrize("sigma", (5.0, 10.0, 15.0, 20.0))
    def test_numeric_ratio_selects_array_exponent(self, sigma):
        n_s = db_to_photons(sigma)
        numeric = numeric_ratio_optimal_m(n_s, b=0.5, length_km=15.0)
        array_based = analytic.ratio_optimal_m(n_s)
        length_lam = analytic.length_exponent(n_s)
        length_based = math.exp(length_lam)
        length_family = 2.0 * math.exp(length_lam) / (2.0 + length_lam)
        assert numeric == pytest.approx(array_based, rel=1e-6)
        assert abs(numeric - length_based) > 0.05
        assert abs(numeric - length_family) > 0.05

    def test_integer_route_agrees_coarsely(self):
        # Integer rounding breaks exact equality; the profile minimum must
        # still land within a few percent of the continuous ratio.
        n_s = db_to_photons(10.0)
        quantum = optimize_m_integer("E", 0.5, 15.0, n_s).variance_best
        classical = optimize_m_integer("D", 0.5, 15.0).variance_best
        assert quantum / classical == pytest.approx(
            analytic.ratio_optimal_m(n_s), rel=0.05
        )


class TestNumericRatios:
    @pytest.mark.parametrize("sigma", (5.0, 10.0, 20.0))
    def test_length_ratio_matches_analytic(self, sigma):
        n_s = db_to_photons(sigma)
        assert numeric_ratio_optimal_length(n_s) == pytest.approx(
            analytic.ratio_optimal_length(n_s), rel=1e-8
        )

    def test_ratio_independent_of_loss_coefficient(self):
        n_s = db_to_photons(10.0)
        values = [numeric_ratio_optimal_length(n_s, b=b) for b in CROSS_CHECK_B]
        assert values[0] == pytest.approx(values[1], rel=1e-8)
        assert values[1] == pytest.approx(values[2], rel=1e-8)
