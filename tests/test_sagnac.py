"""Tests of the coil model: rotation phase, fiber loss, time factor, dB units."""

import math

import mpmath
import numpy as np
import pytest

from fogsim.sagnac import (
    C_LIGHT,
    RotationRegimeWarning,
    db_to_photons,
    sagnac_phase,
    time_factor,
    transmissivity,
)

#: The default coil: 1550 nm light, 5 cm radius.
COIL = (1550.0, 0.05)


def slow_phase(length_km, wavelength_nm, radius_m):
    """Sagnac phase at 1e-5 rad/s, with the argument order of ``time_factor``."""
    return sagnac_phase(length_km, 1e-5, wavelength_nm, radius_m)


class TestSagnacPhase:
    def test_zero_rotation(self):
        assert sagnac_phase(1.0, 0.0, *COIL) == 0.0

    def test_linear_in_length(self):
        one = sagnac_phase(1.0, 1e-5, *COIL)
        two = sagnac_phase(2.0, 1e-5, *COIL)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    @pytest.mark.parametrize("coil", [COIL, (800.0, 0.01), (1310.0, 1.0)])
    def test_consistent_with_time_factor(self, coil):
        # Two independent routes to the same phase: the loop-count formula
        # and delta_phi = T * Omega.
        rate = 1e-5
        direct = sagnac_phase(1.0, rate, *coil)
        via_time = time_factor(1.0, *coil) * rate
        assert direct == pytest.approx(via_time, rel=1e-12)

    def test_odd_in_rotation_rate(self):
        assert sagnac_phase(1.0, 2e-6, *COIL) == pytest.approx(
            -sagnac_phase(1.0, -2e-6, *COIL), rel=1e-14
        )

    def test_regime_warning(self):
        fast = 1.1e-3 * C_LIGHT / COIL[1]
        with pytest.warns(RotationRegimeWarning):
            sagnac_phase(1.0, fast, *COIL)


class TestTransmissivity:
    def test_zero_length(self):
        assert transmissivity(0.5, 0.0) == 1.0

    def test_zero_loss(self):
        assert transmissivity(0.0, 10.0) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
    def test_bad_loss_or_length_is_named(self, bad):
        with pytest.raises(ValueError, match="loss coefficient must be nonnegative and finite"):
            transmissivity(bad, 10.0)
        with pytest.raises(ValueError, match="fiber length must be nonnegative and finite"):
            transmissivity(0.5, bad)

    def test_ten_db_total_loss(self):
        assert transmissivity(0.5, 20.0) == pytest.approx(0.1, rel=1e-14)

    def test_optimal_classical_length_gives_e_minus_two(self):
        # L = 2 * (20 / (b ln 10)) / 2 at b = 0.5 is 20 / (ln(10) * 0.5) * ...
        # evaluated directly: 10^(-b L / 10) at L = 40/ln(10) equals e^-2.
        length = 40.0 / math.log(10.0)
        assert length == pytest.approx(17.372, abs=5e-4)
        assert transmissivity(0.5, length) == pytest.approx(
            math.exp(-2.0), rel=1e-12
        )

    def test_strictly_decreasing_in_length_and_loss(self):
        lengths = np.linspace(0.0, 50.0, 40)
        etas = [transmissivity(0.5, length) for length in lengths]
        assert all(a > b for a, b in zip(etas, etas[1:]))
        bs = np.linspace(0.1, 2.0, 30)
        etas_b = [transmissivity(b, 10.0) for b in bs]
        assert all(a > b for a, b in zip(etas_b, etas_b[1:]))


class TestTimeFactor:
    def test_linear_in_length(self):
        assert time_factor(3.0, *COIL) == pytest.approx(
            3.0 * time_factor(1.0, *COIL), rel=1e-14
        )

    @pytest.mark.parametrize("length_km", [0.2, 15.0, 1e4])
    @pytest.mark.parametrize("coil", [COIL, (800.0, 0.01), (1310.0, 1.0), (1e-3, 1e-100)])
    def test_matches_high_precision_closed_form(self, length_km, coil):
        # T = 4 pi L r / (lambda c): twelve rounded operations at most.
        wavelength_nm, radius_m = coil
        with mpmath.workdps(50):
            exact = (4 * mpmath.pi * mpmath.mpf(length_km) * 1000 * mpmath.mpf(radius_m)
                     / (mpmath.mpf(wavelength_nm) * mpmath.mpf("1e-9") * C_LIGHT))
            error = abs(time_factor(length_km, *coil) / exact - 1)
        assert error <= 12 * 2.0**-53

    def test_rate_recovery_identity(self):
        # 2 * (delta_phi / 2) / T recovers the rotation rate.
        rate = 3.7e-6
        for length in (0.2, 5.0, 40.0):
            phi = sagnac_phase(length, rate, *COIL) / 2.0
            assert 2.0 * phi / time_factor(length, *COIL) == pytest.approx(
                rate, rel=1e-13
            )

    @pytest.mark.parametrize("function", [time_factor, slow_phase])
    @pytest.mark.parametrize("position, name", [(0, "coil fiber length"), (1, "wavelength"), (2, "coil radius")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_input_is_named(self, function, position, name, value):
        args = [10.0, *COIL]
        args[position] = value
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            function(*args)

    @pytest.mark.parametrize(
        "length_km, wavelength_nm, radius_m",
        [
            (10.0, 1550.0, 1e-170),  # pi r^2 underflows to 0
            (10.0, 1550.0, 1e300),  # r^2 overflows
            (10.0, 1e-320, 0.05),  # lambda * 1e-9 underflows to 0
            (10.0, 1e-310, 0.05),  # omega overflows
            (1e300, 1550.0, 0.05),  # T overflows
            (10.0, 1e300, 1e-150),  # T underflows to 0
        ],
    )
    def test_coil_out_of_range_names_radius_and_wavelength(self, length_km, wavelength_nm, radius_m):
        for function in (time_factor, slow_phase):
            with pytest.raises(ValueError, match="coil radius .* and wavelength .* out of floating-point range"):
                function(length_km, wavelength_nm, radius_m)


class TestSqueezingUnits:
    def test_zero_db(self):
        assert db_to_photons(0.0) == 0.0

    def test_ten_db(self):
        n_s = db_to_photons(10.0)
        assert n_s == pytest.approx(2.0250, abs=5e-5)
        assert (math.sqrt(1 + n_s) + math.sqrt(n_s)) ** 2 == pytest.approx(
            10.0, rel=1e-12
        )

    def test_high_squeezing_boundary(self):
        assert db_to_photons(7.66) == pytest.approx(1.0, abs=2e-3)

    def test_infinite(self):
        assert math.isinf(db_to_photons(math.inf))

    def test_overflow_rejected_by_name(self):
        assert math.isfinite(db_to_photons(3000.0))
        for sigma in (4000.0, 1e6):
            with pytest.raises(ValueError, match="'inf'"):
                db_to_photons(sigma)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            db_to_photons(-1.0)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 7.66, 10.0, 20.0, 30.0, 60.0, 120.0, 1000.0, 3000.0])
    def test_matches_high_precision(self, sigma):
        # x = sigma ln(10) / 20 is rounded three times, and sinh^2 multiplies
        # the relative error of x by about 2x.
        x = sigma * math.log(10.0) / 20.0
        with mpmath.workdps(60):
            exact = mpmath.sinh(mpmath.mpf(sigma) * mpmath.log(10) / 20) ** 2
            error = abs(db_to_photons(sigma) / exact - 1)
        assert error <= (7.0 * x + 4.0) * 2.0**-53

    def test_increasing_and_convex(self):
        sigmas = np.linspace(0.0, 30.0, 61)
        photons = np.array([db_to_photons(s) for s in sigmas])
        first = np.diff(photons)
        assert np.all(first > 0)
        assert np.all(np.diff(first) > 0)
