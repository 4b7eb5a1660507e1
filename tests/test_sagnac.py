"""Tests of the coil model: rotation phase, fiber loss, time factor, dB units."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.sagnac import (
    GyroGeometry,
    RotationRegimeWarning,
    db_to_photons,
    photons_to_db,
    sagnac_phase,
    time_factor,
    transmissivity,
    velocity_scale,
)


@pytest.fixture
def geometry():
    return GyroGeometry.from_wavelength(1550e-9, radius=0.05)


class TestSagnacPhase:
    def test_zero_rotation(self, geometry):
        assert sagnac_phase(geometry, 1.0, 0.0) == 0.0

    def test_linear_in_length(self, geometry):
        one = sagnac_phase(geometry, 1.0, 1e-5)
        two = sagnac_phase(geometry, 2.0, 1e-5)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_consistent_with_time_factor(self, geometry):
        # Two independent routes to the same phase: the loop-count formula
        # and delta_phi = T * Omega.
        assert geometry.omega == pytest.approx(1.2153e15, rel=1e-4)
        rate = 1e-5
        direct = sagnac_phase(geometry, 1.0, rate)
        via_time = time_factor(geometry, 1.0) * rate
        assert direct == pytest.approx(via_time, rel=1e-12)

    def test_odd_in_rotation_rate(self, geometry):
        assert sagnac_phase(geometry, 1.0, 2e-6) == pytest.approx(
            -sagnac_phase(geometry, 1.0, -2e-6), rel=1e-14
        )

    def test_regime_warning(self, geometry):
        fast = 1.1e-3 * geometry.c / geometry.radius
        with pytest.warns(RotationRegimeWarning):
            sagnac_phase(geometry, 1.0, fast)


class TestTransmissivity:
    def test_zero_length(self):
        assert transmissivity(0.5, 0.0) == 1.0

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
    def test_linear_in_length(self, geometry):
        assert time_factor(geometry, 3.0) == pytest.approx(
            3.0 * time_factor(geometry, 1.0), rel=1e-14
        )

    def test_velocity_scale_independent_of_length(self, geometry):
        for length in (0.5, 1.0, 10.0, 25.0):
            assert length / time_factor(geometry, length) == pytest.approx(
                velocity_scale(geometry), rel=1e-13
            )

    def test_rate_recovery_identity(self, geometry):
        # 2 * (delta_phi / 2) / T recovers the rotation rate.
        rate = 3.7e-6
        for length in (0.2, 5.0, 40.0):
            phi = sagnac_phase(geometry, length, rate) / 2.0
            assert 2.0 * phi / time_factor(geometry, length) == pytest.approx(
                rate, rel=1e-13
            )


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
        assert math.isinf(photons_to_db(math.inf))

    def test_overflow_rejected_by_name(self):
        assert math.isfinite(db_to_photons(3000.0))
        for sigma in (4000.0, 1e6):
            with pytest.raises(ValueError, match="'inf'"):
                db_to_photons(sigma)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            db_to_photons(-1.0)
        with pytest.raises(ValueError):
            photons_to_db(-1.0)

    @given(st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, sigma):
        assert photons_to_db(db_to_photons(sigma)) == pytest.approx(
            sigma, rel=1e-12, abs=1e-12
        )

    def test_increasing_and_convex(self):
        sigmas = np.linspace(0.0, 30.0, 61)
        photons = np.array([db_to_photons(s) for s in sigmas])
        first = np.diff(photons)
        assert np.all(first > 0)
        assert np.all(np.diff(first) > 0)
