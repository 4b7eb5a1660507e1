"""Tests of the Gaussian-state engine: constructors, transforms, loss, homodyne."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.gaussian import (
    GaussianState,
    SymplecticTransform,
    VACUUM_VARIANCE,
    balanced_splitter_array,
    coherent_state,
    conjugate_phase_transform,
    embed_transform,
    homodyne_stats,
    passive_transform,
    pure_loss,
    sample_homodyne,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    vacuum_state,
)
from fogsim.sagnac import db_to_photons

from _oracles import lift_reference, random_passive_unitary


class TestVacuum:
    def test_single_mode(self):
        state = vacuum_state(1)
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(state.cov, 0.25 * np.eye(2))

    def test_three_modes_is_tensor_of_vacua(self):
        state = vacuum_state(3)
        assert state.n_modes == 3
        assert np.array_equal(state.mean, np.zeros(6))
        assert np.array_equal(state.cov, 0.25 * np.eye(6))

    def test_symplectic_eigenvalues_saturate(self):
        nus = vacuum_state(4).symplectic_eigenvalues()
        assert np.allclose(nus, 0.25, atol=1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestCoherent:
    def test_photon_number_100(self):
        state = coherent_state(math.sqrt(100.0), 0.0)
        assert np.allclose(state.mean, [10.0, 0.0])
        assert state.mean[0] ** 2 + state.mean[1] ** 2 == pytest.approx(100.0)

    def test_zero_amplitude_is_vacuum(self):
        state = coherent_state(0.0, 0.0)
        vac = vacuum_state(1)
        assert np.array_equal(state.mean, vac.mean)
        assert np.array_equal(state.cov, vac.cov)

    def test_photon_number_three_four(self):
        state = coherent_state(3.0, 4.0)
        assert state.mean[0] ** 2 + state.mean[1] ** 2 == pytest.approx(25.0)
        assert np.array_equal(state.cov, 0.25 * np.eye(2))


class TestSqueezedVacuum:
    def test_zero_photons_is_vacuum(self):
        state = squeezed_vacuum(0.0)
        assert np.array_equal(state.cov, 0.25 * np.eye(2))

    def test_ten_db_squeezed_variance(self):
        # Independent check of the noise-reduction identity by direct
        # arithmetic, then the state variance against it.
        n_s = db_to_photons(10.0)
        reduction = (math.sqrt(1.0 + n_s) + math.sqrt(n_s)) ** 2
        assert reduction == pytest.approx(10.0, rel=1e-12)
        state = squeezed_vacuum(n_s, "im")
        assert state.cov[1, 1] == pytest.approx(0.25 * 10.0 ** (-10.0 / 10.0), rel=1e-12)
        assert state.cov[1, 1] == pytest.approx(0.025, rel=1e-12)

    @pytest.mark.parametrize("n_s", [0.0, 0.1, 1.0, 2.025, 50.0])
    def test_variance_product_is_min_uncertainty(self, n_s):
        state = squeezed_vacuum(n_s)
        assert state.cov[0, 0] * state.cov[1, 1] == pytest.approx(1.0 / 16.0, rel=1e-12)

    @pytest.mark.parametrize("sigma_db", [0.0, 10.0, 28.0, 40.0, 80.0, 120.0])
    def test_variances_match_high_precision(self, sigma_db):
        # mpmath at 50 digits on the same photon number; (mu - nu)^2 / 4
        # evaluated in floating point is 1e-12 off at 40 dB, 1e-5 at 120 dB.
        n_s = db_to_photons(sigma_db)
        state = squeezed_vacuum(n_s, "im")
        with mpmath.workdps(50):
            mu, nu = mpmath.sqrt(1 + mpmath.mpf(n_s)), mpmath.sqrt(mpmath.mpf(n_s))
            for value, exact in (
                (state.cov[1, 1], (mu - nu) ** 2 / 4),
                (state.cov[0, 0], (mu + nu) ** 2 / 4),
            ):
                assert abs(value - exact) <= 4e-16 * exact

    def test_axis_selection(self):
        state = squeezed_vacuum(1.0, "re")
        assert state.cov[0, 0] < VACUUM_VARIANCE < state.cov[1, 1]

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            squeezed_vacuum(-0.1)


class TestConjugatePhaseTransform:
    def test_zero_phase(self):
        t = conjugate_phase_transform(0.0)
        assert np.allclose(t.matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)

    def test_half_pi_matches_factored_product(self):
        # The map factors into splitter, conjugate phases, splitter; multiply
        # those three matrices directly and lift with the reference lifting.
        phi = math.pi / 2.0
        splitter_out = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        phases = np.diag([np.exp(-1j * phi), np.exp(1j * phi)])
        splitter_in = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        expected = lift_reference(splitter_out @ phases @ splitter_in)
        assert np.allclose(conjugate_phase_transform(phi).matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.1, -0.7, 1.2, math.pi])
    def test_preserves_symplectic_form(self, phi):
        t = conjugate_phase_transform(phi)
        omega = symplectic_form(2)
        assert np.allclose(t.matrix @ omega @ t.matrix.T, omega, atol=1e-12)


class TestBalancedSplitterArray:
    def test_single_port_is_identity(self):
        assert np.allclose(balanced_splitter_array(1).matrix, np.eye(2))

    def test_two_ports(self):
        t = balanced_splitter_array(2)
        mixing = t.matrix[0::2, 0::2]
        root_half = 1.0 / math.sqrt(2.0)
        assert np.allclose(mixing[0], [root_half, root_half], atol=1e-12)
        assert np.allclose(np.abs(mixing[1]), [root_half, root_half], atol=1e-12)
        assert np.allclose(mixing @ mixing.T, np.eye(2), atol=1e-12)

    def test_four_ports_splits_coherent_evenly(self):
        alpha = 2.0
        state = tensor(coherent_state(alpha, 0.0), vacuum_state(3))
        out = balanced_splitter_array(4).apply(state)
        expected = np.array([alpha / 2.0, 0.0] * 4)
        assert np.allclose(out.mean, expected, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_first_row_symmetric_and_orthogonal(self, m):
        mixing = balanced_splitter_array(m).matrix[0::2, 0::2]
        assert np.allclose(mixing[0], 1.0 / math.sqrt(m), atol=1e-12)
        assert np.allclose(mixing @ mixing.T, np.eye(m), atol=1e-12)

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            balanced_splitter_array(0)


class TestPureLoss:
    def test_identity_channel(self):
        state = tensor(coherent_state(1.0, 2.0), squeezed_vacuum(1.5))
        out = pure_loss(state, 1.0)
        assert np.allclose(out.mean, state.mean, atol=1e-15)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_complete_loss_gives_vacuum(self):
        state = tensor(coherent_state(3.0, -1.0), squeezed_vacuum(2.0))
        out = pure_loss(state, 0.0)
        vac = vacuum_state(2)
        assert np.allclose(out.mean, vac.mean, atol=1e-15)
        assert np.allclose(out.cov, vac.cov, atol=1e-15)

    def test_coherent_stays_coherent(self):
        alpha = 5.0
        out = pure_loss(coherent_state(alpha, 0.0), 0.36)
        assert np.allclose(out.mean, [0.6 * alpha, 0.0], atol=1e-12)
        assert np.allclose(out.cov, 0.25 * np.eye(2), atol=1e-12)

    def test_subset_scales_cross_correlations(self):
        # Correlate two modes by splitting squeezed vacuum, then damp only
        # the second mode and compare blocks against the direct prediction.
        state = tensor(squeezed_vacuum(2.0), vacuum_state(1))
        state = balanced_splitter_array(2).apply(state)
        eta = 0.4
        out = pure_loss(state, eta, modes=[1])
        assert np.allclose(out.cov[:2, :2], state.cov[:2, :2], atol=1e-14)
        assert np.allclose(
            out.cov[:2, 2:], math.sqrt(eta) * state.cov[:2, 2:], atol=1e-14
        )
        expected_block = eta * state.cov[2:, 2:] + (1 - eta) * 0.25 * np.eye(2)
        assert np.allclose(out.cov[2:, 2:], expected_block, atol=1e-14)

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_rejects_bad_transmissivity(self, eta):
        with pytest.raises(ValueError):
            pure_loss(vacuum_state(1), eta)


class TestHomodyne:
    def test_vacuum(self):
        result = homodyne_stats(vacuum_state(2), 1, "re")
        assert result.mean == 0.0
        assert result.variance == pytest.approx(0.25)

    def test_coherent(self):
        result = homodyne_stats(coherent_state(4.0, 0.0), 0, "re")
        assert result.mean == pytest.approx(4.0)
        assert result.variance == pytest.approx(0.25)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            homodyne_stats(vacuum_state(1), 1, "im")

    def test_bad_quadrature_name(self):
        with pytest.raises(ValueError):
            homodyne_stats(vacuum_state(1), 0, "x")


class TestSampling:
    def test_law_of_large_numbers(self):
        count = 10**6
        samples = sample_homodyne(vacuum_state(1), 0, "re", count, seed=1)
        sigma = 0.5
        assert abs(samples.mean()) < 5 * sigma / math.sqrt(count)

    def test_sample_variance(self):
        count = 10**6
        samples = sample_homodyne(coherent_state(2.0, 0.0), 0, "re", count, seed=7)
        standard_error = 0.25 * math.sqrt(2.0 / (count - 1))
        assert abs(samples.var(ddof=1) - 0.25) < 3 * standard_error

    def test_seed_determinism(self):
        first = sample_homodyne(vacuum_state(1), 0, "im", 100, seed=42)
        second = sample_homodyne(vacuum_state(1), 0, "im", 100, seed=42)
        assert np.array_equal(first, second)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            sample_homodyne(vacuum_state(1), 0, "re", 0, seed=1)


class TestInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_loss_commutes_with_passive_transforms(self, seed):
        n = 3
        unitary = random_passive_unitary(n, seed)
        transform = passive_transform(unitary)
        state = tensor(coherent_state(1.0, -0.5), squeezed_vacuum(1.2), vacuum_state(1))
        eta = 0.3 + 0.5 * (seed % 7) / 7.0
        loss_then_transform = transform.apply(pure_loss(state, eta))
        transform_then_loss = pure_loss(transform.apply(state), eta)
        assert np.allclose(
            loss_then_transform.mean, transform_then_loss.mean, atol=1e-12
        )
        assert np.allclose(loss_then_transform.cov, transform_then_loss.cov, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_compositions_remain_physical(self, seed):
        # GaussianState raises if any composition drops a symplectic
        # eigenvalue below the vacuum floor, so surviving construction is
        # the assertion.
        state = tensor(squeezed_vacuum(3.0), coherent_state(2.0, 1.0), vacuum_state(1))
        transform = passive_transform(random_passive_unitary(3, seed))
        state = transform.apply(state)
        state = pure_loss(state, 0.7, modes=[0, 2])
        state = pure_loss(state, 0.2)
        assert state.symplectic_eigenvalues().min() >= 0.25 - 1e-10

    @pytest.mark.parametrize(
        "state",
        [vacuum_state(2), coherent_state(3.0, -2.0), squeezed_vacuum(4.2)],
        ids=["vacuum", "coherent", "squeezed"],
    )
    def test_pure_states_saturate_uncertainty(self, state):
        assert np.allclose(state.symplectic_eigenvalues(), 0.25, atol=1e-12)

    def test_lift_matches_reference(self):
        unitary = random_passive_unitary(4, seed=5)
        assert np.allclose(
            passive_transform(unitary).matrix, lift_reference(unitary), atol=1e-14
        )

    def test_asymmetric_covariance_rejected(self):
        cov = 0.25 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), cov)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), 0.1 * np.eye(2))

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError):
            SymplecticTransform(2.0 * np.eye(2))

    def test_embed_acts_only_on_selected_modes(self):
        t = embed_transform(conjugate_phase_transform(0.4), 3, [0, 2])
        state = tensor(coherent_state(1.0, 0.0), coherent_state(0.5, 0.5), vacuum_state(1))
        out = t.apply(state)
        assert np.allclose(out.mean[2:4], state.mean[2:4], atol=1e-15)
