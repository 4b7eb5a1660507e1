"""Tests of the Gaussian-state engines: the package's single-mode kit
(``fogsim.gaussian``) and the dense n-mode oracle (``tests/_dense.py``).

Single-mode cases run on both engines; multi-mode transforms, loss,
homodyne statistics and sampling exist only in the dense engine.
"""

import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense
from _dense import (
    GaussianState,
    SymplecticTransform,
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
from fogsim import gaussian as kit
from fogsim.sagnac import db_to_photons

from _oracles import lift_reference, random_passive_unitary

ENGINES = {
    "kit": SimpleNamespace(module=kit, vacuum=kit.vacuum_state),
    "dense": SimpleNamespace(module=_dense, vacuum=lambda: _dense.vacuum_state(1)),
}


@pytest.fixture(params=list(ENGINES))
def engine(request):
    """One single-mode engine; ``engine.module`` holds its constructors."""
    return ENGINES[request.param]


def _cov(state) -> np.ndarray:
    return np.asarray(state.cov, dtype=float)


class TestVacuum:
    def test_single_mode(self, engine):
        state = engine.vacuum()
        assert np.array_equal(state.mean, [0.0, 0.0])
        assert np.array_equal(_cov(state), 0.25 * np.eye(2))

    def test_symplectic_eigenvalues_saturate(self, engine):
        assert np.allclose(engine.vacuum().symplectic_eigenvalues(), 0.25, atol=1e-12)

    def test_three_modes_is_tensor_of_vacua(self):
        state = vacuum_state(3)
        assert state.n_modes == 3
        assert np.array_equal(state.mean, np.zeros(6))
        assert np.array_equal(state.cov, 0.25 * np.eye(6))

    def test_many_modes_saturate(self):
        nus = vacuum_state(4).symplectic_eigenvalues()
        assert np.allclose(nus, 0.25, atol=1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum_state(0)


class TestCoherent:
    def test_photon_number_100(self, engine):
        state = engine.module.coherent_state(math.sqrt(100.0), 0.0)
        assert np.allclose(state.mean, [10.0, 0.0])
        assert state.mean[0] ** 2 + state.mean[1] ** 2 == pytest.approx(100.0)

    def test_zero_amplitude_is_vacuum(self, engine):
        state = engine.module.coherent_state(0.0, 0.0)
        vac = engine.vacuum()
        assert np.array_equal(state.mean, vac.mean)
        assert np.array_equal(_cov(state), _cov(vac))

    def test_photon_number_three_four(self, engine):
        state = engine.module.coherent_state(3.0, 4.0)
        assert state.mean[0] ** 2 + state.mean[1] ** 2 == pytest.approx(25.0)
        assert np.array_equal(_cov(state), 0.25 * np.eye(2))


#: The dense engine's eigen-check multiplies the two variances inside
#: ``np.linalg.eigvals`` and loses their product from about 2500 dB.
_DENSE_EIGVALS_LOSS = pytest.mark.xfail(
    raises=ValueError, strict=True, reason="np.linalg.eigvals loses the variance product"
)


class TestSqueezedVacuum:
    def test_zero_photons_is_vacuum(self, engine):
        state = engine.module.squeezed_vacuum(0.0)
        assert np.array_equal(_cov(state), 0.25 * np.eye(2))

    def test_ten_db_squeezed_variance(self, engine):
        # Independent check of the noise-reduction identity by direct
        # arithmetic, then the state variance against it.
        n_s = db_to_photons(10.0)
        reduction = (math.sqrt(1.0 + n_s) + math.sqrt(n_s)) ** 2
        assert reduction == pytest.approx(10.0, rel=1e-12)
        cov = _cov(engine.module.squeezed_vacuum(n_s))
        assert cov[1, 1] == pytest.approx(0.25 * 10.0 ** (-10.0 / 10.0), rel=1e-12)
        assert cov[1, 1] == pytest.approx(0.025, rel=1e-12)

    @pytest.mark.parametrize("n_s", [0.0, 0.1, 1.0, 2.025, 50.0])
    def test_variance_product_is_min_uncertainty(self, engine, n_s):
        cov = _cov(engine.module.squeezed_vacuum(n_s))
        assert cov[0, 0] * cov[1, 1] == pytest.approx(1.0 / 16.0, rel=1e-12)

    @pytest.mark.parametrize(
        "sigma_db", [0.0, 10.0, 28.0, 40.0, 80.0, 120.0, 200.0, 1000.0, 3000.0]
    )
    def test_variances_match_high_precision(self, request, engine, sigma_db):
        # mpmath to 50 digits on the same photon number; (mu - nu)^2 / 4
        # evaluated in floating point is 1e-12 off at 40 dB, 1e-5 at 120 dB.
        # mu - nu cancels sigma_db / 10 digits, so the working precision
        # grows by as many.
        if engine.module is _dense and sigma_db > 2000.0:
            request.applymarker(_DENSE_EIGVALS_LOSS)
        n_s = db_to_photons(sigma_db)
        state = engine.module.squeezed_vacuum(n_s)
        cov = _cov(state)
        with mpmath.workdps(50 + math.ceil(sigma_db / 10.0)):
            mu, nu = mpmath.sqrt(1 + mpmath.mpf(n_s)), mpmath.sqrt(mpmath.mpf(n_s))
            for value, exact in (
                (cov[1, 1], (mu - nu) ** 2 / 4),
                (cov[0, 0], (mu + nu) ** 2 / 4),
            ):
                assert abs(value - exact) <= 4e-16 * exact
        assert state.symplectic_eigenvalues()[0] == pytest.approx(0.25, rel=1e-15)

    def test_axis_selection(self):
        # The kit squeezes Im only; the dense oracle can squeeze either axis.
        cov = _cov(_dense.squeezed_vacuum(1.0, "re"))
        assert cov[0, 0] < kit.VACUUM_VARIANCE < cov[1, 1]

    def test_negative_photons_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.module.squeezed_vacuum(-0.1)

    @pytest.mark.parametrize("n_s", [math.nextafter(sys.float_info.max / 16, math.inf), 1e308, math.inf])
    def test_overflow_is_named(self, n_s):
        with pytest.raises(ValueError, match="overflows the squeezed-vacuum variances"):
            kit.squeezed_vacuum(n_s)

    def test_nan_photons_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            kit.squeezed_vacuum(math.nan)


class TestConjugatePhaseTransform:
    def test_zero_phase(self, engine):
        t = engine.module.conjugate_phase_transform(0.0)
        assert np.allclose(t.matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)

    def test_half_pi_matches_factored_product(self, engine):
        # The map factors into splitter, conjugate phases, splitter; multiply
        # those three matrices directly and lift with the reference lifting.
        phi = math.pi / 2.0
        splitter_out = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        phases = np.diag([np.exp(-1j * phi), np.exp(1j * phi)])
        splitter_in = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        expected = lift_reference(splitter_out @ phases @ splitter_in)
        matrix = engine.module.conjugate_phase_transform(phi).matrix
        assert np.allclose(matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.1, -0.7, 1.2, math.pi])
    def test_preserves_symplectic_form(self, engine, phi):
        matrix = np.asarray(engine.module.conjugate_phase_transform(phi).matrix)
        omega = symplectic_form(2)
        assert np.allclose(matrix @ omega @ matrix.T, omega, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.01, 0.3, -0.7, 1.2, math.pi, 1e3])
    def test_kit_blocks_equal_the_dense_ones(self, phi):
        np.testing.assert_allclose(
            kit.conjugate_phase_transform(phi).matrix,
            _dense.conjugate_phase_transform(phi).matrix,
            rtol=0,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            kit.conjugate_phase_derivative(phi),
            _dense.conjugate_phase_derivative(phi),
            rtol=0,
            atol=1e-15,
        )


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

    def test_embed_acts_only_on_selected_modes(self):
        t = embed_transform(conjugate_phase_transform(0.4), 3, [0, 2])
        state = tensor(coherent_state(1.0, 0.0), coherent_state(0.5, 0.5), vacuum_state(1))
        out = t.apply(state)
        assert np.allclose(out.mean[2:4], state.mean[2:4], atol=1e-15)


class TestSingleModeChecks:
    def test_asymmetric_covariance_rejected(self, engine):
        cov = 0.25 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            engine.module.GaussianState(np.zeros(2), cov)

    def test_unphysical_covariance_rejected(self, engine):
        with pytest.raises(ValueError, match="uncertainty principle"):
            engine.module.GaussianState(np.zeros(2), 0.1 * np.eye(2))

    def test_non_symplectic_matrix_rejected(self, engine):
        with pytest.raises(ValueError, match="symplectic form"):
            engine.module.SymplecticTransform(2.0 * np.eye(2))

    @pytest.mark.parametrize(
        "cov",
        [
            [[math.nan, 0.0], [0.0, 0.25]],
            [[0.25, math.nan], [math.nan, 0.25]],
            [[-0.25, 0.0], [0.0, -0.25]],
            [[0.25, 0.3], [0.3, 0.25]],
        ],
        ids=["nan-variance", "nan-correlation", "negative", "indefinite"],
    )
    def test_kit_rejects_nan_and_indefinite_as_unphysical(self, cov):
        with pytest.raises(ValueError, match="uncertainty principle"):
            kit.GaussianState((0.0, 0.0), cov)

    def test_kit_apply_rotates_a_single_mode(self):
        c, s = math.cos(0.3), math.sin(0.3)
        rotation = kit.SymplecticTransform(((c, -s), (s, c)))
        out = rotation.apply(kit.squeezed_vacuum(1.0))
        expected = np.array([[c, -s], [s, c]])
        cov = expected @ _cov(kit.squeezed_vacuum(1.0)) @ expected.T
        np.testing.assert_allclose(_cov(out), cov, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.mean, [0.0, 0.0], atol=0)

    def test_kit_apply_rejects_a_two_mode_map(self):
        with pytest.raises(ValueError, match="2 modes"):
            kit.conjugate_phase_transform(0.1).apply(kit.vacuum_state())
