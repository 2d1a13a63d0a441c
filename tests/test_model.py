import numpy as np
import pytest

from cpscores import (
    FactorCorr,
    ModelError,
    SemModel,
    StructuralError,
    combined_factor_corr,
    validate_model,
)


def test_example_model_accepted(model):
    report = validate_model(model)
    assert report.ok, str(report)


def test_example_model_dimensions(model):
    assert (model.n_x, model.n_xi, model.n_y, model.n_eta) == (15, 3, 10, 2)
    assert model.factor_labels == ("xi1", "xi2", "xi3", "eta1", "eta2")


def test_validation_refuses_what_combined_corr_refuses(model):
    # a residual variance 5e-7 too large leaves the implied variance of
    # eta1 off 1 by more than the unit-diagonal tolerance
    psi = model.psi.copy()
    psi[0, 0] += 5e-7
    m = SemModel(
        lambda_x=model.lambda_x, phi=model.phi, lambda_y=model.lambda_y,
        gamma=model.gamma, psi=psi, xi_labels=model.xi_labels,
        eta_labels=model.eta_labels,
    )
    report = validate_model(m)
    assert not report.ok
    assert report.violations == (
        "diagonal of implied endogenous covariance is 1.0000005000 for eta1, "
        "expected 1",
    )
    with pytest.raises(ModelError, match="non-unit diagonal"):
        combined_factor_corr(m)


def test_non_pd_phi_rejected():
    phi = np.array([[1.0, 1.5], [1.5, 1.0]])
    m = SemModel(
        lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
        phi=phi,
        lambda_y=np.array([[0.6]]),
        gamma=np.array([[0.2, 0.2]]),
        eta_corr=np.eye(1),
    )
    report = validate_model(m)
    assert not report.ok
    assert any("not positive definite" in v for v in report.violations)


def test_gamma_dimension_mismatch_is_structural():
    with pytest.raises(StructuralError):
        SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.2, 0.2]]),  # 3 columns vs 2 xi factors
            eta_corr=np.eye(1),
        )


def test_missing_psi_and_eta_corr_rejected():
    with pytest.raises(StructuralError):
        SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
        )


def test_inconsistent_psi_and_eta_corr_rejected():
    with pytest.raises(StructuralError, match="inconsistent"):
        SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            psi=np.array([[0.5]]),
            eta_corr=np.eye(1),
        )


class TestImpliedCovX:
    def test_example_entries(self, model):
        sigma = model.exo.sigma()
        assert sigma.shape == (15, 15)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)
        # oracle: entry (x1, x2) from the loading rows directly
        row1 = np.array([0.750, 0.066, 0.025])
        row2 = np.array([0.845, 0.049, 0.002])
        assert sigma[0, 1] == pytest.approx(row1 @ model.phi.values @ row2, abs=1e-12)

    def test_single_loading_absorbed_in_diagonal(self):
        m = SemModel(
            lambda_x=np.array([[0.8]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            eta_corr=np.eye(1),
        )
        assert m.exo.sigma() == pytest.approx(np.array([[1.0]]))

    def test_zero_loadings_give_identity(self):
        m = SemModel(
            lambda_x=np.zeros((4, 2)),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.0, 0.0]]),
            eta_corr=np.eye(1),
        )
        assert m.exo.sigma() == pytest.approx(np.eye(4))

    def test_negative_uniqueness_names_indicator(self):
        m = SemModel(
            lambda_x=np.array([[0.9, 0.9], [0.5, 0.0]]),
            phi=np.array([[1.0, 0.5], [0.5, 1.0]]),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.0]]),
            eta_corr=np.eye(1),
        )
        with pytest.raises(ModelError, match="x1"):
            m.exo.sigma()


class TestImpliedCovY:
    def test_example(self, model):
        sigma = model.endo.sigma()
        assert sigma.shape == (10, 10)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)
        # oracle: entry (y3, y6) across the two endogenous factors
        row3 = np.array([0.999, -0.041])
        row6 = np.array([-0.038, 0.534])
        eta_cov = np.array([[1.0, 0.513], [0.513, 1.0]])
        assert sigma[2, 5] == pytest.approx(row3 @ eta_cov @ row6, abs=1e-12)

    def test_identity_loadings(self):
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.eye(2) * 0.9,
            gamma=np.array([[0.0], [0.0]]),
            eta_corr=np.eye(2),
        )
        sigma = m.endo.sigma()
        assert sigma == pytest.approx(np.eye(2))

    def test_unit_loadings_give_unit_offdiagonal(self):
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[1.0], [1.0]]),
            gamma=np.array([[0.0]]),
            eta_corr=np.eye(1),
        )
        assert m.endo.sigma()[0, 1] == pytest.approx(1.0)


class TestPsiFromEtaCorr:
    def test_example_values(self, model):
        psi = model.psi
        # frozen from the direct arithmetic eta_corr - gamma phi gamma'
        assert psi[0, 0] == pytest.approx(0.9245112, abs=1e-7)
        assert psi[0, 1] == pytest.approx(0.4703226, abs=1e-7)
        assert psi[1, 1] == pytest.approx(0.7881047, abs=1e-7)

    def test_round_trip(self, model):
        psi = model.psi
        implied = model.gamma @ model.phi.values @ model.gamma.T + psi
        assert implied == pytest.approx(model.eta_corr.values, abs=1e-12)

    def test_zero_gamma_returns_eta_corr(self):
        eta_corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.zeros((2, 1)),
            eta_corr=eta_corr,
        )
        assert m.psi == pytest.approx(eta_corr)

    def test_saturated_gamma_gives_zero_psi(self):
        gamma = np.array([[1.0]])
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=gamma,
            eta_corr=np.eye(1),
        )
        assert m.psi == pytest.approx(np.zeros((1, 1)), abs=1e-12)


class TestCombinedFactorCorr:
    def test_example_blocks(self, model):
        c = combined_factor_corr(model)
        assert c.labels == model.factor_labels
        assert c.values[:3, :3] == pytest.approx(model.phi.values)
        assert c.values[3, 4] == pytest.approx(0.513)
        # cross block oracle: gamma phi computed directly
        cross = model.gamma @ model.phi.values
        assert c.values[3:, :3] == pytest.approx(cross, abs=1e-12)
        assert np.allclose(c.values, c.values.T, atol=1e-12)
        assert np.allclose(np.diag(c.values), 1.0, atol=1e-12)

    def test_block_diagonal_when_gamma_zero(self):
        phi = np.array([[1.0, 0.4], [0.4, 1.0]])
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=phi,
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.zeros((2, 2)),
            eta_corr=np.eye(2),
        )
        c = combined_factor_corr(m)
        expected = np.block([
            [phi, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]
        ])
        assert c.values == pytest.approx(expected)

    def test_rank_deficient_combined_rejected(self):
        # eta duplicates xi exactly: combined matrix is singular
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.eye(2),
            psi=np.zeros((2, 2)),
        )
        with pytest.raises(ModelError, match="degenerate"):
            combined_factor_corr(m)


def test_combined_corr_valid_for_random_models(rng):
    for _ in range(20):
        m = __import__("cpscores").random_model(rng)
        c = combined_factor_corr(m)
        assert np.max(np.abs(c.values - c.values.T)) < 1e-12
        assert np.max(np.abs(np.diag(c.values) - 1.0)) < 1e-12


def test_factor_corr_rejects_asymmetry():
    with pytest.raises(StructuralError):
        FactorCorr(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))
