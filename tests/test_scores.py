import numpy as np
import pytest

from cpscores import (
    DataError,
    DataMatrix,
    FactorCorr,
    ScoreMatrix,
    SemModel,
    StructuralError,
    combined_factor_corr,
    cp_scores_from_orthogonal,
    cp_scores_from_params,
    cp_transform,
    joint_regression_scores,
    orthogonal_scores,
    regression_scores,
    sample_corr,
    score_corr,
    simulate_dataset,
    sym_sqrt,
)
from cpscores.linalg import center_columns, corr_from_data
from cpscores.scores import joint_regression_weights
from cpscores.simulate import SimulationSpec


def one_factor_model(loadings=(0.8, 0.8, 0.8)):
    return SemModel(
        lambda_x=np.array(loadings)[:, None],
        phi=np.eye(1),
        lambda_y=np.array([[0.6]]),
        gamma=np.array([[0.3]]),
        eta_corr=np.eye(1),
    )


ONE = FactorCorr(("f1",), np.eye(1))


def simulate(model, n=10_000, seed=7):
    return simulate_dataset(SimulationSpec(model, n, seed))


class TestRegressionScoresExo:
    def test_one_factor_closed_form(self):
        m = one_factor_model()
        # oracle: weights by explicit 3x3 inversion in the test
        sigma = m.lambda_x @ m.lambda_x.T + np.diag(1 - (m.lambda_x**2).ravel())
        w_oracle = (np.linalg.inv(sigma) @ m.lambda_x).ravel()
        x = DataMatrix(np.eye(3), ("x1", "x2", "x3"))
        out = regression_scores(m.exo, x)
        # data are centered internally; apply the oracle to centered rows
        expected = center_columns(np.eye(3)) @ w_oracle
        assert out.values[:, 0] == pytest.approx(expected, abs=1e-12)
        # population score variance
        w = m.exo.weights()
        var = (w @ sigma @ w.T)[0, 0]
        assert var == pytest.approx(
            (m.lambda_x.T @ np.linalg.inv(sigma) @ m.lambda_x)[0, 0]
        )

    def test_zero_row_maps_to_zero(self, model):
        x = DataMatrix(np.zeros((4, 15)), model.x_labels)
        out = regression_scores(model.exo, x)
        assert out.values == pytest.approx(np.zeros((4, 3)))

    def test_sample_corr_is_shrunk_toward_score_corr(self, model):
        x_data, _, _ = simulate(model)
        out = regression_scores(model.exo, x_data)
        observed = sample_corr(out).values
        predicted = score_corr(model.exo).values
        assert np.max(np.abs(observed - predicted)) < 0.03
        # and differs from phi itself
        assert np.max(np.abs(predicted - model.phi.values)) > 1e-3

    def test_column_mismatch(self, model):
        with pytest.raises(StructuralError):
            regression_scores(model.exo, DataMatrix(np.zeros((2, 14)),
                                                   [f"x{i}" for i in range(14)]))


class TestRegressionScoresEndo:
    def test_one_factor_closed_form(self, model):
        _, y_data, _ = simulate(model)
        out = regression_scores(model.endo, y_data)
        w = model.endo.weights()
        assert out.values == pytest.approx(center_columns(y_data.values) @ w.T)
        assert out.blocks == ("endogenous", "endogenous")

    def test_zero_row_maps_to_zero(self, model):
        y = DataMatrix(np.zeros((3, 10)), model.y_labels)
        assert regression_scores(model.endo, y).values == pytest.approx(
            np.zeros((3, 2))
        )


class TestRegressionScoreCorr:
    def test_orthogonal_simple_structure_gives_identity(self):
        m = SemModel(
            lambda_x=np.array([
                [0.8, 0.0], [0.7, 0.0], [0.0, 0.6], [0.0, 0.9],
            ]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.0]]),
            eta_corr=np.eye(1),
        )
        assert score_corr(m.exo).values == pytest.approx(np.eye(2), abs=1e-12)

    def test_example_differs_from_phi(self, model):
        r = score_corr(model.exo)
        # oracle: direct matrix arithmetic
        sigma = model.exo.sigma()
        a = (model.phi.values @ model.lambda_x.T @ np.linalg.inv(sigma)
             @ model.lambda_x @ model.phi.values)
        d = 1.0 / np.sqrt(np.diag(a))
        assert r.values == pytest.approx(a * np.outer(d, d), abs=1e-10)
        assert np.max(np.abs(r.values - model.phi.values)) > 1e-3

    def test_single_factor(self):
        assert score_corr(one_factor_model().exo).values == pytest.approx(
            np.eye(1)
        )


class TestCpTransform:
    def test_target_equal_to_sample_corr_is_identity(self, rng):
        values = rng.standard_normal((60, 3))
        p = ScoreMatrix(values, ("a", "b", "c"))
        c_p = sample_corr(p)
        out = cp_transform(p, c_p)
        # input is standardized first, so compare against the standardized input
        std = center_columns(values)
        std = std / std.std(axis=0, ddof=1)
        assert out.values == pytest.approx(std, abs=1e-10)

    def test_identity_cp_substitutes_sqrt_target(self, rng):
        values = rng.standard_normal((50, 2))
        std = center_columns(values)
        std = std / std.std(axis=0, ddof=1)
        p = ScoreMatrix(values, ("a", "b"))
        target = FactorCorr(("a", "b"), np.array([[1.0, 0.6], [0.6, 1.0]]))
        out = cp_transform(p, target, c_p=FactorCorr(("a", "b"), np.eye(2)))
        assert out.values == pytest.approx(std @ sym_sqrt(target.values).T, abs=1e-10)

    def test_sample_corr_becomes_target(self, rng, model):
        x_data, y_data, _ = simulate(model, n=500, seed=3)
        p = joint_regression_scores(model, x_data, y_data)
        target = combined_factor_corr(model)
        out = cp_transform(p, target)
        assert np.max(np.abs(sample_corr(out).values - target.values)) < 1e-10
        assert out.provenance == "correlation-preserving"

    def test_scale_invariance(self, rng):
        values = rng.standard_normal((80, 3))
        target = FactorCorr(("a", "b", "c"), np.array([
            [1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0],
        ]))
        p1 = ScoreMatrix(values, ("a", "b", "c"))
        p2 = ScoreMatrix(values * np.array([3.0, 0.2, 11.0]), ("a", "b", "c"))
        assert cp_transform(p2, target).values == pytest.approx(
            cp_transform(p1, target).values, abs=1e-10
        )

    def test_label_mismatch_rejected(self, rng):
        p = ScoreMatrix(rng.standard_normal((10, 2)), ("a", "b"))
        target = FactorCorr(("b", "a"), np.eye(2))
        with pytest.raises(StructuralError, match="ordered"):
            cp_transform(p, target)

    # one factor: the transform only centres and scales to unit variance
    def test_scales_variance_to_one(self):
        col = np.array([0.0, 4.0, 8.0])  # variance 16
        out = cp_transform(ScoreMatrix(col[:, None], ("f1",)), ONE)
        assert out.values[:, 0] == pytest.approx((col - 4.0) / 4.0)

    def test_unit_variance_unchanged(self, rng):
        col = rng.standard_normal(50)
        col = col - col.mean()
        col = col / col.std(ddof=1)
        out = cp_transform(ScoreMatrix(col[:, None], ("f1",)), ONE)
        assert out.values[:, 0] == pytest.approx(col, abs=1e-12)

    def test_result_has_unit_variance(self):
        p = ScoreMatrix(np.array([[-2.0], [0.0], [5.0]]), ("f1",))
        out = cp_transform(p, ONE)
        assert out.values[:, 0].var(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_single_case_rejected(self):
        with pytest.raises(DataError, match="at least 2 cases"):
            cp_transform(ScoreMatrix([[1.0]], ("f1",)), ONE)


class TestCpTransformExo:
    def test_restriction_matches_joint_on_uncorrelated_blocks(self, rng, model):
        x_data, _, _ = simulate(model, n=400, seed=11)
        p_xi = regression_scores(model.exo, x_data)
        out = cp_transform(p_xi, model.phi)
        assert np.max(np.abs(sample_corr(out).values - model.phi.values)) < 1e-10

    def test_joint_and_blockwise_differ_on_xi_block(self, model):
        x_data, y_data, _ = simulate(model, n=600, seed=5)
        p = joint_regression_scores(model, x_data, y_data)
        joint = cp_transform(p, combined_factor_corr(model))
        blockwise = cp_transform(p.select(model.xi_labels), model.phi)
        dev = np.max(np.abs(
            joint.values[:, :3] - blockwise.values
        ))
        assert dev > 1e-4

    def test_identity_phi_whitens(self, rng):
        values = rng.standard_normal((300, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
        p = ScoreMatrix(values, ("xi1", "xi2"))
        out = cp_transform(p, FactorCorr(("xi1", "xi2"), np.eye(2)))
        assert sample_corr(out).values == pytest.approx(np.eye(2), abs=1e-10)


class TestParameterRoute:
    def test_matches_blockwise_transform_of_exact_regression_scores(self, model):
        x_data, _, _ = simulate(model, n=200, seed=2)
        from_params = cp_scores_from_params(model, x_data)
        # the same substitution by hand: exact regression scores with the
        # model-implied score correlation and variances
        p_xi = regression_scores(model.exo, x_data)
        substituted = cp_transform(
            p_xi,
            model.phi,
            score_corr(model.exo),
            score_variances=np.diag(model.exo.score_cov()),
        )
        assert from_params.values == pytest.approx(substituted.values, abs=1e-9)

    def test_population_covariance_is_phi(self, model):
        sigma = model.exo.sigma()
        w_reg = model.exo.weights()
        a = w_reg @ model.lambda_x @ model.phi.values
        d_inv = np.diag(1.0 / np.sqrt(np.diag(a)))
        r = d_inv @ a @ d_inv
        w = (sym_sqrt(model.phi.values)
             @ np.linalg.inv(sym_sqrt(r)) @ d_inv @ w_reg)
        assert w @ sigma @ w.T == pytest.approx(model.phi.values, abs=1e-9)

    def test_equals_orthogonal_route_when_diag_constant(self):
        # two symmetric orthogonal factors: equal score variances
        m = SemModel(
            lambda_x=np.array([
                [0.7, 0.0], [0.7, 0.0], [0.0, 0.7], [0.0, 0.7],
            ]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.2]]),
            eta_corr=np.eye(1),
        )
        x = DataMatrix(np.eye(4), ("x1", "x2", "x3", "x4"))
        assert cp_scores_from_params(m, x).values == pytest.approx(
            orthogonal_scores(m, x).values, abs=1e-10
        )

    def test_sample_corr_near_phi(self, model):
        x_data, _, _ = simulate(model)
        out = cp_scores_from_params(model, x_data)
        assert np.max(np.abs(sample_corr(out).values - model.phi.values)) < 0.03


class TestOrthogonalScores:
    def test_population_covariance_identity(self, model):
        x_data, _, _ = simulate(model)
        out = orthogonal_scores(model, x_data)
        assert np.max(np.abs(corr_from_data(out.values) - np.eye(3))) < 0.03

    def test_single_factor_is_rescaled_regression_score(self):
        m = one_factor_model()
        x = DataMatrix(np.eye(3), ("x1", "x2", "x3"))
        reg = regression_scores(m.exo, x)
        ortho = orthogonal_scores(m, x)
        sigma = m.exo.sigma()
        var = (m.lambda_x.T @ np.linalg.inv(sigma) @ m.lambda_x)[0, 0]
        assert ortho.values == pytest.approx(reg.values / np.sqrt(var), abs=1e-12)

    def test_zero_row_maps_to_zero(self, model):
        x = DataMatrix(np.zeros((2, 15)), model.x_labels)
        assert orthogonal_scores(model, x).values == pytest.approx(np.zeros((2, 3)))


class TestCpFromOrthogonal:
    def test_identity_phi_equals_orthogonal(self):
        m = SemModel(
            lambda_x=np.array([[0.8, 0.0], [0.0, 0.7]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.0]]),
            eta_corr=np.eye(1),
        )
        x = DataMatrix(np.eye(2), ("x1", "x2"))
        assert cp_scores_from_orthogonal(m, x).values == pytest.approx(
            orthogonal_scores(m, x).values
        )

    def test_population_covariance_is_phi(self, model):
        root = sym_sqrt(model.phi.values)
        assert root @ np.eye(3) @ root.T == pytest.approx(model.phi.values, abs=1e-12)

    def test_betas_reproduce_paths_at_scale(self, model):
        from cpscores import standardized_betas

        x_data, y_data, _ = simulate(model, n=10_000, seed=1)
        cp_xi = cp_scores_from_orthogonal(model, x_data)
        # endogenous cp scores from the joint transform of the full proxy
        proxy = joint_regression_scores(model, x_data, y_data)
        cp_eta = cp_transform(
            proxy, combined_factor_corr(model)
        ).select(model.eta_labels)
        betas = standardized_betas(cp_xi, cp_eta)
        assert np.max(np.abs(betas - model.gamma.T)) < 0.02


class TestJointRegressionScores:
    def test_population_covariance_is_combined_corr(self, model):
        w = joint_regression_weights(model)
        c = combined_factor_corr(model).values
        loadings = np.zeros((25, 5))
        loadings[:15, :3] = model.lambda_x
        loadings[15:, 3:] = model.lambda_y
        common = loadings @ c @ loadings.T
        sigma = common + np.diag(1.0 - np.diag(common))
        cov = w @ sigma @ w.T
        # covariance with the factors equals the score covariance
        assert cov == pytest.approx(w @ loadings @ c, abs=1e-10)

    def test_row_mismatch_rejected(self, model):
        x = DataMatrix(np.zeros((3, 15)), model.x_labels)
        y = DataMatrix(np.zeros((4, 10)), model.y_labels)
        with pytest.raises(StructuralError, match="cases"):
            joint_regression_scores(model, x, y)
