import numpy as np
import pytest

from cpscores import (
    DataError,
    DataMatrix,
    FactorCorr,
    NearSingularError,
    ScoreMatrix,
    SemModel,
    StructuralError,
    cp_scores_from_params,
    cp_transform,
    orthogonal_scores,
    regression_scores,
    simulate_dataset,
)
from cpscores.linalg import _sym_power, corr_from_cov
from cpscores.model import combined_factor_corr
from cpscores.simulate import SimulationSpec, random_model


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


def centred(a):
    return a - a.mean(axis=0)


def eigh_multiplier(target, cov):
    """``target^{1/2} R^{-1/2} diag(cov)^{-1/2}`` with R the correlation of
    ``cov``, from ``np.linalg.eigh`` alone."""
    def power(s, p):
        w, v = np.linalg.eigh(s)
        return (v * w**p) @ v.T

    d = 1.0 / np.sqrt(np.diag(cov))
    return power(target, 0.5) @ power(cov * np.outer(d, d), -0.5) @ np.diag(d)


def applied_weights(family, owner, block):
    """The weight matrix ``family(owner, *data)`` applies to the indicators
    of ``block``, one data matrix per loading block: the rows ``e_j`` and
    ``-e_j`` have mean zero, so the scores of the first p rows are the
    columns of the weights."""
    p = len(block.indicator_labels)
    rows = np.vstack([np.eye(p), -np.eye(p)])
    bounds = np.cumsum([0] + [len(b) for b in block.loading_blocks])
    data = [DataMatrix(rows[:, lo:hi], block.indicator_labels[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]
    return family(owner, *data).values[:p].T


class TestRegressionScoresExo:
    def test_one_factor_closed_form(self):
        m = one_factor_model()
        # oracle: weights by explicit 3x3 inversion in the test
        sigma = m.lambda_x @ m.lambda_x.T + np.diag(1 - (m.lambda_x**2).ravel())
        w_oracle = (np.linalg.inv(sigma) @ m.lambda_x).ravel()
        x = DataMatrix(np.eye(3), ("x1", "x2", "x3"))
        out = regression_scores(m.exo, x)
        # data are centered internally; apply the oracle to centered rows
        expected = centred(np.eye(3)) @ w_oracle
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
        observed = np.corrcoef(out.values, rowvar=False)
        predicted = corr_from_cov(model.exo.score_cov())
        assert np.max(np.abs(observed - predicted)) < 0.03
        # and differs from phi itself
        assert np.max(np.abs(predicted - model.phi.values)) > 1e-3

    def test_column_mismatch(self, model):
        with pytest.raises(StructuralError):
            regression_scores(model.exo, DataMatrix(np.zeros((2, 14)),
                                                   [f"x{i}" for i in range(14)]))

    def test_reversed_columns_refused(self, model):
        # the same indicator labels in another order: matching by position
        # would score x15 as x1
        x_data, _, _ = simulate(model, n=50, seed=1)
        reversed_x = DataMatrix(x_data.values[:, ::-1], x_data.labels[::-1])
        with pytest.raises(StructuralError) as info:
            regression_scores(model.exo, reversed_x)
        assert str(info.value) == (
            "regression scores: indicator data column 1 is 'x15', "
            "the model's indicator 1 is 'x1'"
        )


class TestRegressionScoresEndo:
    def test_one_factor_closed_form(self, model):
        _, y_data, _ = simulate(model)
        out = regression_scores(model.endo, y_data)
        w = model.endo.weights()
        assert out.values == pytest.approx(centred(y_data.values) @ w.T)

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
        assert corr_from_cov(m.exo.score_cov()) == pytest.approx(np.eye(2), abs=1e-12)

    def test_example_differs_from_phi(self, model):
        r = corr_from_cov(model.exo.score_cov())
        # oracle: direct matrix arithmetic
        sigma = model.exo.sigma()
        a = (model.phi.values @ model.lambda_x.T @ np.linalg.inv(sigma)
             @ model.lambda_x @ model.phi.values)
        d = 1.0 / np.sqrt(np.diag(a))
        assert r == pytest.approx(a * np.outer(d, d), abs=1e-10)
        assert np.max(np.abs(r - model.phi.values)) > 1e-3

    def test_single_factor(self):
        assert corr_from_cov(one_factor_model().exo.score_cov()) == pytest.approx(
            np.eye(1)
        )


class TestCpTransform:
    def test_target_equal_to_sample_corr_is_identity(self, rng):
        values = rng.standard_normal((60, 3))
        p = ScoreMatrix(values, ("a", "b", "c"))
        c_p = FactorCorr(p.labels, np.corrcoef(values, rowvar=False))
        out = cp_transform(p, c_p)
        # input is standardized first, so compare against the standardized input
        std = centred(values)
        std = std / std.std(axis=0, ddof=1)
        assert out.values == pytest.approx(std, abs=1e-10)

    def test_sample_corr_becomes_target(self, rng, model):
        x_data, y_data, _ = simulate(model, n=500, seed=3)
        p = regression_scores(model.joint, x_data, y_data)
        target = combined_factor_corr(model)
        out = cp_transform(p, target)
        assert np.max(np.abs(np.corrcoef(out.values, rowvar=False) - target.values)) < 1e-10
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
        assert np.max(np.abs(np.corrcoef(out.values, rowvar=False) - model.phi.values)) < 1e-10

    def test_joint_and_blockwise_differ_on_xi_block(self, model):
        x_data, y_data, _ = simulate(model, n=600, seed=5)
        p = regression_scores(model.joint, x_data, y_data)
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
        assert np.corrcoef(out.values, rowvar=False) == pytest.approx(np.eye(2), abs=1e-10)


class TestParameterRoute:
    def test_matches_blockwise_transform_of_exact_regression_scores(self, model):
        x_data, _, _ = simulate(model, n=200, seed=2)
        from_params = cp_scores_from_params(model, x_data)
        # the same substitution by hand: exact regression scores times the
        # multiplier built from the model-implied score covariance
        p_xi = regression_scores(model.exo, x_data)
        substituted = centred(p_xi.values) @ eigh_multiplier(
            model.phi.values, model.exo.score_cov()).T
        assert from_params.values == pytest.approx(substituted, abs=1e-9)

    def test_population_covariance_is_phi(self, model):
        sigma = model.exo.sigma()
        w_reg = model.exo.weights()
        a = w_reg @ model.lambda_x @ model.phi.values
        d_inv = np.diag(1.0 / np.sqrt(np.diag(a)))
        r = d_inv @ a @ d_inv
        w = (_sym_power(model.phi.values, 0.5)
             @ np.linalg.inv(_sym_power(r, 0.5)) @ d_inv @ w_reg)
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
        assert np.max(np.abs(np.corrcoef(out.values, rowvar=False) - model.phi.values)) < 0.03

    def test_factor_without_indicators_refused(self):
        # xi2 loads on no indicator and is uncorrelated with xi1: its
        # regression score is exactly 0, so its variance is too
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.6, 0.0], [0.8, 0.0]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.3, 0.0]]),
            eta_corr=np.eye(1),
        )
        x = DataMatrix(np.eye(3), ("x1", "x2", "x3"))
        expected = ("regression-score variance 0.000e+00 for factor xi2 "
                    "is not positive")
        with pytest.raises(StructuralError) as info:
            cp_scores_from_params(m, x)
        assert str(info.value) == expected

    def test_betas_reproduce_paths_at_scale(self, model):
        from cpscores import standardized_betas

        x_data, y_data, _ = simulate(model, n=10_000, seed=1)
        cp_xi = cp_scores_from_params(model, x_data)
        # endogenous cp scores from the joint transform of the full proxy
        proxy = regression_scores(model.joint, x_data, y_data)
        cp_eta = cp_transform(
            proxy, combined_factor_corr(model)
        ).select(model.eta_labels)
        betas = standardized_betas(cp_xi, cp_eta)
        assert np.max(np.abs(betas - model.gamma.T)) < 0.02


class TestNamedSingularMatrices:
    """A matrix that is not positive definite is named in the error."""

    def test_too_few_cases_name_the_score_correlation(self, model):
        # 5 cases of 5 scores: rank 4 after centring
        x_data, y_data, _ = simulate(model, n=5, seed=1)
        joint = regression_scores(model.joint, x_data, y_data)
        with pytest.raises(NearSingularError, match=(
            r"^sample correlation of the scores \(xi1, xi2, xi3, eta1, eta2\) "
            r"not positive definite \(smallest eigenvalue ")):
            cp_transform(joint, combined_factor_corr(model))

    def test_factor_without_indicators_names_the_information_matrix(self):
        # xi2 loads on no indicator: L' sigma^{-1} L has a zero row
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.6, 0.0], [0.8, 0.0]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.3, 0.0]]),
            eta_corr=np.eye(1),
        )
        x = DataMatrix(np.eye(3), ("x1", "x2", "x3"))
        with pytest.raises(NearSingularError, match=(
            "^L\u2032\u03a3\u207b\u00b9L of the exogenous block not "
            "positive definite")):
            orthogonal_scores(m, x)


class TestOrthogonalScores:
    def test_population_covariance_identity(self, model):
        x_data, _, _ = simulate(model)
        out = orthogonal_scores(model, x_data)
        assert np.max(np.abs(
            np.corrcoef(out.values, rowvar=False) - np.eye(3))) < 0.03

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


class TestParameterRouteWeights:
    """The parameter-route correlation-preserving weight matrices give
    scores whose population covariance is the block's factor correlation
    (phi for the x block), over random model shapes."""

    @pytest.mark.parametrize("n_xi, n_eta, per_factor", [
        (1, 1, 2), (2, 1, 3), (3, 2, 3), (4, 3, 4), (6, 4, 6),
    ])
    def test_population_covariance_is_phi(self, n_xi, n_eta, per_factor):
        rng = np.random.default_rng(100 * n_xi + 10 * n_eta + per_factor)
        m = random_model(rng, n_xi=n_xi, n_eta=n_eta,
                         indicators_per_factor=per_factor)
        w = applied_weights(cp_scores_from_params, m, m.exo)
        assert w @ m.exo.sigma() @ w.T == pytest.approx(m.phi.values, abs=1e-10)


class TestJointRegressionScores:
    def test_is_regression_scores_of_the_joint_block(self, model):
        x_data, y_data, _ = simulate(model, n=500, seed=2)
        assert np.array_equal(
            regression_scores(model.joint, x_data, y_data).values,
            regression_scores(model.joint, x_data, y_data).values,
        )

    def test_data_count_refused(self, model):
        x_data, y_data, _ = simulate(model, n=50, seed=1)
        with pytest.raises(StructuralError) as info:
            regression_scores(model.joint, x_data)
        assert str(info.value) == (
            "regression scores: 1 indicator data matrix, the joint block "
            "takes 2 (x, y)"
        )
        with pytest.raises(StructuralError) as info:
            regression_scores(model.exo, x_data, y_data)
        assert str(info.value) == (
            "regression scores: 2 indicator data matrices, the exogenous "
            "block takes 1 (x)"
        )

    def test_population_covariance_is_combined_corr(self, model):
        w = model.joint.weights()
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
            regression_scores(model.joint, x, y)

    def test_reversed_y_refused(self, model):
        x_data, y_data, _ = simulate(model, n=50, seed=1)
        reversed_y = DataMatrix(y_data.values[:, ::-1], y_data.labels[::-1])
        with pytest.raises(StructuralError, match=(
            "indicator data column 1 is 'y10', the model's indicator 1 is 'y1'"
        )):
            regression_scores(model.joint, x_data, reversed_y)
