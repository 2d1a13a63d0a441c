import numpy as np
import pytest

from cpscores import (
    DataError,
    NearSingularError,
    ScoreMatrix,
    cp_transform,
    determinacy_endo,
    determinacy_exo,
    regression_scores,
    sample_corr,
    standardized_betas,
    sym_inv_sqrt,
    sym_sqrt,
)
from cpscores.linalg import corr_from_cov, moments
from cpscores.simulate import SimulationSpec, simulate_dataset
from conftest import spd_matrix


def scores(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(f"f{i+1}" for i in range(values.shape[1]))
    return ScoreMatrix(values, labels)


class TestSpectral:
    def test_rejects_asymmetric(self):
        with pytest.raises(Exception, match="symmetric"):
            sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSymSqrt:
    def test_identity(self):
        assert sym_sqrt(np.eye(3)) == pytest.approx(np.eye(3))

    def test_diagonal(self):
        assert sym_sqrt(np.diag([4.0, 9.0])) == pytest.approx(np.diag([2.0, 3.0]))

    def test_squares_back(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        m = sym_sqrt(s)
        assert m == pytest.approx(m.T)
        assert m @ m == pytest.approx(s, abs=1e-10)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_random_spd_reconstruction(self, rng, k):
        s = spd_matrix(rng, k)
        m = sym_sqrt(s)
        scale = np.max(np.abs(s))
        assert m @ m == pytest.approx(s, abs=1e-9 * scale)
        assert sym_inv_sqrt(s) == pytest.approx(
            np.linalg.inv(m), abs=1e-9 * np.max(np.abs(np.linalg.inv(m)))
        )

    def test_commutes_with_orthogonal_conjugation(self, rng):
        s = spd_matrix(rng, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        left = sym_sqrt(q @ s @ q.T)
        right = q @ sym_sqrt(s) @ q.T
        assert left == pytest.approx(right, abs=1e-9)

    def test_singular_rejected(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NearSingularError):
            sym_sqrt(s)

    def test_indefinite_rejected(self):
        s = np.diag([4.0, -9.0])
        with pytest.raises(NearSingularError):
            sym_sqrt(s)


class TestSymInvSqrt:
    def test_identity(self):
        assert sym_inv_sqrt(np.eye(2)) == pytest.approx(np.eye(2))

    def test_diagonal(self):
        assert sym_inv_sqrt(np.diag([4.0, 9.0])) == pytest.approx(
            np.diag([0.5, 1.0 / 3.0])
        )

    def test_whitens(self, rng):
        s = spd_matrix(rng, 3)
        m = sym_inv_sqrt(s)
        assert m @ s @ m == pytest.approx(np.eye(3), abs=1e-9)


class TestMoments:
    def test_simple_column(self):
        centred, cov = moments([[1.0], [2.0], [3.0]])
        assert centred[:, 0] == pytest.approx([-1.0, 0.0, 1.0])
        assert cov == pytest.approx(np.ones((1, 1)))

    def test_already_centered_unchanged(self):
        values = np.array([[-1.0, 2.0], [1.0, -2.0]])
        centred, _ = moments(values)
        assert centred == pytest.approx(values)

    def test_covariance_divides_by_n_minus_one(self, rng):
        values = rng.standard_normal((30, 4)) + np.array([5.0, -2.0, 0.0, 1e3])
        centred, cov = moments(values)
        assert centred.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-12)
        assert cov == pytest.approx(np.cov(values, rowvar=False), abs=1e-12)

    def test_single_case_rejected(self):
        with pytest.raises(DataError, match="at least 2 cases"):
            moments([[1.0]])

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="'f1'"):
            moments([[1.0], [1.0]], ("f1",))
        with pytest.raises(DataError, match="column 1"):
            moments([[1.0, 2.0], [3.0, 2.0]])


def test_corr_from_cov_unit_diagonal_and_symmetric(rng):
    cov = spd_matrix(rng, 4)
    r = corr_from_cov(cov)
    assert np.array_equal(np.diag(r), np.ones(4))
    assert np.array_equal(r, r.T)
    d = np.sqrt(np.diag(cov))
    assert r == pytest.approx(cov / np.outer(d, d), abs=1e-15)


class TestSampleCorr:
    def test_identical_columns(self):
        col = np.array([1.0, 2.0, 4.0, 8.0])
        corr = sample_corr(scores(np.column_stack([col, col])))
        assert corr.values[0, 1] == pytest.approx(1.0)

    def test_orthogonal_contrasts(self):
        a = np.array([1.0, -1.0, 1.0, -1.0])
        b = np.array([1.0, 1.0, -1.0, -1.0])
        corr = sample_corr(scores(np.column_stack([a, b])))
        assert corr.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_recovers_known_correlation(self, rng):
        phi = np.array([
            [1.0, 0.3, 0.5],
            [0.3, 1.0, 0.2],
            [0.5, 0.2, 1.0],
        ])
        draws = rng.standard_normal((10_000, 3)) @ sym_sqrt(phi)
        corr = sample_corr(scores(draws))
        assert np.max(np.abs(corr.values - phi)) < 0.03

    def test_scale_invariance(self, rng):
        values = rng.standard_normal((40, 3))
        base = sample_corr(scores(values)).values
        rescaled = sample_corr(scores(values * np.array([2.0, 0.01, 300.0])))
        assert rescaled.values == pytest.approx(base, abs=1e-12)
        shifted = sample_corr(scores(values + np.array([5.0, -3.0, 0.5])))
        assert shifted.values == pytest.approx(base, abs=1e-12)

    def test_constant_column_named(self):
        values = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DataError, match="f1"):
            sample_corr(scores(values))

    def test_rank_warning(self, rng):
        values = rng.standard_normal((3, 4))
        with pytest.warns(UserWarning, match="rank"):
            sample_corr(scores(values))


# Every consumer of the sample moments, called on a score matrix of the
# example model's ``block`` whose second column is replaced; each returns
# an array of the numbers it computes.
MOMENT_CONSUMERS = [
    ("sample_corr", "exo", lambda s, m, x, y: sample_corr(s).values),
    ("cp_transform", "exo", lambda s, m, x, y: cp_transform(s, m.phi).values),
    ("determinacy_exo", "exo",
     lambda s, m, x, y: determinacy_exo(s, x, m).coefficients),
    ("determinacy_endo", "endo",
     lambda s, m, x, y: determinacy_endo(s, y, m).coefficients),
    ("betas_predictor", "exo",
     lambda s, m, x, y: standardized_betas(s, regression_scores(m.endo, y))),
    ("betas_outcome", "endo",
     lambda s, m, x, y: standardized_betas(regression_scores(m.exo, x), s)),
]


def _second_column(model, block, fill):
    x, y, _ = simulate_dataset(SimulationSpec(model, 50, 1))
    b = getattr(model, block)
    scores = regression_scores(b, x if block == "exo" else y)
    values = scores.values.copy()
    values[:, 1] = fill(values[:, 1])
    return scores.replace_values(values), b.factor_labels[1], x, y


@pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 1e6 + 0.1])
@pytest.mark.parametrize(
    "block, call", [pytest.param(b, c, id=n) for n, b, c in MOMENT_CONSUMERS]
)
def test_constant_column_refused_by_label(model, block, call, value):
    # the column means are inexact in binary, so the centred columns are
    # a few ulps off zero rather than exactly zero
    scores, label, x, y = _second_column(model, block, lambda c: value)
    with pytest.raises(DataError, match=f"constant column '{label}'"):
        call(scores, model, x, y)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize(
    "block, call", [pytest.param(b, c, id=n) for n, b, c in MOMENT_CONSUMERS]
)
def test_rescaled_column_accepted(model, block, call, scale):
    base, _, x, y = _second_column(model, block, lambda c: c)
    scaled, _, _, _ = _second_column(model, block, lambda c: c * scale)
    assert call(scaled, model, x, y) == pytest.approx(
        call(base, model, x, y), abs=1e-10
    )
