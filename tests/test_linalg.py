import numpy as np
import pytest

from cpscores import (
    DataError,
    NearSingularError,
    ScoreMatrix,
    mean_center,
    row_standardize,
    sample_corr,
    sym_inv_sqrt,
    sym_sqrt,
)
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


class TestMeanCenter:
    def test_simple_column(self):
        out = mean_center(scores([[1.0], [2.0], [3.0]]))
        assert out.values[:, 0] == pytest.approx([-1.0, 0.0, 1.0])

    def test_already_centered_unchanged(self):
        values = np.array([[-1.0, 2.0], [1.0, -2.0]])
        out = mean_center(scores(values))
        assert out.values == pytest.approx(values)

    def test_constant_column_goes_to_zero(self):
        out = mean_center(scores([[5.0], [5.0], [5.0]]))
        assert out.values == pytest.approx(np.zeros((3, 1)))

    def test_single_case_rejected(self):
        with pytest.raises(DataError):
            mean_center(scores([[1.0]]))


class TestRowStandardize:
    def test_scales_variance_to_one(self):
        col = np.array([0.0, 4.0, 8.0])  # variance 16
        out = row_standardize(scores(col[:, None]))
        assert out.values[:, 0] == pytest.approx(col / 4.0)

    def test_unit_variance_unchanged(self, rng):
        col = rng.standard_normal(50)
        col = col / col.std(ddof=1)
        out = row_standardize(scores(col[:, None]))
        assert out.values[:, 0] == pytest.approx(col, abs=1e-12)

    def test_result_has_unit_variance(self):
        out = row_standardize(scores(np.array([[-2.0], [0.0], [2.0]])))
        assert out.values[:, 0].var(ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="f1"):
            row_standardize(scores([[1.0], [1.0]]))


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
