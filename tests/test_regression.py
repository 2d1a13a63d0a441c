import numpy as np
import pytest

from cpscores import (
    NearSingularError,
    ScoreMatrix,
    StructuralError,
    standardized_betas,
)
from conftest import exact_corr_values


def scores(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(f"p{i+1}" for i in range(values.shape[1]))
    return ScoreMatrix(values, labels)


def test_outcome_equal_to_predictor(rng):
    x = rng.standard_normal((100, 3))
    betas = standardized_betas(scores(x), scores(x[:, [1]], ("out",)))
    assert betas[:, 0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)


def test_orthonormal_predictors_give_simple_correlations(rng):
    # orthogonal contrast design: betas reduce to the simple correlations
    x = np.array([
        [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
    ])
    y = 0.5 * x[:, [0]] - 0.25 * x[:, [1]]
    betas = standardized_betas(scores(x), scores(y, ("out",)))
    xs = x / x.std(axis=0, ddof=1)
    ys = (y / y.std(axis=0, ddof=1)).ravel()
    simple = xs.T @ ys / (len(y) - 1)
    assert betas[:, 0] == pytest.approx(simple, abs=1e-12)


def test_exact_moments_recover_paths(rng):
    # when the predictor correlation is exactly phi and cross-correlations
    # exactly phi gamma', the betas equal gamma' exactly
    phi = np.array([
        [1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0],
    ])
    gamma = np.array([[0.4, 0.0, 0.2], [0.1, -0.3, 0.25]])
    explained = gamma @ phi @ gamma.T
    c = np.block([[phi, phi @ gamma.T],
                  [gamma @ phi, explained + np.diag(1.0 - np.diag(explained))]])
    values = exact_corr_values(rng, c, 20)
    betas = standardized_betas(scores(values[:, :3]), scores(values[:, 3:], ("a", "b")))
    assert betas == pytest.approx(gamma.T, abs=1e-10)


def test_scale_invariance(rng):
    x = rng.standard_normal((60, 3))
    y = rng.standard_normal((60, 2))
    base = standardized_betas(scores(x), scores(y, ("a", "b")))
    rescaled = standardized_betas(
        scores(x * np.array([4.0, 0.5, 9.0])),
        scores(y * np.array([0.01, 25.0]), ("a", "b")),
    )
    assert rescaled == pytest.approx(base, abs=1e-10)


def test_collinear_predictors_rejected(rng):
    col = rng.standard_normal(30)
    x = np.column_stack([col, 2.0 * col])
    with pytest.raises(NearSingularError, match="collinear"):
        standardized_betas(scores(x), scores(col[:, None], ("out",)))


def test_row_mismatch_rejected(rng):
    with pytest.raises(StructuralError, match="rows"):
        standardized_betas(
            scores(rng.standard_normal((10, 2))),
            scores(rng.standard_normal((11, 1)), ("out",)),
        )
