"""Scores and determinacy computed a block of rows at a time.

``linalg.ROW_BLOCK`` is shrunk to 7 rows so the block loop, its partial
blocks and its block edges run on small arrays.  Every score family must
equal the one-shot product of the centred, stacked indicators with weights
built here with numpy alone.
"""

import numpy as np
import pytest

from cpscores import (
    DataMatrix,
    ScoreMatrix,
    cp_scores_from_params,
    determinacy_endo,
    determinacy_exo,
    joint_regression_scores,
    orthogonal_scores,
    regression_scores,
)
from cpscores import linalg
from cpscores.simulate import random_model

SHAPES = [(3, 2, 3), (2, 1, 4), (4, 3, 3)]
CASES = [2, 6, 7, 8, 15]


@pytest.fixture(autouse=True)
def seven_row_blocks(monkeypatch):
    monkeypatch.setattr(linalg, "ROW_BLOCK", 7)


def sym_power(s, power):
    w, v = np.linalg.eigh(s)
    return (v * w**power) @ v.T


def weights(corr, loadings):
    """Regression weights C lambda' sigma^{-1} and sigma."""
    common = loadings @ corr @ loadings.T
    sigma = common + np.diag(1.0 - np.diag(common))
    return corr @ loadings.T @ np.linalg.inv(sigma), sigma


def oracle_weights(model):
    """Weights of every score family, from the model parameters alone."""
    phi = model.phi.values
    eta_corr = model.endo.corr
    c = model.joint.corr
    loadings = np.zeros((model.n_x + model.n_y, model.n_xi + model.n_eta))
    loadings[: model.n_x, : model.n_xi] = model.lambda_x
    loadings[model.n_x:, model.n_xi:] = model.lambda_y
    w_x, sigma_x = weights(phi, model.lambda_x)
    w_y, _ = weights(eta_corr, model.lambda_y)
    w_joint, _ = weights(c, loadings)
    sigma_inv_l = np.linalg.inv(sigma_x) @ model.lambda_x
    w_ortho = sym_power(model.lambda_x.T @ sigma_inv_l, -0.5) @ sigma_inv_l.T
    a = w_x @ sigma_x @ w_x.T
    d = np.diag(1.0 / np.sqrt(np.diag(a)))
    w_cp = sym_power(phi, 0.5) @ sym_power(d @ a @ d, -0.5) @ d @ w_x
    return {"exo": w_x, "endo": w_y, "joint": w_joint, "ortho": w_ortho,
            "cp-params": w_cp}


def families(model, x, y):
    return {
        "exo": regression_scores(model.exo, x),
        "endo": regression_scores(model.endo, y),
        "joint": joint_regression_scores(model, x, y),
        "ortho": orthogonal_scores(model, x),
        "cp-params": cp_scores_from_params(model, x),
    }


def draw(seed, shape, n):
    rng = np.random.default_rng(seed)
    model = random_model(rng, *shape)
    x = rng.standard_normal((n, model.n_x))
    y = rng.standard_normal((n, model.n_y))
    return model, DataMatrix(x, model.x_labels), DataMatrix(y, model.y_labels)


def centred(*arrays):
    z = np.hstack(arrays)
    return z - z.mean(axis=0)


@pytest.mark.parametrize("n", CASES)
@pytest.mark.parametrize("seed, shape", enumerate(SHAPES))
def test_scores_equal_one_shot_product(seed, shape, n):
    model, x, y = draw(seed, shape, n)
    w = oracle_weights(model)
    zx, zy, z = centred(x.values), centred(y.values), centred(x.values, y.values)
    inputs = {"exo": zx, "endo": zy, "joint": z, "ortho": zx, "cp-params": zx}
    for name, got in families(model, x, y).items():
        want = inputs[name] @ w[name].T
        assert got.values.shape == want.shape
        assert np.max(np.abs(got.values - want)) < 1e-12, name


@pytest.mark.parametrize("n", CASES)
@pytest.mark.parametrize("seed, shape", enumerate(SHAPES))
def test_determinacy_equals_one_shot_moments(seed, shape, n):
    model, x, y = draw(seed, shape, n)
    w = oracle_weights(model)
    rng = np.random.default_rng(seed)
    for block, data, fn in (("exo", x, determinacy_exo),
                            ("endo", y, determinacy_endo)):
        # scores unrelated to the data, so no term of the cross moment
        # cancels by construction
        labels = getattr(model, block).factor_labels
        scores = ScoreMatrix(rng.standard_normal((n, len(labels))), labels)
        p = centred(scores.values)
        cross = p.T @ centred(data.values) / (n - 1)
        sd = np.sqrt(np.sum(p * p, axis=0) / (n - 1))
        want = np.sum(cross * w[block], axis=1) / sd
        got = fn(scores, data, model).coefficients
        assert np.max(np.abs(got - want)) < 1e-12, block


@pytest.mark.parametrize("n", CASES)
@pytest.mark.parametrize("seed, shape", enumerate(SHAPES))
def test_large_column_offset_keeps_scores(seed, shape, n):
    model, x, y = draw(seed, shape, n)
    # the shifted values are rounded once; subtracting the offset again is
    # exact, so both data sets hold the same values up to the offset
    x_far, y_far = (DataMatrix(d.values + 1e6, d.labels) for d in (x, y))
    x, y = (DataMatrix(d.values - 1e6, d.labels) for d in (x_far, y_far))
    near = families(model, x, y)
    for name, got in families(model, x_far, y_far).items():
        assert np.max(np.abs(got.values - near[name].values)) < 1e-9, name
