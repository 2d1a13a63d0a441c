"""Scores, moments, determinacy and simulated data computed a block of
rows at a time.

``linalg.ROW_BLOCK`` is shrunk to 7 rows so the block loop, its partial
blocks and its block edges run on small arrays.  Every score family must
equal the one-shot product of the centred, stacked indicators with weights
built here with numpy alone.  The kernels are also run at both block sizes
on case counts around multiples of ``linalg.LANES`` (the accumulators per
column of a row-major column sum), with row-major, column-major and
strided inputs, alone and beside one another, against numpy; and the
simulator must draw the values of its whole-array formula, bit for bit,
up to ``SIM_BLOCK`` cases, which it draws from one stream.
"""

import numpy as np
import pytest

from cpscores import (
    DataMatrix,
    ScoreMatrix,
    cp_scores_from_params,
    orthogonal_scores,
    regression_scores,
)
from cpscores.determinacy import determinacy
from cpscores import linalg
from cpscores.linalg import _sym_power
from cpscores.model import combined_factor_corr
from cpscores.simulate import SIM_BLOCK, SimulationSpec, random_model, simulate_dataset

SHAPES = [(3, 2, 3), (2, 1, 4), (4, 3, 3)]
CASES = [2, 6, 7, 8, 15]
LANES = linalg.LANES
LANE_CASES = [2 * LANES - 1, 2 * LANES, 2 * LANES + 1, 10 * LANES + 3]
LAYOUTS = ["C", "F", "strided"]


@pytest.fixture(autouse=True)
def seven_row_blocks(monkeypatch):
    monkeypatch.setattr(linalg, "ROW_BLOCK", 7)


@pytest.fixture(params=[7, linalg.ROW_BLOCK], ids=["rows7", "default"])
def row_block(request, monkeypatch):
    monkeypatch.setattr(linalg, "ROW_BLOCK", request.param)


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
    eta_corr = model.endo.corr.values
    c = model.joint.corr.values
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
        "joint": regression_scores(model.joint, x, y),
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
    for block, data in (("exo", x), ("endo", y)):
        # scores unrelated to the data, so no term of the cross moment
        # cancels by construction
        labels = getattr(model, block).factor_labels
        scores = ScoreMatrix(rng.standard_normal((n, len(labels))), labels)
        p = centred(scores.values)
        cross = p.T @ centred(data.values) / (n - 1)
        sd = np.sqrt(np.sum(p * p, axis=0) / (n - 1))
        want = np.sum(cross * w[block], axis=1) / sd
        got = determinacy(getattr(model, block), scores, data).coefficients
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


def laid_out(values, layout, cls=DataMatrix, labels=None):
    """``values`` in a ``cls`` with ``labels`` (``c1``, ``c2``, ... if
    None), which adopts them frozen in a row-major or column-major array
    of their own, or as a view of every other column of a wider row-major
    array frozen before the view was taken."""
    if layout == "strided":
        wide = np.zeros((values.shape[0], 2 * values.shape[1] + 1))
        wide[:, 1::2] = values
        wide.setflags(write=False)
        out = wide[:, 1::2]
    else:
        out = np.array(values, order=layout)
        out.setflags(write=False)
    labels = labels or tuple(f"c{i + 1}" for i in range(values.shape[1]))
    matrix = cls(out, labels)
    assert np.shares_memory(matrix.values, out)  # no silent copy
    return matrix


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def offset_draws(seed, n, widths):
    """Normal columns with means far from zero, so centring matters."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, k)) * rng.uniform(0.5, 3.0, k)
            + rng.uniform(-50.0, 50.0, k) for k in widths]


def check_moments(layouts, n):
    a, b = offset_draws(n, n, (4, 1))
    z = np.hstack([a, b])
    matrices = [laid_out(d, lay) for d, lay in zip((a, b), layouts)]
    cov = linalg.moments(matrices)
    mean = np.concatenate([linalg._kept_means(m) for m in matrices])
    assert_close(mean, z.mean(axis=0))
    assert_close(cov, np.cov(z, rowvar=False))


def check_centred_product(layouts, n):
    a, b = offset_draws(n, n, (4, 1))
    w = np.random.default_rng(n).standard_normal((5, 5))
    got = linalg.centred_product(
        [laid_out(d, lay) for d, lay in zip((a, b), layouts)], w)
    assert_close(got, centred(a, b) @ w.T)


def check_determinacy(layouts, n):
    model = random_model(np.random.default_rng(n), *SHAPES[0])
    s, x = offset_draws(n, n, (model.n_xi, model.n_x))
    scores = laid_out(s, layouts[0], ScoreMatrix, model.exo.factor_labels)
    data = laid_out(x, layouts[1], DataMatrix, model.x_labels)
    p = centred(s)
    cross = p.T @ centred(x) / (n - 1)
    sd = np.sqrt(np.sum(p * p, axis=0) / (n - 1))
    want = np.sum(cross * oracle_weights(model)["exo"], axis=1) / sd
    assert_close(determinacy(model.exo, scores, data).coefficients, want)


@pytest.mark.usefixtures("row_block")
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", LANE_CASES)
def test_moments_equal_numpy(layout, n):
    check_moments((layout, layout), n)


@pytest.mark.usefixtures("row_block")
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", LANE_CASES)
def test_centred_product_equals_numpy(layout, n):
    check_centred_product((layout, layout), n)


@pytest.mark.usefixtures("row_block")
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", LANE_CASES)
def test_determinacy_equals_numpy(layout, n):
    check_determinacy((layout, layout), n)


# Arrays of two layouts in one call, as determinacy and betas see them:
# column-major scores from ``ScoreMatrix.select`` beside row-major data.
MIXED = [("C", "F"), ("F", "strided"), ("C", "strided")]
MIXED_IDS = ["-".join(pair) for pair in MIXED]


@pytest.mark.usefixtures("row_block")
@pytest.mark.parametrize("layouts", MIXED, ids=MIXED_IDS)
@pytest.mark.parametrize("n", LANE_CASES)
def test_moments_of_mixed_layouts_equal_numpy(layouts, n):
    check_moments(layouts, n)
    check_moments(layouts[::-1], n)


@pytest.mark.usefixtures("row_block")
@pytest.mark.parametrize("layouts", MIXED, ids=MIXED_IDS)
@pytest.mark.parametrize("n", LANE_CASES)
def test_centred_product_of_mixed_layouts_equals_numpy(layouts, n):
    check_centred_product(layouts, n)
    check_centred_product(layouts[::-1], n)


@pytest.mark.usefixtures("row_block")
@pytest.mark.parametrize("layouts", MIXED, ids=MIXED_IDS)
@pytest.mark.parametrize("n", LANE_CASES)
def test_determinacy_of_mixed_layouts_equals_numpy(layouts, n):
    check_determinacy(layouts, n)
    check_determinacy(layouts[::-1], n)


@pytest.mark.parametrize("n", [2, 8, 15, 2 * LANES + 1, 8193, SIM_BLOCK])
@pytest.mark.parametrize("seed, shape", enumerate(SHAPES))
def test_simulator_keeps_whole_array_draw_order(seed, shape, n):
    model = random_model(np.random.default_rng(seed), *shape)
    x, y, factors = simulate_dataset(SimulationSpec(model, n, seed))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, model.n_xi + model.n_eta)) @ _sym_power(
        combined_factor_corr(model).values, 0.5)
    want_x = (f[:, : model.n_xi] @ model.lambda_x.T
              + rng.standard_normal((n, model.n_x)) * np.sqrt(model.exo.uniqueness()))
    want_y = (f[:, model.n_xi:] @ model.lambda_y.T
              + rng.standard_normal((n, model.n_y)) * np.sqrt(model.endo.uniqueness()))
    assert np.array_equal(factors.values, f)
    assert np.array_equal(x.values, want_x)
    assert np.array_equal(y.values, want_y)
