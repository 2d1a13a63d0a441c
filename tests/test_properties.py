"""Property-based checks of the algebraic invariants.

Strategies draw dimensions and generator seeds rather than raw floats; the
actual matrices come from seeded numpy generators so every example is a
well-conditioned, realistic input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpscores import (
    CpscoresError,
    FactorCorr,
    NearSingularError,
    ScoreMatrix,
    SemModel,
    closed_form_regression_determinacy,
    cp_scores_from_params,
    cp_transform,
    determinacy_endo,
    determinacy_exo,
    standardized_betas,
    validate_model,
)
from cpscores.linalg import _sym_power
from cpscores.model import combined_factor_corr
from cpscores.scores import joint_regression_scores
from cpscores.simulate import (
    SimulationSpec,
    random_correlation,
    random_model,
    simulate_dataset,
)
from conftest import exact_corr_values, heywood_model

dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _labels(k):
    return tuple(f"f{i + 1}" for i in range(k))


@settings(max_examples=60, deadline=None)
@given(k=dims, seed=seeds)
def test_transform_hits_target_correlation(k, seed):
    rng = np.random.default_rng(seed)
    target = FactorCorr(_labels(k), random_correlation(rng, k))
    p = ScoreMatrix(rng.standard_normal((40, k)), target.labels, "raw")
    out = cp_transform(p, target)
    assert np.max(np.abs(np.corrcoef(out.values, rowvar=False) - target.values)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(k=dims, seed=seeds)
def test_transform_ignores_column_scale_and_shift(k, seed):
    rng = np.random.default_rng(seed)
    target = FactorCorr(_labels(k), random_correlation(rng, k))
    p = ScoreMatrix(rng.standard_normal((40, k)), target.labels, "raw")
    scales = rng.uniform(0.1, 10.0, size=k)
    shifts = rng.uniform(-5.0, 5.0, size=k)
    q = p.replace_values(p.values * scales + shifts)
    assert np.max(np.abs(
        cp_transform(p, target).values - cp_transform(q, target).values
    )) < 1e-9


@settings(max_examples=60, deadline=None)
@given(k=dims, seed=seeds)
def test_sym_sqrt_squares_back_and_inverts(k, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, k + 3))
    s = b @ b.T + 0.1 * np.eye(k)
    root = _sym_power(s, 0.5)
    assert np.max(np.abs(root @ root - s)) < 1e-8
    assert np.max(np.abs(root @ _sym_power(s, -0.5) - np.eye(k))) < 1e-8


@settings(max_examples=60, deadline=None)
@given(k=dims, m=dims, seed=seeds)
def test_betas_solve_the_normal_equations(k, m, seed):
    # scores whose sample correlation is c: the betas solve its blocks
    rng = np.random.default_rng(seed)
    c = random_correlation(rng, k + m)
    values = exact_corr_values(rng, c, k + m + 10)
    betas = standardized_betas(
        ScoreMatrix(values[:, :k], _labels(k)),
        ScoreMatrix(values[:, k:], tuple(f"o{i + 1}" for i in range(m))))
    assert np.max(np.abs(c[:k, :k] @ betas - c[:k, k:])) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n_xi=dims, n_eta=st.integers(min_value=1, max_value=4), seed=seeds)
def test_block_weights_and_joint_sigma(n_xi, n_eta, seed):
    model = random_model(np.random.default_rng(seed), n_xi=n_xi, n_eta=n_eta)
    for block in (model.exo, model.endo, model.joint):
        oracle = block.corr.values @ block.loadings.T @ np.linalg.inv(block.sigma())
        assert np.max(np.abs(block.weights() - oracle)) < 1e-9
    joint = model.joint.sigma()
    assert np.max(np.abs(joint[: model.n_x, : model.n_x] - model.exo.sigma())) < 1e-10
    assert np.max(np.abs(joint[model.n_x:, model.n_x:] - model.endo.sigma())) < 1e-10


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_validation_accepts_exactly_the_usable_models(seed):
    # off-diagonal psi perturbations keep every implied factor variance at
    # 1 but can make psi, and so the combined correlation, indefinite
    # (about a quarter of these draws) while phi and the implied eta
    # covariance stay positive definite
    rng = np.random.default_rng(seed)
    m = random_model(rng, 3, 3, 3)
    noise = np.triu(rng.uniform(-0.5, 0.5, (3, 3)), 1)
    m = SemModel(
        lambda_x=m.lambda_x, phi=m.phi, lambda_y=m.lambda_y, gamma=m.gamma,
        psi=m.psi + noise + noise.T,
    )
    try:
        x, y, _ = simulate_dataset(SimulationSpec(m, 20, seed, False))
        joint_regression_scores(m, x, y)
        usable = True
    except CpscoresError:
        usable = False
    assert validate_model(m).ok == usable


# ---------------------------------------------------------------------------
# robustness edges: one factor per block, the fewest cases a transform can
# take, a Heywood-edge loading and near-collinear factors

def _chain(model, n, seed):
    """Joint scores, their transform, both blocks' determinacy and betas."""
    x, y, _ = simulate_dataset(SimulationSpec(model, n, seed, False))
    c = combined_factor_corr(model)
    cp = cp_transform(joint_regression_scores(model, x, y), c)
    xi, eta = cp.select(model.xi_labels), cp.select(model.eta_labels)
    determinacy_exo(xi, x, model)
    determinacy_endo(eta, y, model)
    return cp, c, standardized_betas(xi, eta)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_one_factor_per_block_chain_runs(seed):
    model = random_model(np.random.default_rng(seed), 1, 1, 3)
    assert validate_model(model).ok
    cp, c, betas = _chain(model, 200, seed)
    assert np.max(np.abs(np.corrcoef(cp.values, rowvar=False) - c.values)) < 1e-12
    # one predictor: the beta is the sample correlation, made C's
    assert betas[0, 0] == pytest.approx(model.gamma[0, 0], abs=1e-12)


def test_transform_from_k_plus_one_cases_and_refused_at_k(model):
    k = len(model.factor_labels)
    cp, c, _ = _chain(model, k + 1, 3)
    assert np.max(np.abs(np.corrcoef(cp.values, rowvar=False) - c.values)) < 1e-12
    x, y, _ = simulate_dataset(SimulationSpec(model, k, 3, False))
    with pytest.raises(NearSingularError, match=(
            r"^sample correlation of the scores \(xi1, xi2, xi3, eta1, eta2\) "
            r"not positive definite")):
        cp_transform(joint_regression_scores(model, x, y), combined_factor_corr(model))


def test_heywood_edge_validates_and_transforms_exactly(model):
    m = heywood_model(model)
    assert m.exo.uniqueness()[0] == pytest.approx(1e-6, rel=1e-6)
    assert validate_model(m).ok
    closed = closed_form_regression_determinacy(m, "exogenous").coefficients
    assert np.all(closed <= 1.0)
    # exact regression scores can read above 1 at this edge; their
    # distance from the closed form is bounded in test_determinacy.py
    cp, c, _ = _chain(m, 20_000, 1)
    assert np.max(np.abs(np.corrcoef(cp.values, rowvar=False) - c.values)) < 1e-12


def test_near_collinear_factors_refused_naming_the_matrix():
    # phi12 = 0.999999: the scores of xi1 and xi2 are collinear to within
    # PD_RTOL, by sample and by parameters
    m = SemModel(
        lambda_x=np.array([[0.8, 0.0], [0.7, 0.0], [0.6, 0.0],
                           [0.0, 0.8], [0.0, 0.7], [0.0, 0.6]]),
        phi=np.array([[1.0, 0.999999], [0.999999, 1.0]]),
        lambda_y=np.array([[0.7], [0.6], [0.8]]),
        gamma=np.array([[0.2, 0.1]]),
        psi=np.array([[1.0 - 0.05 - 0.04 * 0.999999]]),
    )
    with pytest.raises(NearSingularError, match=(
            r"^sample correlation of the scores \(xi1, xi2, eta1\) not "
            r"positive definite")):
        _chain(m, 20_000, 1)
    x, _, _ = simulate_dataset(SimulationSpec(m, 100, 1, False))
    with pytest.raises(NearSingularError, match=(
            "^regression-score correlation of the exogenous block not "
            "positive definite")):
        cp_scores_from_params(m, x)
