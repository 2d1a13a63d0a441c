"""Traced peak memory of the scoring chain, so a reintroduced whole-matrix
copy fails.

The peak is tracemalloc's highest traced allocation during the call, less
what was allocated before it, over the bytes of the result (so the result
itself counts as 1), or of the input scores for betas.  Scores, moments
and simulated indicators are computed a block of ``linalg.ROW_BLOCK`` rows
at a time; at n = 10 blocks + 17 rows, one block's centred indicators are
about half the joint result, while a whole centred copy of x, or of the
stacked (x, y), is five times the result and a container copy of the
result adds one.  The simulator holds the factors (a fifth of x and y)
besides x and y, and betas hold one centred block of their input.
``ScoreMatrix.select`` of consecutive columns, such as the ξ block, is a
view that its container adopts.  A warm model keeps its weight matrices and short
vectors, and none of the p x p implied covariances or the stacked joint
loadings, which are rebuilt when needed.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from cpscores import (
    closed_form_regression_determinacy,
    cp_scores_from_params,
    cp_transform,
    determinacy_endo,
    determinacy_exo,
    orthogonal_scores,
    regression_scores,
    standardized_betas,
    validate_model,
)
from cpscores import linalg
from cpscores.model import combined_factor_corr
from cpscores.scores import joint_regression_scores
from cpscores.simulate import SimulationSpec, random_model, simulate_dataset

N_CASES = 10 * linalg.ROW_BLOCK + 17


@pytest.fixture(scope="module")
def traced():
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    yield
    if not was_tracing:
        tracemalloc.stop()


def traced_peak(fn, *args):
    """``fn(*args)`` and the bytes its call added at its traced peak."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - base


@pytest.fixture(scope="module")
def example_data(traced, model):
    spec = SimulationSpec(model, N_CASES, 3, emit_true_factors=False)
    (x, y, _), peak = traced_peak(simulate_dataset, spec)
    return x, y, peak


def test_simulate_peak_within_bound(example_data):
    x, y, peak = example_data
    assert peak / (x.values.nbytes + y.values.nbytes) <= 1.4


@pytest.mark.parametrize("family", ["joint", "exo", "orthogonal", "cp-params"])
def test_score_peak_within_twice_the_result(model, example_data, family):
    x, y, _ = example_data
    call = {
        "joint": (joint_regression_scores, model, x, y),
        "exo": (regression_scores, model.exo, x),
        "orthogonal": (orthogonal_scores, model, x),
        "cp-params": (cp_scores_from_params, model, x),
    }[family]
    scores, peak = traced_peak(*call)
    assert scores.n_cases == N_CASES
    assert peak / scores.values.nbytes <= 2.0


def test_select_peak_within_bound(model, example_data):
    x, y, _ = example_data
    joint = joint_regression_scores(model, x, y)
    xi, peak = traced_peak(joint.select, model.xi_labels)
    assert np.shares_memory(xi.values, joint.values)
    # the view and the container only: consecutive columns are not copied,
    # and the finiteness check allocates no n x k mask for finite values
    assert peak / xi.values.nbytes <= 0.01


def test_cp_transform_peak_within_bound(model, example_data):
    x, y, _ = example_data
    joint = joint_regression_scores(model, x, y)
    cp, peak = traced_peak(cp_transform, joint, combined_factor_corr(model))
    # the result, one row block of centred scores (ROW_BLOCK / N_CASES of
    # it) and the moments' accumulators; a finiteness mask adds 0.125
    assert peak / cp.values.nbytes <= 1.0 + linalg.ROW_BLOCK / N_CASES + 0.02


def test_betas_peak_within_bound(model, example_data):
    x, y, _ = example_data
    joint = joint_regression_scores(model, x, y)
    xi, eta = joint.select(model.xi_labels), joint.select(model.eta_labels)
    _, peak = traced_peak(standardized_betas, xi, eta)
    assert peak / (xi.values.nbytes + eta.values.nbytes) <= 0.5


def _fit(model, n_cases=200):
    """Validation, simulation, every score family, the transform,
    determinacy, betas and the closed form under one model."""
    validate_model(model)
    x, y, _ = simulate_dataset(SimulationSpec(model, n_cases, 1, False))
    joint = joint_regression_scores(model, x, y)
    cp = cp_transform(joint, combined_factor_corr(model))
    cp_scores_from_params(model, x)
    orthogonal_scores(model, x)
    xi, eta = cp.select(model.xi_labels), cp.select(model.eta_labels)
    determinacy_exo(xi, x, model)
    determinacy_endo(eta, y, model)
    standardized_betas(xi, eta)
    for block in ("exogenous", "endogenous"):
        closed_form_regression_determinacy(model, block)


def _kept_float_count(model):
    """Floats a warm model must keep: the regression weights of its three
    blocks, the orthogonal and parameter-route weights of the x block, the
    x and y score covariances, each block's uniqueness and the smallest and
    largest eigenvalue of its implied covariance, C and C^{1/2}, plus
    h * h floats of slack: the eta correlation is a view of C and keeps
    none of its own."""
    k, h, p, q = model.n_xi, model.n_eta, model.n_x, model.n_y
    return (3 * k * p + h * q + (k + h) * (p + q)
            + k * k + h * h
            + 2 * (p + q) + 3 * 2
            + 2 * (k + h) ** 2 + h * h)


# Bytes a warm model may retain beyond its kept floats: each kept array's
# object, the dicts that hold them, the blocks and the eta correlation's
# FactorCorr.  Measured at about 5.7 KB for the model below (numpy 2.4,
# CPython 3.11); keeping the stacked joint loadings adds 4.8 KB and the
# joint implied covariance 28.8 KB.
KEPT_OVERHEAD_BYTES = 7_500


def test_warm_model_keeps_weights_and_short_vectors_only(traced):
    rng = np.random.default_rng(11)
    _fit(random_model(rng, 6, 4, 6))  # numpy's own small caches warm up
    model = random_model(rng, 6, 4, 6)
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    _fit(model)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - base
    kept = 8 * _kept_float_count(model)
    assert kept <= retained <= kept + KEPT_OVERHEAD_BYTES
