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
``ScoreMatrix.select`` gathers its columns in one copy, which its
container adopts.
"""

import tracemalloc

import pytest

from cpscores import (
    combined_factor_corr,
    cp_scores_from_params,
    cp_transform,
    joint_regression_scores,
    orthogonal_scores,
    regression_scores,
    standardized_betas,
)
from cpscores import linalg
from cpscores.simulate import SimulationSpec, simulate_dataset

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
    assert xi.values.flags.f_contiguous
    # the gathered copy only: the container's finiteness check allocates
    # no n x k mask (1/8 of the float64 cells) for finite values
    assert peak / xi.values.nbytes <= 1.05


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
