"""Traced peak memory of the scoring chain, so a reintroduced whole-matrix
copy fails.

The peak is tracemalloc's highest traced allocation during the call, less
what was allocated before it, over the bytes of the result (so the result
itself counts as 1), or of the input scores for betas.  Scores, moments
and simulated indicators are computed a block of ``linalg.ROW_BLOCK`` rows
at a time; at n = 10 blocks + 17 rows, one block's centred indicators are
about half the joint result, while a whole centred copy of x, or of the
stacked (x, y), is five times the result and a container copy of the
result adds one.  The simulator holds one block of ``SIM_BLOCK`` factor
rows per thread besides x and y.  The score families, the transform and
betas share their blocks over the same threads, each thread centring into
a buffer of its own; every peak is also taken with two threads on any
machine.  Betas hold one centred block of their input per thread.
``ScoreMatrix.select`` of consecutive columns, such as the ξ block, is a
view that its container adopts.  A warm model keeps its weight matrices and short
vectors, and none of the p x p implied covariances or the stacked joint
loadings, which are rebuilt when needed.
"""

import gc
import os
import threading
import tracemalloc

import numpy as np
import pytest

from cpscores import (
    cp_scores_from_params,
    cp_transform,
    orthogonal_scores,
    regression_scores,
    standardized_betas,
    validate_model,
)
from cpscores.determinacy import closed_form_regression_determinacy, determinacy
from cpscores import linalg
from cpscores.io import read_labeled_csv, write_matrix_csv
from cpscores.model import combined_factor_corr
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


@pytest.fixture(params=["machine", "two-threads"])
def cpus(request, monkeypatch):
    """The CPUs of this machine, or the thread cap, reached whatever the
    CPUs."""
    if request.param == "two-threads":
        monkeypatch.setattr(linalg, "_cpus", lambda: 16)


def check_simulate_peak(x, y, peak):
    assert peak / (x.values.nbytes + y.values.nbytes) <= 1.4


def test_simulate_peak_within_bound(example_data):
    check_simulate_peak(*example_data)


def test_simulate_peak_within_bound_on_two_threads(traced, model, monkeypatch):
    # the thread cap, reached whatever the CPUs
    monkeypatch.setattr(linalg, "_cpus", lambda: 16)
    spec = SimulationSpec(model, N_CASES, 3, emit_true_factors=False)
    (x, y, _), peak = traced_peak(simulate_dataset, spec)
    check_simulate_peak(x, y, peak)


@pytest.mark.parametrize("family", ["joint", "exo", "orthogonal", "cp-params"])
def test_score_peak_within_twice_the_result(model, example_data, cpus, family):
    x, y, _ = example_data
    call = {
        "joint": (regression_scores, model.joint, x, y),
        "exo": (regression_scores, model.exo, x),
        "orthogonal": (orthogonal_scores, model, x),
        "cp-params": (cp_scores_from_params, model, x),
    }[family]
    scores, peak = traced_peak(*call)
    assert scores.n_cases == N_CASES
    assert peak / scores.values.nbytes <= 2.0


def test_select_peak_within_bound(model, example_data):
    x, y, _ = example_data
    joint = regression_scores(model.joint, x, y)
    xi, peak = traced_peak(joint.select, model.xi_labels)
    assert np.shares_memory(xi.values, joint.values)
    # the view and the container only: consecutive columns are not copied,
    # and the finiteness check allocates no n x k mask for finite values
    assert peak / xi.values.nbytes <= 0.01


def test_cp_transform_peak_within_bound(model, example_data, cpus):
    x, y, _ = example_data
    joint = regression_scores(model.joint, x, y)
    cp, peak = traced_peak(cp_transform, joint, combined_factor_corr(model))
    # the result, one row block of centred scores (ROW_BLOCK / N_CASES of
    # it) in all, the moments' accumulators, and one ufunc buffer per
    # thread; a finiteness mask adds 0.125
    assert peak / cp.values.nbytes <= 1.0 + linalg.ROW_BLOCK / N_CASES + 0.02


def test_betas_peak_within_bound(model, example_data, cpus):
    x, y, _ = example_data
    joint = regression_scores(model.joint, x, y)
    xi, eta = joint.select(model.xi_labels), joint.select(model.eta_labels)
    _, peak = traced_peak(standardized_betas, xi, eta)
    assert peak / (xi.values.nbytes + eta.values.nbytes) <= 0.5


def _fit(model, n_cases=200):
    """Validation, simulation, every score family, the transform,
    determinacy, betas and the closed form under one model."""
    validate_model(model)
    x, y, _ = simulate_dataset(SimulationSpec(model, n_cases, 1, False))
    joint = regression_scores(model.joint, x, y)
    cp = cp_transform(joint, combined_factor_corr(model))
    cp_scores_from_params(model, x)
    orthogonal_scores(model, x)
    xi, eta = cp.select(model.xi_labels), cp.select(model.eta_labels)
    determinacy(model.exo, xi, x)
    determinacy(model.endo, eta, y)
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


# The CSV writer's traced peak: one chunk of _WRITE_CHUNK_CELLS cells in
# flight, whose arrays take at most 28 bytes a cell (the slot, the digits,
# the masks) or 8 (the 128-bit arithmetic's uint64 arrays), with the
# chunk's text; measured at about 0.31 MB (numpy 2.4, CPython 3.11).
WRITE_PEAK_BYTES = 450_000


def test_csv_write_peak_does_not_grow_with_rows(traced):
    rng = np.random.default_rng(12)
    labels = tuple(f"x{j}" for j in range(25))
    # the tables, and whatever numpy keeps after a first full chunk
    write_matrix_csv(os.devnull, labels, rng.standard_normal((200, 25)))
    peaks = []
    for rows in (20_000, 200_000):
        values = rng.standard_normal((rows, 25))
        _, peak = traced_peak(write_matrix_csv, os.devnull, labels, values)
        peaks.append(peak)
    # a copy of the values would make the two peaks differ by 36 MB
    assert max(peaks) <= WRITE_PEAK_BYTES
    assert abs(peaks[1] - peaks[0]) <= 16_384


def test_piped_csv_read_peak_is_a_file_read_peak(traced, tmp_path):
    # a pipe is copied to a temporary file, not into memory: a copy in
    # memory would add the CSV's 6 MB of text to the 2.4 MB result
    rng = np.random.default_rng(13)
    path = tmp_path / "x.csv"
    write_matrix_csv(path, tuple(f"x{j}" for j in range(15)),
                     rng.standard_normal((20_000, 15)))
    (_, from_file), file_peak = traced_peak(
        read_labeled_csv, os.open(path, os.O_RDONLY))
    text = path.read_bytes()  # before the trace starts
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(text)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    (_, from_pipe), pipe_peak = traced_peak(read_labeled_csv, read_end)
    feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert from_pipe.tobytes() == from_file.tobytes()
    assert pipe_peak <= 1.05 * file_peak
