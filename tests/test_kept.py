"""Derived matrices are computed once per model and kept frozen: a warm
model gives bit for bit what a cold one does, a new model starts cold, and
threads racing on a cold model see one kept value."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from cpscores import (
    SemModel,
    closed_form_regression_determinacy,
    cp_scores_from_orthogonal,
    cp_scores_from_params,
    cp_transform,
    determinacy_endo,
    determinacy_exo,
    orthogonal_scores,
    regression_scores,
    standardized_betas,
    validate_model,
)
from cpscores.linalg import corr_from_cov
from cpscores.model import combined_factor_corr
from cpscores.scores import joint_regression_scores
from cpscores.simulate import SimulationSpec, random_model, simulate_dataset

BLOCKS = ("exo", "endo", "joint")


def fit(model, x, y):
    """Every model-derived output, as a flat dict of arrays and strings."""
    out = {"validation": str(validate_model(model))}
    for name in BLOCKS:
        block = getattr(model, name)
        for method in ("uniqueness", "sigma_eigenvalue_range", "weights",
                       "score_cov", "orthogonal_weights"):
            out[f"{name}.{method}"] = getattr(block, method)()
    out["exo.cp_weights"] = model.exo.cp_weights()
    joint = joint_regression_scores(model, x, y)
    cp = cp_transform(joint, combined_factor_corr(model))
    out.update({
        "c": combined_factor_corr(model).values,
        "joint": joint.values,
        "cp": cp.values,
        "exo": regression_scores(model.exo, x).values,
        "endo": regression_scores(model.endo, y).values,
        "cp-params": cp_scores_from_params(model, x).values,
        "orthogonal": orthogonal_scores(model, x).values,
        "cp-orthogonal": cp_scores_from_orthogonal(model.exo, x).values,
        "score_corr": corr_from_cov(model.endo.score_cov()),
        "det-exo": determinacy_exo(cp.select(model.xi_labels), x, model).coefficients,
        "det-endo": determinacy_endo(
            cp.select(model.eta_labels), y, model).coefficients,
    })
    for block in ("exogenous", "endogenous"):
        out[f"closed-{block}"] = closed_form_regression_determinacy(
            model, block).coefficients
    return out


def assert_same(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], str):
            assert a[key] == b[key], key
        else:
            assert np.array_equal(a[key], b[key]), key


def draw(seed, n_cases=60):
    """Two separately built, equal models and data drawn from the first."""
    models = [random_model(np.random.default_rng(seed), 3, 2, 4) for _ in "ab"]
    x, y, _ = simulate_dataset(SimulationSpec(models[0], n_cases, seed, False))
    return models, x, y


def kept_values(model):
    """Everything ``model`` and its blocks keep."""
    owners = (model,) + tuple(getattr(model, name) for name in BLOCKS)
    return [v for owner in owners for v in owner._derived.values()]


def test_kept_arrays_are_read_only():
    (model, _), x, y = draw(1)
    fit(model, x, y)
    arrays = [v for v in kept_values(model) if isinstance(v, np.ndarray)]
    arrays += [model.exo.corr.values, model.endo.corr.values,
               model.joint.corr.values]
    arrays += [combined_factor_corr(model).values]
    assert len(arrays) >= 17
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


@pytest.mark.parametrize("seed", range(8))
def test_warm_and_cold_models_agree_bit_for_bit(seed):
    (warm, cold), x, y = draw(seed)
    fit(warm, x, y)
    assert kept_values(warm)
    assert not cold._derived
    assert_same(fit(warm, x, y), fit(cold, x, y))


def test_blocks_and_weights_are_kept():
    (model, _), x, _ = draw(2)
    assert model.exo is model.exo
    assert model.joint is model.joint
    assert combined_factor_corr(model) is combined_factor_corr(model)
    assert model.exo.weights() is model.exo.weights()
    assert model.exo.orthogonal_weights() is model.exo.orthogonal_weights()
    first = cp_scores_from_params(model, x)
    assert np.array_equal(first.values, cp_scores_from_params(model, x).values)


def test_replaced_model_starts_cold():
    (model, _), x, y = draw(3)
    fit(model, x, y)
    # halve the paths and move the explained variance into psi, so every
    # implied factor variance stays 1
    gamma = model.gamma * 0.5
    explained = model.gamma @ model.phi.values @ model.gamma.T
    psi = model.psi + explained - gamma @ model.phi.values @ gamma.T
    replaced = dataclasses.replace(model, gamma=gamma, psi=psi)
    assert not replaced._derived
    fresh = SemModel(
        lambda_x=model.lambda_x, phi=model.phi, lambda_y=model.lambda_y,
        gamma=gamma, psi=psi,
    )
    assert_same(fit(replaced, x, y), fit(fresh, x, y))
    assert not np.array_equal(
        replaced.joint.weights(), model.joint.weights())
    assert not np.array_equal(
        combined_factor_corr(replaced).values, combined_factor_corr(model).values)


def test_threads_on_a_cold_model_see_one_kept_value():
    # more threads than cores, switching as often as the interpreter can,
    # so they race on every value the cold model computes and keeps
    (model, reference), x, y = draw(4, n_cases=500)
    expected = fit(reference, x, y)
    barrier = threading.Barrier(4)
    results, weights, errors = [None] * 4, [None] * 4, []

    def work(i):
        try:
            barrier.wait()
            weights[i] = model.joint.weights()
            results[i] = fit(model, x, y)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len({id(w) for w in weights}) == 1
    for result in results:
        assert_same(result, expected)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.eigh``."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def replication(model, seed):
    """One fit of a replication study: validation, a fresh draw and the
    whole score chain on it."""
    validate_model(model)
    x, y, _ = simulate_dataset(SimulationSpec(model, 100, seed, False))
    cp = cp_transform(joint_regression_scores(model, x, y),
                      combined_factor_corr(model))
    cp_scores_from_params(model, x)
    orthogonal_scores(model, x)
    xi, eta = cp.select(model.xi_labels), cp.select(model.eta_labels)
    determinacy_exo(xi, x, model)
    determinacy_endo(eta, y, model)
    standardized_betas(xi, eta)
    for block in ("exogenous", "endogenous"):
        closed_form_regression_determinacy(model, block)


def test_warm_replication_takes_one_eigendecomposition(eigh_calls):
    (model, _), _, _ = draw(5)
    replication(model, 1)
    eigh_calls.clear()
    replication(model, 2)
    # the inverse root of the sample score correlation; the root of C is
    # kept by the model's FactorCorr
    assert eigh_calls == [(5, 5)]


def test_warm_cp_scores_from_orthogonal_takes_no_eigendecomposition(eigh_calls):
    (model, _), x, _ = draw(6)
    cp_scores_from_params(model, x)
    eigh_calls.clear()
    # the root of phi is the one the parameter route took, kept by phi;
    # only L' sigma^{-1} L of the x block is new
    first = cp_scores_from_orthogonal(model.exo, x)
    assert eigh_calls == [(3, 3)]
    eigh_calls.clear()
    again = cp_scores_from_orthogonal(model.exo, x)
    assert eigh_calls == []
    assert np.array_equal(first.values, again.values)
