"""Acceptance suite: end-to-end checks of the package's core guarantees.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see
them on success) and then asserts, so a red test and a FAIL line always
coincide.
"""

import time

import numpy as np
import pytest

from cpscores import (
    FactorCorr,
    ScoreMatrix,
    SimulationSpec,
    closed_form_regression_determinacy,
    cp_scores_from_params,
    cp_transform,
    determinacy_exo,
    example_model,
    orthogonal_scores,
    regression_scores,
    run_example,
    simulate_dataset,
    standardized_betas,
)
from cpscores.linalg import _sym_power
from cpscores.model import combined_factor_corr
from cpscores.simulate import random_correlation, random_model


def report(number, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_correlation_preservation():
    """The transform makes the sample correlation equal the target exactly."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        target = FactorCorr(
            tuple(f"f{i + 1}" for i in range(k)), random_correlation(rng, k)
        )
        p = ScoreMatrix(rng.standard_normal((50, k)), target.labels, "raw")
        out = cp_transform(p, target)
        worst = max(worst, float(np.max(np.abs(
            np.corrcoef(out.values, rowvar=False) - target.values))))
    report(1, "correlation preservation", worst < 1e-10,
           f"max |sample corr - target| = {worst:.2e} over 100 random cases "
           "(tol 1e-10)")


def test_criterion_2_population_path_recovery():
    """Betas from the population moments of the preserved scores equal the
    structural paths of the bundled example."""
    model = example_model()
    c = combined_factor_corr(model).values
    k = model.n_xi
    betas = np.linalg.solve(c[:k, :k], c[:k, k:])
    dev = float(np.max(np.abs(betas - model.gamma.T)))
    expected_eta1 = np.array([0.270, 0.000, 0.016])
    expected_eta2 = np.array([0.000, 0.037, 0.447])
    col_dev = max(
        float(np.max(np.abs(betas[:, 0] - expected_eta1))),
        float(np.max(np.abs(betas[:, 1] - expected_eta2))),
    )
    report(2, "population path recovery", dev < 1e-9 and col_dev < 1e-9,
           f"max |beta - path| = {dev:.2e}, vs published columns {col_dev:.2e} "
           "(tol 1e-9)")


def test_criterion_3_sampled_verification_runs():
    """verify-style runs at three seeds: preserved-score betas stay within
    0.02 of the paths on every run; plain-score bias keeps its direction on
    at least two of three."""
    beta_ok = []
    bias_ok = []
    slowest = 0.0
    for seed in (0, 1, 2):
        start = time.perf_counter()
        rep = run_example(seed=seed)
        slowest = max(slowest, time.perf_counter() - start)
        beta_ok.append(float(np.max(np.abs(rep.cp_betas - rep.gamma_by_xi))) <= 0.02)
        bias_ok.append(rep.plain_betas[2, 1] > rep.gamma_by_xi[2, 1])
    passed = all(beta_ok) and sum(bias_ok) >= 2 and slowest < 10.0
    report(3, "sampled verification runs", passed,
           f"preserved betas in band {sum(beta_ok)}/3, bias direction "
           f"{sum(bias_ok)}/3 (need >= 2), slowest run {slowest:.1f}s "
           "(limit 10s)")


def test_criterion_4_determinacy_reference_values():
    """The default verification run reproduces the published determinacy
    rows for both score families within 0.02."""
    rep = run_example()
    plain_dev = float(np.max(np.abs(
        rep.plain_determinacy - np.array([0.97, 0.97, 0.97, 0.97, 0.85]))))
    cp_dev = float(np.max(np.abs(
        rep.cp_determinacy - np.array([0.97, 0.97, 0.97, 0.99, 0.82]))))
    report(4, "determinacy reference values",
           plain_dev <= 0.02 and cp_dev <= 0.02,
           f"max deviation plain {plain_dev:.3f}, preserved {cp_dev:.3f} "
           "(tol 0.02)")


def test_criterion_5_orthogonal_score_covariance():
    """Orthogonal scores have identity covariance: exactly in population
    weight algebra, within 0.03 in a 10,000-case sample."""
    model = example_model()
    sigma = model.exo.sigma()
    sigma_inv_l = np.linalg.solve(sigma, model.lambda_x)
    m = model.lambda_x.T @ sigma_inv_l
    w = _sym_power((m + m.T) / 2.0, -0.5) @ sigma_inv_l.T
    pop_dev = float(np.max(np.abs(w @ sigma @ w.T - np.eye(model.n_xi))))

    x_data, _, _ = simulate_dataset(
        SimulationSpec(model, 10_000, 42, emit_true_factors=False))
    scores = orthogonal_scores(model, x_data)
    cov = np.cov(scores.values, rowvar=False, ddof=1)
    samp_dev = float(np.max(np.abs(cov - np.eye(model.n_xi))))
    report(5, "orthogonal score covariance",
           pop_dev < 1e-9 and samp_dev <= 0.03,
           f"population deviation {pop_dev:.2e} (tol 1e-9), sampled "
           f"{samp_dev:.3f} (tol 0.03)")


def eigh_power(s, power):
    w, v = np.linalg.eigh(s)
    return (v * w**power) @ v.T


def test_criterion_6_substitution_identity():
    """Transforming exact regression scores with their model-implied moments
    equals building the preserved scores directly from the parameters.  The
    multiplier phi^{1/2} R^{-1/2} diag(A)^{-1/2}, with A the model-implied
    score covariance and R its correlation, is built here with
    ``np.linalg.eigh`` alone."""
    rng = np.random.default_rng(1006)
    models = [example_model()] + [
        random_model(rng, n_xi=int(rng.integers(2, 5))) for _ in range(10)
    ]
    worst = 0.0
    for model in models:
        x_data, _, _ = simulate_dataset(
            SimulationSpec(model, 200, int(rng.integers(10_000)),
                           emit_true_factors=False))
        reg = regression_scores(model.exo, x_data)
        a = model.exo.score_cov()
        d = 1.0 / np.sqrt(np.diag(a))
        multiplier = (eigh_power(model.phi.values, 0.5)
                      @ eigh_power(a * np.outer(d, d), -0.5) @ np.diag(d))
        centred = reg.values - reg.values.mean(axis=0)
        via_transform = centred @ multiplier.T
        via_params = cp_scores_from_params(model, x_data)
        worst = max(worst, float(np.max(np.abs(
            via_transform - via_params.values))))
    report(6, "substitution identity", worst < 1e-9,
           f"max |transform - parameter route| = {worst:.2e} over "
           f"{len(models)} models (tol 1e-9)")


def test_criterion_7_determinacy_estimator_matches_closed_form():
    """The sample determinacy estimator on exact regression scores agrees
    with the closed-form value at n=10,000."""
    rng = np.random.default_rng(1007)
    worst = 0.0
    for i in range(10):
        model = random_model(rng, n_xi=int(rng.integers(2, 5)))
        x_data, _, _ = simulate_dataset(
            SimulationSpec(model, 10_000, 2000 + i, emit_true_factors=False))
        scores = regression_scores(model.exo, x_data)
        estimated = determinacy_exo(scores, x_data, model).coefficients
        closed = closed_form_regression_determinacy(model, "exogenous").coefficients
        worst = max(worst, float(np.max(np.abs(estimated - closed))))
    report(7, "determinacy estimator vs closed form", worst <= 0.02,
           f"max deviation {worst:.3f} over 10 random models (tol 0.02)")


def test_criterion_8_scale_invariance_properties():
    """Column rescaling leaves the transform, standardized betas, and
    determinacies unchanged; the symmetric square root reconstructs its
    argument."""
    rng = np.random.default_rng(1008)
    model = example_model()
    x_data, _, _ = simulate_dataset(
        SimulationSpec(model, 500, 8, emit_true_factors=False))
    scores = regression_scores(model.exo, x_data)
    scales = rng.uniform(0.2, 5.0, size=model.n_xi)
    rescaled = scores.replace_values(scores.values * scales)

    cp_dev = float(np.max(np.abs(
        cp_transform(scores, model.phi).values
        - cp_transform(rescaled, model.phi).values)))

    reg_eta = ScoreMatrix(
        rng.standard_normal((500, model.n_eta)), model.eta_labels, "raw"
    )
    beta_dev = float(np.max(np.abs(
        standardized_betas(scores, reg_eta)
        - standardized_betas(rescaled, reg_eta))))

    det_dev = float(np.max(np.abs(
        determinacy_exo(scores, x_data, model).coefficients
        - determinacy_exo(rescaled, x_data, model).coefficients)))

    sqrt_dev = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 8))
        b = rng.standard_normal((k, k + 3))
        s = b @ b.T + 0.1 * np.eye(k)
        root = _sym_power(s, 0.5)
        sqrt_dev = max(sqrt_dev, float(np.max(np.abs(root @ root - s))))

    passed = (cp_dev < 1e-10 and beta_dev < 1e-10 and det_dev < 1e-10
              and sqrt_dev < 1e-9)
    report(8, "scale invariance and square-root properties", passed,
           f"transform {cp_dev:.2e}, betas {beta_dev:.2e}, determinacy "
           f"{det_dev:.2e} (tol 1e-10); sqrt reconstruction {sqrt_dev:.2e} "
           "(tol 1e-9)")
