import dataclasses

import numpy as np
import pytest

from cpscores import (
    DataError,
    SemModel,
    run_example,
    simulate_dataset,
)
from cpscores.model import combined_factor_corr
from cpscores.simulate import SimulationSpec, random_correlation, random_model


class TestSimulateDataset:
    def test_factor_corr_recovered(self, model):
        _, _, factors = simulate_dataset(SimulationSpec(model, 10_000, 11))
        c = combined_factor_corr(model).values
        assert np.max(np.abs(np.corrcoef(factors.values, rowvar=False) - c)) < 0.03

    def test_indicator_corr_recovered(self, model):
        x_data, _, _ = simulate_dataset(SimulationSpec(model, 10_000, 11))
        sigma = model.exo.sigma()
        assert np.max(np.abs(
            np.corrcoef(x_data.values, rowvar=False) - sigma)) < 0.03

    def test_zero_uniqueness_limit(self):
        # loadings of 1 on a single factor: x reproduces the factor exactly
        m = SemModel(
            lambda_x=np.array([[1.0], [1.0]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            eta_corr=np.eye(1),
        )
        x_data, _, factors = simulate_dataset(SimulationSpec(m, 100, 5))
        xi = factors.values[:, 0]
        assert x_data.values[:, 0] == pytest.approx(xi, abs=1e-12)
        assert x_data.values[:, 1] == pytest.approx(xi, abs=1e-12)

    def test_seed_reproducibility(self, model):
        a = simulate_dataset(SimulationSpec(model, 200, 99))
        b = simulate_dataset(SimulationSpec(model, 200, 99))
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)
        assert np.array_equal(a[2].values, b[2].values)

    def test_column_means_near_zero(self, model):
        x_data, y_data, _ = simulate_dataset(SimulationSpec(model, 10_000, 21))
        bound = 4.0 / np.sqrt(10_000)
        assert np.max(np.abs(x_data.values.mean(axis=0))) < bound
        assert np.max(np.abs(y_data.values.mean(axis=0))) < bound

    def test_doubling_n_shrinks_corr_error(self, model):
        c = combined_factor_corr(model).values
        worse = 0
        for seed in (1, 2, 3):
            devs = []
            for n in (2_500, 5_000, 10_000):
                _, _, factors = simulate_dataset(SimulationSpec(model, n, seed))
                devs.append(np.max(np.abs(np.corrcoef(factors.values, rowvar=False) - c)))
            if not devs[0] >= devs[-1]:
                worse += 1
        # monotone in expectation; allow one unlucky seed
        assert worse <= 1

    def test_too_few_cases_rejected(self, model):
        with pytest.raises(DataError):
            SimulationSpec(model, 1, 0)


class TestRandomModels:
    def test_random_correlation_is_valid(self, rng):
        for k in (2, 3, 5):
            r = random_correlation(rng, k)
            assert np.allclose(np.diag(r), 1.0)
            assert np.linalg.eigvalsh(r)[0] > 0

    def test_random_models_are_valid(self, rng):
        from cpscores import validate_model

        for _ in range(25):
            m = random_model(rng, n_xi=rng.integers(2, 5), n_eta=2)
            report = validate_model(m)
            assert report.ok, str(report)


class TestRunExample:
    def test_default_seed_passes(self):
        report = run_example()
        assert report.ok, report.render()

    def test_report_carries_provenance_fields(self):
        report = run_example(n_cases=2_000)
        assert report.seed == 0
        assert "PCG64" in report.rng
        assert len(report.model_hash) == 12
        text = report.render()
        assert "model hash" in text and "seed" in text

    def test_value_rounding_to_zero_prints_unsigned(self):
        # the CP beta of a zero path lands on either side of 0 by rounding
        report = run_example(n_cases=2_000)
        betas = report.cp_betas.copy()
        betas[0, 1], betas[1, 0] = -1e-16, -0.0004
        text = dataclasses.replace(report, cp_betas=betas).render()
        cp_panel = text.split("correlation-preserving scores:\n")[1]
        assert cp_panel.splitlines()[:2] == [
            f"     {betas[0, 0]:.3f}   0.000",
            f"     0.000   {betas[1, 1]:.3f}",
        ]
        assert "-0.000" not in text

    def test_cp_betas_match_paths_exactly(self):
        report = run_example(n_cases=2_000, seed=17)
        assert np.max(np.abs(report.cp_betas - report.gamma_by_xi)) < 1e-9

    def test_bias_direction_across_seeds(self):
        # the plain-score inflation should appear for at least 2 of 3 seeds
        hits = 0
        for seed in (0, 1, 2):
            report = run_example(seed=seed)
            if report.plain_betas[2, 1] > report.gamma_by_xi[2, 1]:
                hits += 1
        assert hits >= 2
