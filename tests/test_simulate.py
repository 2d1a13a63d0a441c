import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from cpscores import (
    DataError,
    SemModel,
    run_example,
    simulate_dataset,
)
from cpscores.model import combined_factor_corr
from cpscores.simulate import (
    REFERENCE_CP_DETERMINACY,
    REFERENCE_PLAIN_DETERMINACY,
    SimulationSpec,
    random_correlation,
    random_model,
)


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

    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, "3", None, True])
    def test_seed_not_a_non_negative_integer_rejected(self, model, seed):
        want = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(DataError, match=re.escape(want)):
            SimulationSpec(model, 10, seed)

    @pytest.mark.parametrize("n_cases", [1, 0, -3, 3.0, "5", None, True])
    def test_n_cases_not_an_integer_of_at_least_2_rejected(self, model, n_cases):
        want = f"n_cases must be an integer of at least 2, got {n_cases!r}"
        with pytest.raises(DataError, match=re.escape(want)):
            SimulationSpec(model, n_cases, 0)

    def test_numpy_integer_n_cases_accepted(self, model):
        a = simulate_dataset(SimulationSpec(model, np.int64(10), 4))
        b = simulate_dataset(SimulationSpec(model, 10, 4))
        assert np.array_equal(a[0].values, b[0].values)

    def test_numpy_integer_seed_accepted(self, model):
        a = simulate_dataset(SimulationSpec(model, 10, np.int64(4)))
        b = simulate_dataset(SimulationSpec(model, 10, 4))
        assert np.array_equal(a[0].values, b[0].values)


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
        paths, plain, cp = report.betas
        betas = cp.values.copy()
        betas[0, 1], betas[1, 0] = -1e-16, -0.0004
        rows = (paths, plain, dataclasses.replace(cp, values=betas))
        text = dataclasses.replace(report, betas=rows).render()
        cp_panel = text.split("correlation-preserving scores:\n")[1]
        assert cp_panel.splitlines()[:2] == [
            f"     {betas[0, 0]:.3f}   0.000",
            f"     0.000   {betas[1, 1]:.3f}",
        ]
        assert "-0.000" not in text

    def test_cp_betas_match_paths_exactly(self):
        report = run_example(n_cases=2_000, seed=17)
        paths, _, cp = report.betas
        assert np.max(np.abs(cp.values - paths.values)) < 1e-9

    def test_rows_carry_labels_and_references(self, model):
        report = run_example(n_cases=2_000)
        assert [row.name for row in report.betas] == [
            "model paths", "plain scores (posterior-mean proxy, all indicators)",
            "correlation-preserving scores"]
        for row in report.betas:
            assert row.labels == (model.xi_labels, model.eta_labels)
            assert row.values.shape == (len(model.xi_labels), len(model.eta_labels))
            assert row.reference is None
        np.testing.assert_array_equal(report.betas[0].values, model.gamma.T)
        plain, cp = report.determinacies
        assert (plain.reference, cp.reference) == (
            REFERENCE_PLAIN_DETERMINACY, REFERENCE_CP_DETERMINACY)
        for row in report.determinacies:
            assert row.labels == (model.factor_labels,)
            assert row.values.shape == (len(model.factor_labels),)
        assert [name for name, _, _ in report.checks] == [
            "cp betas match model paths",
            "plain beta bias direction (xi1->eta1)",
            "plain beta bias direction (xi3->eta2)",
            "plain determinacies match reference",
            "cp determinacies match reference",
            "parameter-route cp scores reproduce phi"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_render_keeps_the_committed_bytes(self, seed):
        # verify's stdout, with the one value that is BLAS rounding noise
        # masked (test_cp_betas_match_paths_exactly bounds it)
        path = Path(__file__).parent / "data" / f"verify-seed{seed}.txt"
        noise = re.compile(r"(max \|beta - path\| = )\d\.\d\de-1[4-6]")
        expected = noise.sub(r"\1<noise>", path.read_text())
        text = noise.sub(r"\1<noise>", run_example(seed=seed).render() + "\n")
        assert text.count("<noise>") == 1
        assert text == expected

    def test_bias_direction_across_seeds(self):
        # the plain-score inflation should appear for at least 2 of 3 seeds
        hits = 0
        for seed in (0, 1, 2):
            paths, plain, _ = run_example(seed=seed).betas
            if plain.values[2, 1] > paths.values[2, 1]:
                hits += 1
        assert hits >= 2
