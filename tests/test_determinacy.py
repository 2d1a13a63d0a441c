import numpy as np
import pytest

from cpscores import (
    DataError,
    DataMatrix,
    NearSingularError,
    ScoreMatrix,
    SemModel,
    StructuralError,
    cp_transform,
    regression_scores,
)
from cpscores.determinacy import (
    NORMALIZER_VARIANCE,
    DeterminacyReport,
    closed_form_regression_determinacy,
    determinacy,
)
from cpscores.linalg import _sym_power
from cpscores.model import combined_factor_corr
from cpscores.simulate import SimulationSpec, random_model, simulate_dataset
from conftest import heywood_model


def simulate(model, n=10_000, seed=7):
    return simulate_dataset(SimulationSpec(model, n, seed))


class TestDeterminacyExo:
    def test_example_reference_values(self, model):
        x_data, y_data, _ = simulate(model, seed=0)
        reg = regression_scores(model.exo, x_data)
        plain = determinacy(model.exo, reg, x_data)
        assert plain.coefficients == pytest.approx([0.97, 0.97, 0.97], abs=0.02)
        proxy = regression_scores(model.joint, x_data, y_data)
        cp = cp_transform(proxy, combined_factor_corr(model))
        cp_rep = determinacy(model.exo, cp.select(model.xi_labels), x_data)
        assert cp_rep.coefficients == pytest.approx([0.97, 0.97, 0.97], abs=0.02)

    def test_matches_closed_form_oracle(self, model):
        x_data, _, _ = simulate(model, seed=5)
        reg = regression_scores(model.exo, x_data)
        observed = determinacy(model.exo, reg, x_data).coefficients
        oracle = closed_form_regression_determinacy(model, "exogenous").coefficients
        assert observed == pytest.approx(oracle, abs=0.02)

    def test_independent_scores_near_zero(self, model, rng):
        x_data, _, _ = simulate(model, seed=9)
        noise = ScoreMatrix(
            rng.standard_normal((x_data.n_cases, 3)), model.xi_labels
        )
        report = determinacy(model.exo, noise, x_data)
        assert np.max(np.abs(report.coefficients)) < 0.03

    def test_scale_invariance(self, model):
        x_data, _, _ = simulate(model, n=500, seed=1)
        reg = regression_scores(model.exo, x_data)
        base = determinacy(model.exo, reg, x_data).coefficients
        rescaled = ScoreMatrix(
            reg.values * np.array([5.0, 0.02, 17.0]), reg.labels, reg.provenance,
        )
        assert determinacy(model.exo, rescaled, x_data).coefficients == pytest.approx(
            base, abs=1e-10
        )

    def test_row_mismatch(self, model):
        x_data, _, _ = simulate(model, n=50, seed=1)
        scores = ScoreMatrix(np.zeros((49, 3)) + np.eye(49, 3), model.xi_labels)
        with pytest.raises(StructuralError, match="rows"):
            determinacy(model.exo, scores, x_data)

    def test_wrong_width_refused(self, model):
        x_data, y_data, _ = simulate(model, n=50, seed=1)
        reg = regression_scores(model.exo, x_data)
        with pytest.raises(StructuralError, match="10 columns, expected 50 x 15"):
            determinacy(model.exo, reg, y_data)

    def test_reversed_columns_refused(self, model):
        x_data, _, _ = simulate(model, n=50, seed=1)
        reg = regression_scores(model.exo, x_data)
        reversed_x = DataMatrix(x_data.values[:, ::-1], x_data.labels[::-1])
        with pytest.raises(StructuralError) as info:
            determinacy(model.exo, reg, reversed_x)
        assert str(info.value) == (
            "exogenous determinacy: indicator data column 1 is 'x15', "
            "the model's indicator 1 is 'x1'"
        )

    def test_constant_indicator_refused(self, model):
        # a constant indicator drops out of the cross moment: refused by
        # label instead of giving a wrong coefficient
        x_data, _, _ = simulate(model, n=2_000, seed=1)
        reg = regression_scores(model.exo, x_data)
        values = x_data.values.copy()
        values[:, 2] = 0.5
        with pytest.raises(DataError, match="constant column 'x3'"):
            determinacy(model.exo, reg, DataMatrix(values, x_data.labels))

    def test_constant_indicator_named_by_the_data_label(self, model):
        # the data matrix's own label, the column header of the user's file,
        # names the column, not the model's indicator label
        x_data, _, _ = simulate(model, n=2_000, seed=1)
        reg = regression_scores(model.exo, x_data)
        values = x_data.values.copy()
        values[:, 2] = 0.5
        labels = tuple("abcdefghijklmnopqrstuvwxyz"[:model.n_x])
        with pytest.raises(DataError, match="constant column 'c'"):
            determinacy(model.exo, reg, DataMatrix(values, labels))

    def test_zero_variance_rejected(self, model):
        x_data, _, _ = simulate(model, n=50, seed=1)
        scores = ScoreMatrix(np.ones((50, 3)), model.xi_labels)
        with pytest.raises(DataError, match="variance"):
            determinacy(model.exo, scores, x_data)


class TestDeterminacyEndo:
    def test_example_reference_values(self, model):
        x_data, y_data, _ = simulate(model, seed=0)
        reg = regression_scores(model.endo, y_data)
        plain = determinacy(model.endo, reg, y_data)
        # reference endogenous row (.97, .85); exact regression scores for a
        # factor with near-unit loadings sit at the top of the band
        assert plain.coefficients[0] == pytest.approx(0.97, abs=0.02)
        assert plain.coefficients[1] == pytest.approx(0.85, abs=0.02)
        proxy = regression_scores(model.joint, x_data, y_data)
        cp = cp_transform(proxy, combined_factor_corr(model))
        cp_rep = determinacy(model.endo, cp.select(model.eta_labels), y_data)
        assert cp_rep.coefficients[0] == pytest.approx(0.99, abs=0.02)
        assert cp_rep.coefficients[1] == pytest.approx(0.82, abs=0.02)

    def test_independent_scores_near_zero(self, model, rng):
        _, y_data, _ = simulate(model, seed=3)
        noise = ScoreMatrix(
            rng.standard_normal((y_data.n_cases, 2)), model.eta_labels
        )
        assert np.max(np.abs(
            determinacy(model.endo, noise, y_data).coefficients)) < 0.03

    def test_matches_closed_form_oracle(self, model):
        _, y_data, _ = simulate(model, seed=13)
        reg = regression_scores(model.endo, y_data)
        observed = determinacy(model.endo, reg, y_data).coefficients
        oracle = closed_form_regression_determinacy(model, "endogenous").coefficients
        assert observed == pytest.approx(oracle, abs=0.02)

    def test_variance_normalizer_variant(self, model):
        _, y_data, _ = simulate(model, n=2_000, seed=4)
        reg = regression_scores(model.endo, y_data)
        sd_report = determinacy(model.endo, reg, y_data)
        var_report = determinacy(
            model.endo, reg, y_data, normalizer=NORMALIZER_VARIANCE)
        assert var_report.variant == "endogenous-variance-normalized"
        # the variance variant divides by an extra factor of the sd
        sds = np.std(reg.values - reg.values.mean(0), axis=0, ddof=1)
        assert var_report.coefficients == pytest.approx(
            sd_report.coefficients / sds, abs=1e-10
        )


class TestClosedForm:
    def test_example_exogenous_row(self, model):
        report = closed_form_regression_determinacy(model, "exogenous")
        assert report.coefficients == pytest.approx([0.97, 0.97, 0.97], abs=0.005)
        assert report.variant == "closed-form"
        # oracle: sqrt of the diagonal of the score covariance
        assert report.coefficients == pytest.approx(
            np.sqrt(np.diag(model.exo.score_cov())), abs=1e-12
        )

    def test_single_indicator_equals_loading(self):
        lam = 0.63
        m = SemModel(
            lambda_x=np.array([[lam]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            eta_corr=np.eye(1),
        )
        report = closed_form_regression_determinacy(m, "exogenous")
        assert report.coefficients[0] == pytest.approx(lam, abs=1e-12)

    def test_perfect_indicators_approach_one(self):
        m = SemModel(
            lambda_x=np.array([[0.9999], [0.9999]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            eta_corr=np.eye(1),
        )
        report = closed_form_regression_determinacy(m, "exogenous")
        assert report.coefficients[0] > 0.9999

    def test_unknown_block(self, model):
        with pytest.raises(StructuralError):
            closed_form_regression_determinacy(model, "sideways")


class TestReportText:
    def test_coefficients_at_most_one_print_the_pairs_only(self):
        report = DeterminacyReport(("a", "b"), [0.9, 1.0], "file", 10, "exogenous")
        assert str(report) == "determinacy[exogenous; file]: a=0.900, b=1.000"

    def test_coefficients_above_one_flagged_unclipped(self):
        report = DeterminacyReport(("a", "b", "c"), [1.0004, 0.9, 1.2], "file", 10, "joint")
        assert str(report) == (
            "determinacy[joint; file]: a=1.000, b=0.900, c=1.200  (above 1: a, c)")

    def test_variance_normalized_not_flagged(self):
        # not correlations, so 1 bounds nothing
        report = DeterminacyReport(
            ("eta1",), [1.2], "file", 10, "endogenous-variance-normalized")
        assert str(report) == (
            "determinacy[endogenous-variance-normalized; file]: eta1=1.200")


@pytest.mark.parametrize("seed", [7001, 7002, 7003, 7004])
def test_heywood_edge_sample_near_closed_form(model, seed):
    # x1's uniqueness 1e-6 puts xi1's closed form at 1.000, and sampling
    # error can carry exact regression scores' estimate above it
    m = heywood_model(model)
    x_data, _, _ = simulate(m, n=20_000, seed=seed)
    report = determinacy(m.exo, regression_scores(m.exo, x_data), x_data)
    closed = closed_form_regression_determinacy(m, "exogenous").coefficients
    assert np.max(np.abs(report.coefficients - closed)) <= 0.03


@pytest.mark.parametrize("normalizer", ["Variance", "SD", "", None])
def test_unknown_normalizer_refused(model, normalizer):
    x_data, _, _ = simulate(model, n=200, seed=4)
    reg = regression_scores(model.exo, x_data)
    with pytest.raises(StructuralError, match="expected 'sd' or 'variance'"):
        determinacy(model.exo, reg, x_data, normalizer=normalizer)


# Refusals of score columns that are not the block's factors in its
# order, with the whole message
SCORE_ORDER_REFUSALS = [
    ("reversed-xi", "exo", ("xi3", "xi2", "xi1"),
     "scores are ordered ('xi3', 'xi2', 'xi1'), expected ('xi1', 'xi2', 'xi3')"),
    ("swapped-eta", "endo", ("eta2", "eta1"),
     "scores are ordered ('eta2', 'eta1'), expected ('eta1', 'eta2')"),
    ("other-block", "endo", ("xi1", "xi2"),
     "scores are ordered ('xi1', 'xi2'), expected ('eta1', 'eta2')"),
]


@pytest.mark.parametrize("block, labels, message", [
    pytest.param(*row, id=name) for name, *row in SCORE_ORDER_REFUSALS])
def test_score_order_refusal(model, block, labels, message):
    x_data, y_data, _ = simulate(model, n=50, seed=3)
    data = x_data if block == "exo" else y_data
    scores = ScoreMatrix(np.arange(50.0 * len(labels)).reshape(50, -1), labels)
    with pytest.raises(StructuralError) as info:
        determinacy(getattr(model, block), scores, data)
    assert str(info.value) == message


def test_singular_implied_covariance_raises_package_error(rng):
    # two indicators with unit loadings on one factor: sigma is exactly singular
    m = SemModel(
        lambda_x=np.array([[1.0], [1.0]]),
        phi=np.eye(1),
        lambda_y=np.array([[1.0], [1.0]]),
        gamma=np.array([[0.2]]),
        eta_corr=np.eye(1),
    )
    data = DataMatrix(rng.standard_normal((20, 2)), ("v1", "v2"))
    xi = ScoreMatrix(rng.standard_normal((20, 1)), m.xi_labels)
    eta = ScoreMatrix(rng.standard_normal((20, 1)), m.eta_labels)
    with pytest.raises(NearSingularError, match="exogenous"):
        determinacy(m.exo, xi, data)
    with pytest.raises(NearSingularError, match="endogenous"):
        determinacy(m.endo, eta, data)
    for block in ("exogenous", "endogenous"):
        with pytest.raises(NearSingularError, match=block):
            closed_form_regression_determinacy(m, block)


def test_regression_determinacy_converges_across_random_models(rng):
    for seed in range(5):
        m = random_model(rng)
        x_data, _, _ = simulate(m, n=10_000, seed=seed)
        reg = regression_scores(m.exo, x_data)
        observed = determinacy(m.exo, reg, x_data).coefficients
        oracle = closed_form_regression_determinacy(m, "exogenous").coefficients
        assert observed == pytest.approx(oracle, abs=0.02)


def test_joint_block_matches_closed_form_and_true_factors(rng):
    # the estimator on two data matrices: joint regression scores and
    # their correlation-preserving transform against the (x, y) block
    for seed in range(3):
        m = random_model(rng)
        x_data, y_data, factors = simulate_dataset(
            SimulationSpec(m, 200_000, seed, emit_true_factors=True)
        )
        reg = regression_scores(m.joint, x_data, y_data)
        cp = cp_transform(reg, combined_factor_corr(m))
        k = len(m.factor_labels)
        for scores in (reg, cp):
            observed = determinacy(m.joint, scores, x_data, y_data).coefficients
            r = np.corrcoef(scores.values, factors.values, rowvar=False)
            assert observed == pytest.approx(np.diag(r[:k, k:]), abs=0.01)
            if scores is reg:
                oracle = np.sqrt(np.diag(m.joint.score_cov()))
                assert observed == pytest.approx(oracle, abs=0.01)


def test_cp_determinacy_not_above_regression_at_population(rng):
    # population-level: the regression score maximizes determinacy, so the
    # correlation-preserving weights cannot beat it (weight-matrix algebra)
    for _ in range(5):
        m = random_model(rng)
        sigma = m.exo.sigma()
        w_reg = m.exo.weights()
        a = m.exo.score_cov()
        d_inv = np.diag(1.0 / np.sqrt(np.diag(a)))
        r = d_inv @ a @ d_inv
        w_cp = _sym_power(m.phi.values, 0.5) @ _sym_power(r, -0.5) @ d_inv @ w_reg
        # determinacy of a weight matrix w: corr(w x, factor)
        cross = w_cp @ m.lambda_x @ m.phi.values
        var = np.diag(w_cp @ sigma @ w_cp.T)
        det_cp = np.diag(cross) / np.sqrt(var)
        det_reg = np.sqrt(np.diag(a))
        assert np.all(det_cp <= det_reg + 1e-9)


def test_data_count_refused(model):
    x_data, y_data, _ = simulate(model, n=50, seed=1)
    joint = regression_scores(model.joint, x_data, y_data)
    with pytest.raises(StructuralError) as info:
        determinacy(model.joint, joint, x_data)
    assert str(info.value) == (
        "joint determinacy: 1 indicator data matrix, the joint block takes "
        "2 (x, y)"
    )
    xi = joint.select(model.xi_labels)
    with pytest.raises(StructuralError) as info:
        determinacy(model.exo, xi, x_data, y_data)
    assert str(info.value) == (
        "exogenous determinacy: 2 indicator data matrices, the exogenous "
        "block takes 1 (x)"
    )


def test_benchmark_shims_equal_the_block_calls(rng):
    # the benchmark times the shims by name; they must run the same code
    # as the block calls, bit for bit
    from cpscores.determinacy import determinacy_endo, determinacy_exo
    from cpscores.scores import joint_regression_scores

    for seed in range(3):
        m = random_model(rng)
        x_data, y_data, _ = simulate(m, n=500, seed=seed)
        joint = regression_scores(m.joint, x_data, y_data)
        assert np.array_equal(
            joint_regression_scores(m, x_data, y_data).values, joint.values)
        cp = cp_transform(joint, m.joint.corr)
        xi, eta = cp.select(m.xi_labels), cp.select(m.eta_labels)
        for shim, block, scores, data in (
            (determinacy_exo, m.exo, xi, x_data),
            (determinacy_endo, m.endo, eta, y_data),
        ):
            want = determinacy(block, scores, data)
            got = shim(scores, data, m)
            assert np.array_equal(got.coefficients, want.coefficients)
            assert got.variant == want.variant == block.name
