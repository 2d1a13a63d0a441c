import re

import numpy as np
import pytest

from cpscores import (
    Block,
    DataError,
    FactorCorr,
    ModelError,
    NearSingularError,
    SemModel,
    SimulationSpec,
    StructuralError,
    cp_transform,
    random_model,
    regression_scores,
    simulate_dataset,
    validate_model,
)
from cpscores.model import combined_factor_corr


def test_example_model_accepted(model):
    report = validate_model(model)
    assert report.ok, str(report)


def test_example_model_dimensions(model):
    assert (model.n_x, model.n_xi, model.n_y, model.n_eta) == (15, 3, 10, 2)
    assert model.factor_labels == ("xi1", "xi2", "xi3", "eta1", "eta2")


def test_validation_refuses_what_combined_corr_refuses(model):
    # a residual variance 5e-7 too large leaves the implied variance of
    # eta1 off 1 by more than the unit-diagonal tolerance
    psi = model.psi.copy()
    psi[0, 0] += 5e-7
    m = SemModel(
        lambda_x=model.lambda_x, phi=model.phi, lambda_y=model.lambda_y,
        gamma=model.gamma, psi=psi, xi_labels=model.xi_labels,
        eta_labels=model.eta_labels,
    )
    expected = (
        "combined factor correlation has diagonal 1.0000005000 for eta1, "
        "expected 1 (the model is not completely standardized)"
    )
    assert validate_model(m).violations == (expected,)
    with pytest.raises(ModelError) as info:
        combined_factor_corr(m)
    assert str(info.value) == expected


# smallest eigenvalue in pd_violation's format
NOT_PD = (r"combined factor correlation not positive definite "
          r"\(smallest eigenvalue (-?\d\.\d{3}e[+-]\d{2})\)")


def psi_indefinite_model():
    """One xi with paths 0.9 to two uncorrelated etas: phi and the implied
    eta correlation (the identity) are positive definite, but psi has the
    eigenvalue 0.19 - 0.81 = -0.62 and C the eigenvalue 1 - 0.9 sqrt(2)."""
    return SemModel(
        lambda_x=np.array([[0.7], [0.6], [0.8]]),
        phi=np.eye(1),
        lambda_y=np.array([[0.7, 0.0], [0.6, 0.0], [0.0, 0.7], [0.0, 0.6]]),
        gamma=np.array([[0.9], [0.9]]),
        eta_corr=np.eye(2),
    )


def test_validation_refuses_indefinite_psi():
    m = psi_indefinite_model()
    assert np.linalg.eigvalsh(m.psi)[0] == pytest.approx(-0.62)
    report = validate_model(m)
    assert len(report.violations) == 1
    smallest = re.fullmatch(NOT_PD, report.violations[0]).group(1)
    assert float(smallest) == pytest.approx(1 - 0.9 * np.sqrt(2), abs=1e-3)
    with pytest.raises(ModelError) as info:
        combined_factor_corr(m)
    assert str(info.value) == report.violations[0]


def test_non_pd_phi_rejected():
    phi = np.array([[1.0, 1.5], [1.5, 1.0]])
    m = SemModel(
        lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
        phi=phi,
        lambda_y=np.array([[0.6]]),
        gamma=np.array([[0.2, 0.2]]),
        eta_corr=np.eye(1),
    )
    report = validate_model(m)
    assert not report.ok
    assert any("not positive definite" in v for v in report.violations)


def test_gamma_dimension_mismatch_is_structural():
    with pytest.raises(StructuralError):
        SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.2, 0.2]]),  # 3 columns vs 2 xi factors
            eta_corr=np.eye(1),
        )


def test_missing_psi_and_eta_corr_rejected():
    with pytest.raises(StructuralError):
        SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
        )


def test_inconsistent_psi_and_eta_corr_rejected():
    with pytest.raises(StructuralError, match="inconsistent"):
        SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            psi=np.array([[0.5]]),
            eta_corr=np.eye(1),
        )


class TestImpliedCovX:
    def test_example_entries(self, model):
        sigma = model.exo.sigma()
        assert sigma.shape == (15, 15)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)
        # oracle: entry (x1, x2) from the loading rows directly
        row1 = np.array([0.750, 0.066, 0.025])
        row2 = np.array([0.845, 0.049, 0.002])
        assert sigma[0, 1] == pytest.approx(row1 @ model.phi.values @ row2, abs=1e-12)

    def test_single_loading_absorbed_in_diagonal(self):
        m = SemModel(
            lambda_x=np.array([[0.8]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2]]),
            eta_corr=np.eye(1),
        )
        assert m.exo.sigma() == pytest.approx(np.array([[1.0]]))

    def test_zero_loadings_give_identity(self):
        m = SemModel(
            lambda_x=np.zeros((4, 2)),
            phi=np.eye(2),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.0, 0.0]]),
            eta_corr=np.eye(1),
        )
        assert m.exo.sigma() == pytest.approx(np.eye(4))

    def test_negative_uniqueness_names_indicator(self):
        m = SemModel(
            lambda_x=np.array([[0.9, 0.9], [0.5, 0.0]]),
            phi=np.array([[1.0, 0.5], [0.5, 1.0]]),
            lambda_y=np.array([[0.6]]),
            gamma=np.array([[0.2, 0.0]]),
            eta_corr=np.eye(1),
        )
        with pytest.raises(ModelError, match="x1"):
            m.exo.sigma()


class TestImpliedCovY:
    def test_example(self, model):
        sigma = model.endo.sigma()
        assert sigma.shape == (10, 10)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)
        # oracle: entry (y3, y6) across the two endogenous factors
        row3 = np.array([0.999, -0.041])
        row6 = np.array([-0.038, 0.534])
        eta_cov = np.array([[1.0, 0.513], [0.513, 1.0]])
        assert sigma[2, 5] == pytest.approx(row3 @ eta_cov @ row6, abs=1e-12)

    def test_identity_loadings(self):
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.eye(2) * 0.9,
            gamma=np.array([[0.0], [0.0]]),
            eta_corr=np.eye(2),
        )
        sigma = m.endo.sigma()
        assert sigma == pytest.approx(np.eye(2))

    def test_unit_loadings_give_unit_offdiagonal(self):
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[1.0], [1.0]]),
            gamma=np.array([[0.0]]),
            eta_corr=np.eye(1),
        )
        assert m.endo.sigma()[0, 1] == pytest.approx(1.0)


class TestPsiFromEtaCorr:
    def test_example_values(self, model):
        psi = model.psi
        # frozen from the direct arithmetic eta_corr - gamma phi gamma'
        assert psi[0, 0] == pytest.approx(0.9245112, abs=1e-7)
        assert psi[0, 1] == pytest.approx(0.4703226, abs=1e-7)
        assert psi[1, 1] == pytest.approx(0.7881047, abs=1e-7)

    def test_round_trip(self, model):
        psi = model.psi
        implied = model.gamma @ model.phi.values @ model.gamma.T + psi
        assert implied == pytest.approx(model.eta_corr.values, abs=1e-12)

    def test_zero_gamma_returns_eta_corr(self):
        eta_corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.zeros((2, 1)),
            eta_corr=eta_corr,
        )
        assert m.psi == pytest.approx(eta_corr)

    def test_saturated_gamma_gives_zero_psi(self):
        gamma = np.array([[1.0]])
        m = SemModel(
            lambda_x=np.array([[0.7]]),
            phi=np.eye(1),
            lambda_y=np.array([[0.6]]),
            gamma=gamma,
            eta_corr=np.eye(1),
        )
        assert m.psi == pytest.approx(np.zeros((1, 1)), abs=1e-12)


class TestCombinedFactorCorr:
    def test_example_blocks(self, model):
        c = combined_factor_corr(model)
        assert c.labels == model.factor_labels
        assert c.values[:3, :3] == pytest.approx(model.phi.values)
        assert c.values[3, 4] == pytest.approx(0.513)
        # cross block oracle: gamma phi computed directly
        cross = model.gamma @ model.phi.values
        assert c.values[3:, :3] == pytest.approx(cross, abs=1e-12)
        assert np.allclose(c.values, c.values.T, atol=1e-12)
        assert np.allclose(np.diag(c.values), 1.0, atol=1e-12)

    def test_block_diagonal_when_gamma_zero(self):
        phi = np.array([[1.0, 0.4], [0.4, 1.0]])
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=phi,
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.zeros((2, 2)),
            eta_corr=np.eye(2),
        )
        c = combined_factor_corr(m)
        expected = np.block([
            [phi, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]
        ])
        assert c.values == pytest.approx(expected)

    def test_rank_deficient_combined_rejected(self):
        # eta duplicates xi exactly: combined matrix is singular
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.eye(2),
            psi=np.zeros((2, 2)),
        )
        with pytest.raises(ModelError) as info:
            combined_factor_corr(m)
        smallest = re.fullmatch(NOT_PD, str(info.value)).group(1)
        assert abs(float(smallest)) < 1e-12
        assert validate_model(m).violations == (str(info.value),)


class TestBlockCorr:
    """Each block's factor correlation is the model's one FactorCorr."""

    def test_blocks_hold_the_model_correlations(self, model):
        c = combined_factor_corr(model)
        assert model.exo.corr is model.phi
        assert model.joint.corr is c
        eta = model.endo.corr
        assert eta.labels == model.eta_labels
        assert eta.values.base is c.values
        assert np.array_equal(eta.values, c.values[3:, 3:])
        assert np.array_equal(np.diag(eta.values), np.ones(2))
        for block in (model.exo, model.endo, model.joint):
            assert block.factor_labels is block.corr.labels

    def test_array_corr_refused(self, model):
        with pytest.raises(StructuralError, match=(
            "^exogenous block: corr must be a FactorCorr, got ndarray$")):
            Block("exogenous", (model.lambda_x,), model.phi.values,
                  model.x_labels)

    @pytest.mark.parametrize("name", ["exogenous", "joint"])
    def test_corr_order_must_match_loading_columns(self, model, name):
        block = getattr(model, "exo" if name == "exogenous" else "joint")
        two = FactorCorr(("a", "b"), np.eye(2))
        cols = 3 if name == "exogenous" else 5
        with pytest.raises(StructuralError, match=(
                f"^{name} block: factor correlation of order 2, loadings "
                f"have {cols} columns$")):
            Block(name, block.loading_blocks, two, block.indicator_labels)

    @pytest.mark.parametrize("name", ["exogenous", "joint"])
    def test_one_indicator_label_per_loading_row(self, model, name):
        block = getattr(model, "exo" if name == "exogenous" else "joint")
        rows = len(block.indicator_labels)
        with pytest.raises(StructuralError, match=(
                f"^{name} block: 3 indicator labels, loadings have {rows} rows$")):
            Block(name, block.loading_blocks, block.corr,
                  block.indicator_labels[:3])

    def test_endo_block_needs_a_usable_combined_corr(self):
        # gamma = I and psi = 0: C is singular
        m = SemModel(
            lambda_x=np.array([[0.7, 0.0], [0.0, 0.7]]),
            phi=np.eye(2),
            lambda_y=np.array([[0.6, 0.0], [0.0, 0.6]]),
            gamma=np.eye(2),
            psi=np.zeros((2, 2)),
        )
        with pytest.raises(ModelError, match="^combined factor correlation"):
            m.endo
        assert m.exo.sigma_violation() is None


def test_combined_corr_valid_for_random_models(rng):
    for _ in range(20):
        m = __import__("cpscores").random_model(rng)
        c = combined_factor_corr(m)
        assert np.max(np.abs(c.values - c.values.T)) < 1e-12
        assert np.max(np.abs(np.diag(c.values) - 1.0)) < 1e-12


def test_factor_corr_rejects_asymmetry():
    with pytest.raises(StructuralError):
        FactorCorr(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestConditioning:
    """The block solve refuses a near-singular implied covariance from the
    eigenvalues the block keeps, and validation reports the same text."""

    @staticmethod
    def heywood_model(uniqueness, n_y=2, loading_y=0.7):
        # two x indicators that are the factor but for a uniqueness near
        # 0: sigma_x is near-singular along their difference
        h = np.sqrt(1.0 - uniqueness)
        return SemModel(
            lambda_x=np.array([[h], [h], [0.7]]),
            phi=np.eye(1),
            lambda_y=np.full((n_y, 1), loading_y),
            gamma=np.array([[0.8]]),
            psi=np.array([[0.36]]),
        )

    def test_heywood_edge_refused_naming_block_and_eigenvalue(self):
        m = self.heywood_model(1e-12)
        assert m.exo.uniqueness()[:2] == pytest.approx([1e-12] * 2, rel=1e-3)
        smallest = m.exo.sigma_eigenvalue_range()[0]
        assert 0.0 < smallest < 2e-12
        expected = (
            "implied covariance of the exogenous indicators not positive "
            f"definite (smallest eigenvalue {smallest:.3e})"
        )
        for call in (m.exo.sigma_inv_loadings, m.exo.weights,
                     m.exo.orthogonal_weights, m.exo.cp_weights):
            with pytest.raises(NearSingularError) as info:
                call()
            assert str(info.value) == expected
        assert validate_model(m).violations == (expected,)
        with pytest.raises(NearSingularError, match="joint indicators"):
            m.joint.weights()
        # the y block is untouched
        assert np.all(np.isfinite(m.endo.weights()))

    def test_joint_block_checked_on_its_own(self):
        # sigma_x's smallest eigenvalue is 1.5e-10 of its largest, which
        # passes; twenty strong y indicators make sigma_z's largest about
        # 18, and about the same smallest eigenvalue is then 2.2e-11 of
        # it, below PD_RTOL (1e-10)
        m = self.heywood_model(4e-10, n_y=20, loading_y=0.9)
        assert m.exo.sigma_violation() is None
        assert m.endo.sigma_violation() is None
        msg = m.joint.sigma_violation()
        assert msg.startswith(
            "implied covariance of the joint indicators not positive definite")
        assert validate_model(m).violations == (msg,)
        with pytest.raises(NearSingularError) as info:
            m.joint.weights()
        assert str(info.value) == msg

    def test_well_conditioned_ranges(self, model):
        for block in (model.exo, model.endo, model.joint):
            low, high = block.sigma_eigenvalue_range()
            w = np.linalg.eigvalsh(block.sigma())
            assert (low, high) == (w[0], w[-1])
            assert block.sigma_violation() is None


class TestIdentity:
    """Models, blocks and correlations hold arrays, so they compare and
    hash by identity."""

    def test_equal_draws_compare_unequal_without_raising(self):
        a, b = (random_model(np.random.default_rng(1)) for _ in "ab")
        assert a != b
        assert a == a
        assert a.exo != b.exo
        assert a.phi != b.phi
        assert combined_factor_corr(a) != combined_factor_corr(b)

    def test_model_is_a_dict_key(self):
        a, b = (random_model(np.random.default_rng(1)) for _ in "ab")
        fits = {a: "a", b: "b", a.exo: "a.exo", a.phi: "a.phi"}
        assert [fits[a], fits[b], fits[a.exo], fits[a.phi]] == [
            "a", "b", "a.exo", "a.phi"]


class TestLabels:
    """Every label tuple of a model is checked against its matrix, and a
    FactorCorr must carry the labels of its block."""

    @staticmethod
    def build(model, **changes):
        fields = dict(lambda_x=model.lambda_x, phi=model.phi.values,
                      lambda_y=model.lambda_y, gamma=model.gamma,
                      psi=model.psi)
        fields.update(changes)
        return SemModel(**fields)

    @pytest.mark.parametrize("name, labels, count", [
        ("x_labels", ("a",), 15), ("y_labels", ("a", "b"), 10),
        ("xi_labels", ("a", "b"), 3), ("eta_labels", ("e",), 2),
    ])
    def test_label_count_names_the_field(self, model, name, labels, count):
        with pytest.raises(StructuralError,
                           match=f"^{name}: {len(labels)} labels for {count} "):
            self.build(model, **{name: labels})

    def test_duplicate_indicator_label_refused(self, model):
        labels = ("x1",) * 2 + model.x_labels[2:]
        with pytest.raises(DataError, match="x_labels: duplicate label 'x1'"):
            self.build(model, x_labels=labels)

    def test_factor_labels_unique_across_blocks(self, model):
        with pytest.raises(DataError, match="duplicate label 'f'"):
            self.build(model, xi_labels=("f", "g", "h"), eta_labels=("e", "f"))
        with pytest.raises(DataError, match="duplicate label 'xi1'"):
            self.build(model, eta_labels=("xi1", "e"))

    def test_factor_corr_must_carry_the_block_labels(self, model):
        phi = FactorCorr(("a", "b", "c"), model.phi.values)
        with pytest.raises(StructuralError, match=r"phi is labelled \('a', 'b', 'c'\)"):
            self.build(model, phi=phi)
        eta_corr = FactorCorr(("b", "a"), model.endo.corr.values)
        with pytest.raises(StructuralError, match="eta_corr is labelled"):
            self.build(model, psi=None, eta_corr=eta_corr)

    def test_labelled_factor_corr_with_matching_labels_scores(self, model):
        labels = ("a", "b", "c")
        m = self.build(model, phi=FactorCorr(labels, model.phi.values),
                       xi_labels=labels)
        assert m.phi.labels == m.xi_labels == labels
        x, _, _ = simulate_dataset(SimulationSpec(m, 50, 0, False))
        cp = cp_transform(regression_scores(m.exo, x), m.phi)
        assert cp.labels == labels

    def test_given_labels_are_kept(self, model):
        m = self.build(model, x_labels=[f"item{i}" for i in range(15)])
        assert m.x_labels == tuple(f"item{i}" for i in range(15))
