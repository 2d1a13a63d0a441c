import cpscores

PUBLIC_NAMES = [
    "Block", "CpscoresError", "DataError", "DataMatrix", "FactorCorr",
    "ModelError", "NearSingularError", "ScoreMatrix", "SemModel",
    "SimulationSpec", "StructuralError",
    "closed_form_regression_determinacy", "cp_scores_from_orthogonal",
    "cp_scores_from_params", "cp_transform", "determinacy_endo",
    "determinacy_exo", "example_model", "model_hash", "orthogonal_scores",
    "parse_model_file", "random_model", "read_data_csv", "read_scores_csv",
    "regression_scores", "run_example", "simulate_dataset",
    "standardized_betas", "validate_model", "write_scores_csv",
]


def test_public_names_are_pinned():
    assert sorted(cpscores.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(cpscores.__all__)) == len(cpscores.__all__)


def test_every_public_name_resolves():
    for name in cpscores.__all__:
        assert getattr(cpscores, name) is not None, name
