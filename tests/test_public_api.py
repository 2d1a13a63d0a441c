import types

import cpscores

PUBLIC_NAMES = [
    "Block", "CpscoresError", "DataError", "DataMatrix", "FactorCorr",
    "ModelError", "NearSingularError", "ScoreMatrix", "SemModel",
    "SimulationSpec", "StructuralError", "cp_scores_from_params",
    "cp_transform", "example_model", "model_hash", "orthogonal_scores",
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


def test_determinacy_is_the_module_and_the_verb_lives_in_it():
    # ``from cpscores import determinacy`` must keep giving the submodule;
    # a package-level function of that name would shadow it
    assert isinstance(cpscores.determinacy, types.ModuleType)
    assert callable(cpscores.determinacy.determinacy)
