"""Correlation-preserving factor scores for structural equation models.

Transforms factor-score estimates (mean plausible values or regression
scores) so their inter-correlations and standardized path coefficients
match the estimated model exactly, and computes determinacy coefficients
for both score families.
"""

from .containers import DataMatrix, FactorCorr, ScoreMatrix
from .determinacy import (
    DeterminacyReport,
    closed_form_regression_determinacy,
    determinacy_endo,
    determinacy_exo,
)
from .errors import (
    CpscoresError,
    DataError,
    ModelError,
    NearSingularError,
    StructuralError,
)
from .io import (
    model_hash,
    parse_model_file,
    read_data_csv,
    read_scores_csv,
    write_scores_csv,
)
from .linalg import sample_corr, sym_inv_sqrt, sym_sqrt
from .model import (
    Block,
    SemModel,
    ValidationReport,
    combined_factor_corr,
    validate_model,
)
from .regression import betas_from_corr, standardized_betas
from .scores import (
    cp_scores_from_orthogonal,
    cp_scores_from_params,
    cp_transform,
    joint_regression_scores,
    orthogonal_scores,
    regression_scores,
    score_corr,
)
from .simulate import (
    ExampleReport,
    SimulationSpec,
    example_model,
    random_model,
    run_example,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Block", "CpscoresError", "DataError", "DataMatrix", "DeterminacyReport",
    "ExampleReport", "FactorCorr", "ModelError", "NearSingularError",
    "ScoreMatrix", "SemModel", "SimulationSpec", "StructuralError",
    "ValidationReport",
    "betas_from_corr", "closed_form_regression_determinacy",
    "combined_factor_corr", "cp_scores_from_orthogonal",
    "cp_scores_from_params", "cp_transform",
    "determinacy_endo", "determinacy_exo", "example_model",
    "joint_regression_scores", "model_hash",
    "orthogonal_scores", "parse_model_file",
    "random_model", "read_data_csv", "read_scores_csv",
    "regression_scores", "run_example", "sample_corr",
    "score_corr", "simulate_dataset", "standardized_betas", "sym_inv_sqrt",
    "sym_sqrt", "validate_model", "write_scores_csv",
]
