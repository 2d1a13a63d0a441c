"""Correlation-preserving factor scores for structural equation models.

Transforms factor-score estimates (mean plausible values or regression
scores) so their inter-correlations and standardized path coefficients
match the estimated model exactly, and computes determinacy coefficients
for both score families.
"""

from .containers import DataMatrix, FactorCorr, ScoreMatrix
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
from .model import Block, SemModel, validate_model
from .regression import standardized_betas
from .scores import (
    cp_scores_from_params,
    cp_transform,
    orthogonal_scores,
    regression_scores,
)
from .simulate import (
    SimulationSpec,
    example_model,
    random_model,
    run_example,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Block", "CpscoresError", "DataError", "DataMatrix", "FactorCorr",
    "ModelError", "NearSingularError", "ScoreMatrix", "SemModel",
    "SimulationSpec", "StructuralError", "cp_scores_from_params",
    "cp_transform", "example_model", "model_hash", "orthogonal_scores",
    "parse_model_file", "random_model", "read_data_csv", "read_scores_csv",
    "regression_scores", "run_example", "simulate_dataset",
    "standardized_betas", "validate_model", "write_scores_csv",
]
