"""Standardized OLS path coefficients between score matrices.

Betas are solved from the correlation-matrix normal equations
``R_xx^{-1} R_xy`` on centered, unit-variance columns (divisor n - 1), with
no intercept; this is the standardized-beta estimand directly.
"""

from __future__ import annotations

import numpy as np

from .containers import ScoreMatrix, pd_violation
from .errors import NearSingularError, StructuralError
from .linalg import corr_from_cov, moments

def betas_from_corr(r_xx: np.ndarray, r_xy: np.ndarray) -> np.ndarray:
    """Solve the normal equations on correlation matrices.

    ``r_xx`` is the predictor correlation matrix, ``r_xy`` the matrix of
    predictor-outcome correlations (one column per outcome).
    """
    msg = pd_violation(np.linalg.eigvalsh(r_xx), "collinear predictors: correlation")
    if msg:
        raise NearSingularError(msg)
    return np.linalg.solve(r_xx, r_xy)


def standardized_betas(predictors: ScoreMatrix, outcomes: ScoreMatrix) -> np.ndarray:
    """Standardized regression coefficients, one column per outcome."""
    if predictors.n_cases != outcomes.n_cases:
        raise StructuralError(
            f"predictors have {predictors.n_cases} rows, "
            f"outcomes have {outcomes.n_cases}"
        )
    k = predictors.n_factors
    labels = predictors.labels + outcomes.labels
    _, cov = moments(np.hstack([predictors.values, outcomes.values]), labels)
    r = corr_from_cov(cov)
    return betas_from_corr(r[:k, :k], r[:k, k:])
