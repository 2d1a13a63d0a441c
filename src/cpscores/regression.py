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


def standardized_betas(predictors: ScoreMatrix, outcomes: ScoreMatrix) -> np.ndarray:
    """Standardized regression coefficients, one column per outcome."""
    if predictors.n_cases != outcomes.n_cases:
        raise StructuralError(
            f"predictors have {predictors.n_cases} rows, "
            f"outcomes have {outcomes.n_cases}"
        )
    k = predictors.n_factors
    r = corr_from_cov(moments([predictors, outcomes]))
    r_xx, r_xy = r[:k, :k], r[:k, k:]
    msg = pd_violation(np.linalg.eigvalsh(r_xx), "collinear predictors: correlation")
    if msg:
        raise NearSingularError(msg)
    return np.linalg.solve(r_xx, r_xy)
