"""Numerical kernels: symmetric matrix powers and sample moments.

Conventions used throughout the package:

* sample moments divide by (n - 1) and are computed on mean-centered data;
* symmetric matrix functions go through a full eigendecomposition, so only
  spectral functions of the input are ever exposed;
* eigenvalues at or below ``PD_RTOL * max_eigenvalue`` make a matrix count
  as singular (:func:`cpscores.containers.pd_violation`).
"""

from __future__ import annotations

import warnings

import numpy as np

from .containers import FactorCorr, ScoreMatrix, pd_violation
from .errors import DataError, NearSingularError, StructuralError


def _sym_power(s, power, tol):
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {s.shape}")
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.T)) > tol * scale:
        raise StructuralError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(s)
    msg = pd_violation(w, "matrix")
    if msg:
        raise NearSingularError(msg)
    return (v * w**power) @ v.T


def sym_sqrt(s: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric square root: V diag(w)^{1/2} V' for s = V diag(w) V'."""
    return _sym_power(s, 0.5, tol)


def sym_inv_sqrt(s: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric inverse square root: V diag(w)^{-1/2} V'."""
    return _sym_power(s, -0.5, tol)


# ---------------------------------------------------------------------------
# column-wise sample moments

def center_columns(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a - a.mean(axis=0)


def column_variances(a: np.ndarray) -> np.ndarray:
    """Sample variances with divisor (n - 1)."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] < 2:
        raise DataError("at least 2 cases required for sample variances")
    c = center_columns(a)
    return np.einsum("ij,ij->j", c, c) / (a.shape[0] - 1)


def corr_from_data(a: np.ndarray) -> np.ndarray:
    """Sample correlation matrix, divisor (n - 1), on centered columns."""
    c = center_columns(a)
    n = c.shape[0]
    if n < 2:
        raise DataError("at least 2 cases required for a sample correlation")
    s = c.T @ c / (n - 1)
    d = np.sqrt(np.diag(s))
    if np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise DataError(f"zero variance in column {bad}")
    r = s / np.outer(d, d)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


# ---------------------------------------------------------------------------
# score-matrix level operations

def mean_center(scores: ScoreMatrix) -> ScoreMatrix:
    """Shift each factor column to mean zero (no rescaling)."""
    if scores.n_cases < 2:
        raise DataError("mean centering needs at least 2 cases")
    return scores.replace_values(center_columns(scores.values))


def row_standardize(scores: ScoreMatrix) -> ScoreMatrix:
    """Scale each factor column to unit sample variance (divisor n - 1)."""
    var = column_variances(scores.values)
    if np.any(var <= 0.0):
        bad = scores.labels[int(np.argmin(var))]
        raise DataError(f"zero variance in score column {bad!r}")
    return scores.replace_values(scores.values / np.sqrt(var))


def sample_corr(scores: ScoreMatrix) -> FactorCorr:
    """Sample correlation of the score columns as a labeled FactorCorr."""
    n, k = scores.values.shape
    if n <= k:
        warnings.warn(
            f"sample correlation of {k} columns from only {n} cases is rank "
            "deficient or unstable",
            stacklevel=2,
        )
    for j, lb in enumerate(scores.labels):
        col = scores.values[:, j]
        if np.ptp(col) == 0.0:
            raise DataError(f"constant score column {lb!r}")
    return FactorCorr(scores.labels, corr_from_data(scores.values))
