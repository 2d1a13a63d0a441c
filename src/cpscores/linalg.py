"""Numerical kernels: symmetric matrix powers and sample moments.

Conventions used throughout the package:

* sample moments come from :func:`moments` alone: columns are centred on
  their means, cross products divided by (n - 1), and a column whose
  sample sd is at most ``CONSTANT_RTOL`` times its largest absolute value
  is refused by label as constant.  The rule is scale-free and also
  catches a constant like 0.1, whose computed variance is about 1e-33;
* :func:`corr_from_cov` is the one covariance-to-correlation conversion;
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

# Relative sample sd at or below which a column counts as constant.  numpy
# sums a column mean row by row, so a constant column keeps an sd of about
# n * 1e-17 times its value after centring; 1e-8 covers ~10^8 rows and
# refuses only columns constant to eight significant digits.
CONSTANT_RTOL = 1e-8


def center_columns(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a - a.mean(axis=0)


def moments(a: np.ndarray, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """Centred columns of ``a`` and their sample covariance, divisor (n - 1).

    Raises DataError for fewer than 2 rows, or for a constant column (see
    ``CONSTANT_RTOL``), naming its label, or its index without ``labels``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n < 2:
        raise DataError(f"at least 2 cases required for sample moments, got {n}")
    centred = center_columns(a)
    cov = centred.T @ centred / (n - 1)
    largest = np.maximum(a.max(axis=0), -a.min(axis=0))
    constant = np.flatnonzero(np.sqrt(np.diag(cov)) <= CONSTANT_RTOL * largest)
    if constant.size:
        j = int(constant[0])
        name = j if labels is None else repr(labels[j])
        raise DataError(f"constant column {name}: zero sample variance")
    return centred, cov


def corr_from_cov(cov: np.ndarray) -> np.ndarray:
    """Correlation matrix of a covariance with a positive diagonal."""
    inv = 1.0 / np.sqrt(np.diag(cov))
    r = cov * np.outer(inv, inv)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def corr_from_data(a: np.ndarray) -> np.ndarray:
    """Sample correlation matrix of the columns of ``a``."""
    return corr_from_cov(moments(a)[1])


def sample_corr(scores: ScoreMatrix) -> FactorCorr:
    """Sample correlation of the score columns as a labeled FactorCorr."""
    n, k = scores.values.shape
    if n <= k:
        warnings.warn(
            f"sample correlation of {k} columns from only {n} cases is rank "
            "deficient or unstable",
            stacklevel=2,
        )
    cov = moments(scores.values, scores.labels)[1]
    return FactorCorr(scores.labels, corr_from_cov(cov))
