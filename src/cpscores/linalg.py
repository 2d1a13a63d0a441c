"""Numerical kernels: symmetric matrix powers and sample moments.

Conventions used throughout the package:

* sample moments come from :func:`moments` alone: columns are centred on
  their means, cross products divided by (n - 1), and a column whose
  sample sd is at most ``CONSTANT_RTOL`` times its largest absolute value
  is refused by label as constant.  The rule is scale-free and also
  catches a constant like 0.1, whose computed variance is about 1e-33;
* :func:`corr_from_cov` is the one covariance-to-correlation conversion;
* products with centred data, ``hstack(a - mean(a)) @ w.T`` and the
  determinacy cross moment, go a block of ``ROW_BLOCK`` rows at a time
  through :func:`centred_blocks`, so no whole centred or stacked copy of
  the data is made; each centred value is the one a whole-matrix
  ``a - a.mean(axis=0)`` gives;
* symmetric matrix functions go through a full eigendecomposition, so only
  spectral functions of the input are ever exposed, and refuse an input
  asymmetric beyond ``SYMMETRY_RTOL``;
* eigenvalues at or below ``PD_RTOL * max_eigenvalue`` make a matrix count
  as singular (:func:`cpscores.containers.pd_violation`).
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .containers import FactorCorr, ScoreMatrix, pd_violation
from .errors import DataError, NearSingularError, StructuralError


# Asymmetry, relative to max(1, max |s|), accepted by the symmetric powers.
SYMMETRY_RTOL = 1e-10


def _sym_power(s, power):
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {s.shape}")
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.T)) > SYMMETRY_RTOL * scale:
        raise StructuralError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(s)
    msg = pd_violation(w, "matrix")
    if msg:
        raise NearSingularError(msg)
    return (v * w**power) @ v.T


def sym_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric square root: V diag(w)^{1/2} V' for s = V diag(w) V'."""
    return _sym_power(s, 0.5)


def sym_inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root: V diag(w)^{-1/2} V'."""
    return _sym_power(s, -0.5)


# ---------------------------------------------------------------------------
# products with centred data

# Rows centred per block by centred_blocks: bounds its buffer to a few MB
# for tens of indicators while keeping the per-block overhead negligible.
ROW_BLOCK = 8192


def centred_blocks(arrays):
    """Yield ``(rows, z)`` for consecutive row slices of the same-length
    2-d ``arrays``: ``z`` is ``hstack([a[rows] - a.mean(axis=0) ...])``.

    The blocks have near-equal sizes of at most ``ROW_BLOCK`` rows, so no
    block is a lone row unless the arrays have one row: numpy multiplies a
    single row through another BLAS routine, whose sums can differ in the
    last bit from those of the whole product.  ``z`` is one reused buffer,
    overwritten by the next block; use it before advancing the iterator.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    n = arrays[0].shape[0]
    count = max(1, -(-n // ROW_BLOCK))
    bounds = [n * i // count for i in range(count + 1)]
    means = [a.mean(axis=0) for a in arrays]
    cols = list(itertools.accumulate((a.shape[1] for a in arrays), initial=0))
    buf = np.empty((-(-n // count), cols[-1]))
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        z = buf[: stop - start]
        for a, m, lo, hi in zip(arrays, means, cols, cols[1:]):
            np.subtract(a[rows], m, out=z[:, lo:hi])
        yield rows, z


def centred_product(arrays, w: np.ndarray) -> np.ndarray:
    """``hstack([a - a.mean(axis=0) for a in arrays]) @ w.T``, written into
    a preallocated result a row block at a time; the result is frozen."""
    w_t = np.asarray(w, dtype=float).T
    out = np.empty((len(arrays[0]), w_t.shape[1]))
    for rows, z in centred_blocks(arrays):
        np.matmul(z, w_t, out=out[rows])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# column-wise sample moments

# Relative sample sd at or below which a column counts as constant.  numpy
# sums a column mean row by row, so a constant column keeps an sd of about
# n * 1e-17 times its value after centring; 1e-8 covers ~10^8 rows and
# refuses only columns constant to eight significant digits.
CONSTANT_RTOL = 1e-8


def moments(a: np.ndarray, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """Centred columns of ``a`` and their sample covariance, divisor (n - 1).

    Raises DataError for fewer than 2 rows, or for a constant column (see
    ``CONSTANT_RTOL``), naming its label, or its index without ``labels``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n < 2:
        raise DataError(f"at least 2 cases required for sample moments, got {n}")
    centred = a - a.mean(axis=0)
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
