"""Numerical kernels: symmetric matrix powers and row-block sample moments.

Conventions used throughout the package:

* sample moments come from :func:`moments` alone: columns are centred on
  their means, cross products divided by (n - 1), and a column whose
  sample sd is at most ``CONSTANT_RTOL`` times its largest absolute value
  is refused by label as constant.  The rule is scale-free and also
  catches a constant like 0.1, whose computed variance is about 1e-33;
* :func:`corr_from_cov` is the one covariance-to-correlation conversion;
* column sums, maxima and minima are lane-wide: a row-major array is
  reduced ``LANES`` rows at a time into ``LANES`` accumulators per column,
  which are then folded, so numpy's inner loop runs over ``LANES * k``
  values instead of k and each accumulator adds only one row in
  ``LANES``; an array with contiguous columns is reduced along them.  No
  sum goes through BLAS, so none depends on the BLAS thread count;
* everything that touches all n rows of centred data goes a block of
  ``ROW_BLOCK`` rows at a time through :func:`centred_blocks`, which
  centres each array into a reused buffer of its own, laid out like its
  source (row- or column-major), a row-major one ``LANES`` rows at a
  time.  :func:`centred_product` sums each array's block times its slice
  of the weights, and the determinacy cross moment is summed over
  ``centred_blocks([scores, data])``.  :func:`moments` centres its arrays
  side by side into one block buffer, column-major when they all are, and
  sums the covariance block by block.  No whole centred or stacked copy
  of the data is made;
* symmetric matrix functions go through a full eigendecomposition, so only
  spectral functions of the input are ever exposed, and refuse an input
  asymmetric beyond ``SYMMETRY_RTOL``;
* eigenvalues at or below ``PD_RTOL * max_eigenvalue`` make a matrix count
  as singular (:func:`cpscores.containers.pd_violation`).
"""

from __future__ import annotations

import itertools
import math
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
# row-block kernels

# Rows per block of the kernels below: bounds their buffers to a few MB for
# tens of columns while keeping the per-block overhead negligible.
ROW_BLOCK = 8192

# Rows per step of the lane-wide kernels on row-major arrays, so numpy's
# inner loop runs over LANES * k values instead of k.  A column reduction
# keeps LANES accumulators per column, each adding one row in LANES: the
# sum of a constant column of 0.1, 1/3, 0.7 or 1e6 + 0.1 at 10^6 rows is
# within 2.6e-13 relative (row by row: up to 1.7e-11).
LANES = 64


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, of near-equal sizes of
    at most ``ROW_BLOCK`` rows, so no block is a lone row unless ``n`` is 1:
    numpy multiplies a single row through another BLAS routine, whose sums
    can differ in the last bit from those of a many-row product."""
    count = max(1, -(-n // ROW_BLOCK))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _column_reduce(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=0)`` of a 2-d array with at least one row.

    An array whose columns are contiguous reduces along them.  Any other
    layout reduces ``LANES`` rows at a time into ``LANES`` accumulators per
    column, folds them, and joins the rows left over.  No BLAS call is
    made, so the result does not depend on the BLAS thread count.
    """
    n, k = a.shape
    if a.strides[0] == a.itemsize or n < LANES:
        return ufunc.reduce(a, axis=0)
    m = n - n % LANES
    lanes = ufunc.reduce(a[:m].reshape(m // LANES, LANES, k), axis=0)
    return ufunc.reduce(np.vstack([lanes, a[m:]]), axis=0)


def column_means(a: np.ndarray) -> np.ndarray:
    """Column means of a 2-d array with at least one row."""
    return _column_reduce(np.add, a) / a.shape[0]


def _floats(arrays) -> list[np.ndarray]:
    return [np.asarray(a, dtype=float) for a in arrays]


def _spans(arrays) -> list[slice]:
    """The column slice of each array within the arrays side by side."""
    cols = list(itertools.accumulate((a.shape[1] for a in arrays), initial=0))
    return [slice(lo, hi) for lo, hi in zip(cols, cols[1:])]


def _subtract_rows(a, mean, tiled, out):
    """``out[:] = a - mean`` for same-shape 2-d arrays.  Given ``tiled``
    (``mean`` repeated ``LANES`` times) and a row-major ``out``, ``a`` is
    row-major and all but the last ``len(a) % LANES`` rows are centred
    ``LANES`` rows at a time, so numpy's inner loop runs over ``LANES * k``
    values."""
    m = 0 if tiled is None or not out.flags.c_contiguous else len(a) - len(a) % LANES
    if m:
        np.subtract(a[:m].reshape(-1, tiled.size), tiled,
                    out=out[:m].reshape(-1, tiled.size))
    if m < len(a):
        np.subtract(a[m:], mean, out=out[m:])


def _centred(arrays, means, stacked=False):
    """:func:`centred_blocks` of float arrays with their column means; or,
    ``stacked``, yield ``(rows, z)`` with the centred blocks side by side
    in one buffer, column-major if every array is."""
    n = arrays[0].shape[0]
    blocks = row_blocks(n)
    size = -(-n // len(blocks))
    column_major = [a.strides[0] == a.itemsize for a in arrays]
    spans = _spans(arrays)
    if stacked:
        whole = np.empty((size, spans[-1].stop), order="F" if all(column_major) else "C")
        bufs = [whole[:, span] for span in spans]
    else:
        # one allocation cut into a buffer per array: with an allocation
        # each, repeated small fits took about four times the page faults
        flat = np.empty(size * spans[-1].stop)
        bufs = [flat[size * span.start: size * span.stop].reshape(
                    size, span.stop - span.start, order="F" if f else "C")
                for span, f in zip(spans, column_major)]
    tiled = [np.repeat(m[None], LANES, axis=0).ravel() if a.flags.c_contiguous else None
             for a, m in zip(arrays, means)]
    for rows in blocks:
        zs = [buf[: rows.stop - rows.start] for buf in bufs]
        for a, m, t, z in zip(arrays, means, tiled, zs):
            _subtract_rows(a[rows], m, t, z)
        yield rows, whole[: rows.stop - rows.start] if stacked else zs


def centred_blocks(arrays):
    """Yield ``(rows, zs)`` for the consecutive :func:`row_blocks` of the
    same-length 2-d ``arrays``: ``zs[i]`` is ``arrays[i][rows]`` less the
    column means of all of ``arrays[i]``.

    Each ``zs[i]`` is a reused buffer laid out like ``arrays[i]`` (column-
    or row-major), overwritten by the next block; use it before advancing
    the iterator.
    """
    arrays = _floats(arrays)
    return _centred(arrays, [column_means(a) for a in arrays])


def centred_product(arrays, w: np.ndarray) -> np.ndarray:
    """``hstack([a - a.mean(axis=0) for a in arrays]) @ w.T``, written into
    a preallocated result a row block at a time as the sum over the arrays
    of each centred block times the array's slice of the columns of ``w``;
    the result is frozen."""
    arrays = _floats(arrays)
    w = np.asarray(w, dtype=float)
    w_ts = [w[:, span].T for span in _spans(arrays)]
    n = arrays[0].shape[0]
    out = np.empty((n, w.shape[0]))
    part = np.empty((min(n, ROW_BLOCK) if len(arrays) > 1 else 0, w.shape[0]))
    for rows, zs in centred_blocks(arrays):
        dest = out[rows]
        np.matmul(zs[0], w_ts[0], out=dest)
        for z, w_t in zip(zs[1:], w_ts[1:]):
            dest += np.matmul(z, w_t, out=part[: len(z)])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# column-wise sample moments

# Relative sample sd at or below which a column counts as constant.  A
# constant column keeps an sd of its mean's rounding error after centring.
# Summed lane-wide (see LANES), that error is about n * 2e-19 times the
# value: at most 2.6e-13 for 0.1, 1/3, 0.7 and 1e6 + 0.1 at 10^6 rows,
# where a row-by-row sum was off by 3.3e-12 to 1.7e-11.  1e-8 refuses only
# columns constant to eight significant digits.
CONSTANT_RTOL = 1e-8


def moments(arrays, labels=None) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sample covariance, divisor (n - 1), of the columns
    of the same-length 2-d ``arrays`` taken side by side.

    The covariance is summed a row block at a time, each block of the
    arrays centred side by side into one reused buffer, so no whole
    centred or stacked copy of the arrays is made.  Raises DataError
    for fewer than 2 rows, or for a constant column (see ``CONSTANT_RTOL``),
    naming its label, or its index without ``labels``.
    """
    arrays = _floats(arrays)
    n = arrays[0].shape[0]
    if n < 2:
        raise DataError(f"at least 2 cases required for sample moments, got {n}")
    means = [column_means(a) for a in arrays]
    mean = np.concatenate(means)
    cov = np.zeros((len(mean), len(mean)))
    for _, z in _centred(arrays, means, stacked=True):
        cov += z.T @ z
    cov /= n - 1
    sd = np.sqrt(np.diag(cov))
    # max |a| <= |mean| + sqrt(n - 1) * sd, so only a column that fails the
    # rule against that bound needs its largest |value|
    if np.any(sd <= CONSTANT_RTOL * (np.abs(mean) + math.sqrt(n - 1) * sd)):
        largest = np.concatenate([
            np.maximum(_column_reduce(np.maximum, a), -_column_reduce(np.minimum, a))
            for a in arrays
        ])
        constant = np.flatnonzero(sd <= CONSTANT_RTOL * largest)
        if constant.size:
            j = int(constant[0])
            name = j if labels is None else repr(labels[j])
            raise DataError(f"constant column {name}: zero sample variance")
    return mean, cov


def corr_from_cov(cov: np.ndarray) -> np.ndarray:
    """Correlation matrix of a covariance with a positive diagonal."""
    inv = 1.0 / np.sqrt(np.diag(cov))
    r = cov * np.outer(inv, inv)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def cp_multiplier(target: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The correlation-preserving multiplier
    ``target^{1/2} R^{-1/2} diag(cov)^{-1/2}``, R the correlation of
    ``cov``: scores with covariance ``cov`` times its transpose have
    covariance ``target``."""
    t = sym_sqrt(target) @ sym_inv_sqrt(corr_from_cov(cov))
    return t / np.sqrt(np.diag(cov))


def sample_corr(scores: ScoreMatrix) -> FactorCorr:
    """Sample correlation of the score columns as a labeled FactorCorr."""
    n, k = scores.values.shape
    if n <= k:
        warnings.warn(
            f"sample correlation of {k} columns from only {n} cases is rank "
            "deficient or unstable",
            stacklevel=2,
        )
    cov = moments([scores.values], scores.labels)[1]
    return FactorCorr(scores.labels, corr_from_cov(cov))
