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
* the two kernels that touch all n rows of centred data,
  :func:`centred_product` and :func:`moments`, go a block of
  ``ROW_BLOCK`` rows at a time: the block of each array, whatever its
  layout, is copied into that array's columns of one reused row-major
  buffer, and the joined column means are subtracted in place, ``LANES``
  rows at a time.  :func:`centred_product` writes each block times the
  weights into its rows of the result, and :func:`moments` sums ``z' z``,
  which gives every covariance the package estimates, the determinacy
  cross moment between scores and indicators included.  No whole centred
  or stacked copy of the data is made;
* :func:`_in_threads` shares independent pieces of work, the simulator's
  row blocks, over W threads: W is the number of CPUs the process may
  use, at most ``_MAX_THREADS`` and at most the number of pieces.  The
  W - 1 threads beside the caller's are started for the call and joined
  before it returns; no option sets W.  Every other kernel runs on the
  caller's thread;
* symmetric matrix functions go through a full eigendecomposition, so only
  spectral functions of the input are ever exposed, and refuse an input
  asymmetric beyond ``SYMMETRY_RTOL``;
* eigenvalues at or below ``PD_RTOL * max_eigenvalue`` make a matrix count
  as singular (:func:`cpscores.containers.pd_violation`).
"""

from __future__ import annotations

import itertools
import math
import os
import threading

import numpy as np

from .containers import FactorCorr, _kept, pd_violation
from .errors import DataError, NearSingularError, StructuralError


# Asymmetry, relative to max(1, max |s|), accepted by the symmetric powers.
SYMMETRY_RTOL = 1e-10


def _sym_power(s, power, what="matrix"):
    # V diag(w)^power V' for s = V diag(w) V'; a NearSingularError names
    # the matrix as ``what``
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {s.shape}")
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.T)) > SYMMETRY_RTOL * scale:
        raise StructuralError("matrix is not symmetric within tolerance")
    w, v = np.linalg.eigh(s)
    msg = pd_violation(w, what)
    if msg:
        raise NearSingularError(msg)
    return (v * w**power) @ v.T


@_kept
def corr_sqrt(c: FactorCorr) -> np.ndarray:
    """Symmetric square root of a correlation matrix, kept by the
    FactorCorr: the one root of each factor correlation (phi, C and C's
    eta block)."""
    return _sym_power(c.values, 0.5, f"factor correlation ({', '.join(c.labels)})")


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


# The most threads :func:`_in_threads` starts: the thread count whose gain
# has been measured (on two CPUs).  More threads than that are untried,
# and each also calls a BLAS that may run threads of its own.
_MAX_THREADS = 2


def _cpus() -> int:
    """The number of CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(count: int) -> int:
    """Threads for ``count`` pieces of work: the CPUs this process may
    use, at most ``_MAX_THREADS``, at most ``count`` and at least 1."""
    return max(1, min(_cpus(), _MAX_THREADS, count))


def _in_threads(fn, items) -> None:
    """``fn(item)`` for every item, spread over W = ``_workers(len(items))``
    threads: thread j takes items j, j + W, j + 2W, ..., and thread 0 is
    the caller's.  The W - 1 others are started for this call and joined
    before it returns; the first error, in thread order, is raised again.
    ``fn`` must write only what its own items own."""
    items = list(items)
    count = _workers(len(items))
    errors = [None] * count

    def run(j):
        try:
            for item in items[j::count]:
                fn(item)
        except BaseException as e:  # raised again in the caller below
            errors[j] = e

    threads = [threading.Thread(target=run, args=(j,)) for j in range(1, count)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e


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


def _centred(arrays, mean):
    """Yield ``(rows, z)`` for the consecutive :func:`row_blocks` of the
    same-length 2-d float ``arrays``: ``z`` is their ``rows`` side by side,
    less their joined column ``mean`` over all n rows.

    ``z`` is one reused row-major buffer, overwritten by the next block;
    use it before advancing the iterator.  It is centred ``LANES`` rows at
    a time, so numpy's inner loop runs over ``LANES`` times its width.
    """
    n = arrays[0].shape[0]
    blocks = row_blocks(n)
    cols = list(itertools.accumulate((a.shape[1] for a in arrays), initial=0))
    buf = np.empty((-(-n // len(blocks)), cols[-1]))
    tiled = np.tile(mean, LANES)
    for rows in blocks:
        z = buf[: rows.stop - rows.start]
        for a, lo, hi in zip(arrays, cols, cols[1:]):
            z[:, lo:hi] = a[rows]
        m = len(z) - len(z) % LANES
        lanes = z[:m].reshape(-1, tiled.size)
        lanes -= tiled
        z[m:] -= mean
        yield rows, z


def centred_product(arrays, w: np.ndarray) -> np.ndarray:
    """``hstack([a - a.mean(axis=0) for a in arrays]) @ w.T``, written into
    a preallocated result a row block at a time; the result is frozen."""
    arrays = _floats(arrays)
    w = np.asarray(w, dtype=float)
    out = np.empty((len(arrays[0]), w.shape[0]))
    mean = np.concatenate([column_means(a) for a in arrays])
    for rows, z in _centred(arrays, mean):
        np.matmul(z, w.T, out=out[rows])
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
    mean = np.concatenate([column_means(a) for a in arrays])
    cov = np.zeros((len(mean), len(mean)))
    for _, z in _centred(arrays, mean):
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


def cp_multiplier(target_sqrt: np.ndarray, cov: np.ndarray, what: str) -> np.ndarray:
    """The correlation-preserving multiplier
    ``target^{1/2} R^{-1/2} diag(cov)^{-1/2}`` from the symmetric root
    ``target_sqrt``, R the correlation of ``cov`` (named ``what``): scores
    with covariance ``cov`` times its transpose have covariance ``target``."""
    t = target_sqrt @ _sym_power(corr_from_cov(cov), -0.5, what)
    return t / np.sqrt(np.diag(cov))

