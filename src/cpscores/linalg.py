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
  :func:`centred_product` and :func:`moments`, take a list of same-length
  DataMatrix or ScoreMatrix containers and go a block of rows at a time:
  the block of each matrix's values, whatever their layout, is copied
  into that matrix's columns of a reused row-major buffer, and the
  matrices' column means, which each keeps (:func:`_kept_means`), are
  subtracted in place, ``LANES`` rows at a time, so each matrix is summed
  for its means once.  :func:`centred_product` writes each block of
  ``_product_rows()`` rows times the weights into its rows of the result,
  and :func:`moments` takes each block of ``ROW_BLOCK`` rows' ``z' z``
  and sums them in block order, which gives every covariance the package
  estimates, the determinacy cross moment between scores and indicators
  included.  No whole centred or stacked copy of the data is made;
* :func:`_in_threads` hands out independent pieces of work, the
  simulator's row blocks and the blocks of the two kernels above, to W
  threads: W is the number of CPUs the process may use, at most
  ``_MAX_THREADS`` and at most the number of pieces, and a kernel takes a
  thread only for ``_BLOCKS_PER_THREAD`` blocks or more.  Each thread
  takes the next piece no thread has taken, and each centres into a
  buffer of its own; no option sets W.  The block geometry does not
  depend on W, product rows are independent and the blocks' ``z' z`` are
  summed in one order, so no result depends on W or on which thread took
  which block;
* symmetric matrix functions go through a full eigendecomposition, so only
  spectral functions of the input are ever exposed, and refuse an input
  asymmetric beyond ``SYMMETRY_RTOL``;
* eigenvalues at or below ``PD_RTOL * max_eigenvalue`` make a matrix count
  as singular (:func:`cpscores.containers.pd_violation`).
"""

from __future__ import annotations

import _thread
import itertools
import math
import os

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


def row_blocks(n: int, rows: int | None = None) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, of near-equal sizes of
    at most ``rows`` (``ROW_BLOCK`` if None) rows, or of 2 or 3 rows where
    ``rows`` is below 3, so no block is a lone row unless ``n`` is 1:
    numpy multiplies a single row through another BLAS routine, whose sums
    can differ in the last bit from those of a many-row product."""
    count = -(-n // (ROW_BLOCK if rows is None else rows))
    count = max(1, min(count, n // 2))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


# The most threads :func:`_in_threads` starts: the thread count whose gain
# has been measured (on two CPUs).  More threads than that are untried,
# and each also calls a BLAS that may run threads of its own.
_MAX_THREADS = 2

# Row blocks a thread must take before a row-block kernel leaves the
# caller's thread: a call that starts and joins one thread costs 40 to
# 100 us, more than a block or two of work, so a moments pass of 2 blocks
# (10^4 rows) or a product of 5 (10^4 rows) stays on the calling thread.
_BLOCKS_PER_THREAD = 4


def _product_rows() -> int:
    """Rows per block of :func:`centred_product`, the same for any thread
    count: ``ROW_BLOCK // (2 * _MAX_THREADS)``, at least 2.  The buffers
    of ``_MAX_THREADS`` threads then hold half the rows of one
    ``ROW_BLOCK`` block, which leaves room for the 64 KiB ufunc buffer
    that each thread's broadcast subtraction allocates."""
    return max(2, ROW_BLOCK // (2 * _MAX_THREADS))


def _cpus() -> int:
    """The number of CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(count: int) -> int:
    """Threads for ``count`` pieces of work: the CPUs this process may
    use, at most ``_MAX_THREADS``, at most ``count`` and at least 1."""
    if count <= 1:  # one thread whatever the CPUs: skip the affinity call
        return 1
    return min(_cpus(), _MAX_THREADS, count)


def _in_threads(fn, count: int, per_thread: int = 1) -> None:
    """``fn(j, k)`` once for each item k of ``range(count)``, j the index
    of the thread that took k, 0 the caller's, over W = ``_workers(count
    // per_thread)`` threads.  Each thread takes the next item that no
    thread has taken, until none is left, so the split follows how fast
    each thread runs.  The W - 1 others are started for this call, and the
    caller starts on its items without waiting for them to run; it returns
    once each has finished the last item it took.  A thread whose ``fn``
    raises takes no more items, and the first error, in thread order, is
    raised again.  ``fn`` must write only what item k or thread j owns."""
    threads = _workers(count // per_thread)
    errors = [None] * threads
    todo = iter(range(count))
    taking = _thread.allocate_lock()

    def run(j, finished=None):
        try:
            while True:
                with taking:
                    k = next(todo, None)
                if k is None:
                    break
                fn(j, k)
        except BaseException as e:  # raised again in the caller below
            errors[j] = e
        if finished is not None:  # a worker thread's: the caller waits on it
            finished.release()

    # threading.Thread.start would wait until the new thread runs
    finished = []
    for j in range(1, threads):
        lock = _thread.allocate_lock()
        lock.acquire()
        _thread.start_new_thread(run, (j, lock))
        finished.append(lock)
    run(0)
    for lock in finished:
        lock.acquire()
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


@_kept
def _kept_means(matrix) -> np.ndarray:
    """Column means of a DataMatrix or ScoreMatrix, kept by it, so the
    kernels below read each matrix's columns for their means once."""
    return column_means(matrix.values)


def _centred(matrices, blocks, fn) -> np.ndarray:
    """``fn(k, z)`` for each ``blocks[k]`` of rows of the same-length
    DataMatrix or ScoreMatrix ``matrices``: ``z`` is their values side by
    side, less their kept column means (:func:`_kept_means`), which are
    returned side by side.

    The blocks go to the threads of :func:`_in_threads`, one for each
    ``_BLOCKS_PER_THREAD`` blocks.  ``z`` is a reused row-major buffer of
    the thread that took the block, overwritten by its next block.  It is
    centred ``LANES`` rows at a time, so numpy's inner loop runs over
    ``LANES`` times its width.
    """
    arrays = [m.values for m in matrices]
    mean = np.concatenate([_kept_means(m) for m in matrices])
    cols = list(itertools.accumulate((a.shape[1] for a in arrays), initial=0))
    rows_max = max(rows.stop - rows.start for rows in blocks)
    tiled = np.tile(mean, LANES)
    bufs = {}  # thread index -> its buffer, allocated at its first block

    def centre(j, k):
        if j not in bufs:
            bufs[j] = np.empty((rows_max, cols[-1]))
        rows = blocks[k]
        z = bufs[j][: rows.stop - rows.start]
        for a, lo, hi in zip(arrays, cols, cols[1:]):
            z[:, lo:hi] = a[rows]
        m = len(z) - len(z) % LANES
        lanes = z[:m].reshape(-1, tiled.size)
        lanes -= tiled
        z[m:] -= mean
        fn(k, z)

    _in_threads(centre, len(blocks), _BLOCKS_PER_THREAD)
    return mean


def centred_product(matrices, w: np.ndarray) -> np.ndarray:
    """``hstack([m.values - mean(m) for m in matrices]) @ w.T`` for a list
    of same-length DataMatrix or ScoreMatrix ``matrices``, written into a
    preallocated result a row block of ``_product_rows()`` rows at a
    time; the result is frozen.  Rows are independent, so the result does
    not depend on the blocks or the threads that share them."""
    w = np.asarray(w, dtype=float)
    out = np.empty((matrices[0].n_cases, w.shape[0]))
    blocks = row_blocks(len(out), _product_rows())

    def product(k, z):
        np.matmul(z, w.T, out=out[blocks[k]])

    _centred(matrices, blocks, product)
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


def moments(matrices) -> np.ndarray:
    """Sample covariance, divisor (n - 1), of the columns of a list of
    same-length DataMatrix or ScoreMatrix ``matrices`` taken side by side,
    centred on the column means each matrix keeps.

    The covariance is summed over the :func:`row_blocks`, each block of
    the matrices centred side by side into a reused buffer, so no whole
    centred or stacked copy of their values is made.  The blocks' ``z' z``
    may come from several threads, and are summed in block order, so the
    covariance does not depend on the thread count.  Raises DataError for
    fewer than 2 rows or a constant column (see ``CONSTANT_RTOL``), naming
    its label.
    """
    n = matrices[0].n_cases
    if n < 2:
        raise DataError(f"at least 2 cases required for sample moments, got {n}")
    blocks = row_blocks(n)
    products = [None] * len(blocks)

    def product(k, z):
        products[k] = z.T @ z

    mean = _centred(matrices, blocks, product)
    cov = np.zeros((len(mean), len(mean)))
    for p in products:
        cov += p
    cov /= n - 1
    sd = np.sqrt(np.diag(cov))
    # max |a| <= |mean| + sqrt(n - 1) * sd, so only a column that fails the
    # rule against that bound needs its largest |value|
    if np.any(sd <= CONSTANT_RTOL * (np.abs(mean) + math.sqrt(n - 1) * sd)):
        largest = np.concatenate([
            np.maximum(_column_reduce(np.maximum, m.values),
                       -_column_reduce(np.minimum, m.values))
            for m in matrices
        ])
        constant = np.flatnonzero(sd <= CONSTANT_RTOL * largest)
        if constant.size:
            label = [lb for m in matrices for lb in m.labels][constant[0]]
            raise DataError(f"constant column {label!r}: zero sample variance")
    return cov


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

