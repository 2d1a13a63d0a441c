"""Labeled matrix containers passed between the numerical modules.

All containers are immutable after construction, so results can safely be
shared across threads, with one gap: numpy records no writable views of an
array, so an owner frozen after a writable view of it was taken is adopted,
and that view can still write the container's values.  Freeze an array
before taking views of it, or pass a copy.  A container adopts, without a
copy, a float64 array whose memory nothing can write: every array down its
``.base`` chain is read-only, and a buffer at the bottom of the chain (the
``mmap`` under ``np.load(path, mmap_mode="r")``, or ``bytes``) is read-only
too.  The package's producers freeze each fresh result
(``setflags(write=False)``) before wrapping it, so a result, its transpose,
a slice of it or a view of a read-only mapped file is held as it is.  Every
other input (a read-only view of a writable array, a writable map, another
dtype, a list) is copied and the copy is write-protected.  Either way
``_check_matrix``, which the CSV reader and writer call too, checks shape,
labels and cells.  An adopted view, like a :meth:`ScoreMatrix.select` of
consecutive columns, keeps its parent's whole buffer alive for as long as
the container lives.  A :class:`ScoreMatrix` carries factor labels only;
the model's blocks say which block each factor belongs to.

An immutable object that holds arrays compares and hashes by identity
(``eq=False``): ``==`` between arrays has no single truth value.  Such an
object keeps what is derived from it, computed on first use
(:func:`_kept`); a :class:`FactorCorr` keeps its square root
(:func:`cpscores.linalg.corr_sqrt`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, StructuralError

# Relative eigenvalue threshold below which a matrix counts as singular.
PD_RTOL = 1e-10


def _adoptable(values) -> bool:
    """Whether ``values`` is float64 and nothing can write its memory: each
    array down its ``.base`` chain is read-only, and so is the buffer, if
    any, at the bottom."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        return False
    base = values
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    if base is None:
        return True
    try:
        with memoryview(base) as view:
            return view.readonly
    except TypeError:  # no buffer protocol (an __array_interface__ holder)
        return False


def _as_matrix(values, name: str, labels=None):
    """A checked read-only float64 matrix, adopted or copied; given
    ``labels``, the pair of it and the labels as strings."""
    a = values if _adoptable(values) else np.array(values, dtype=float)
    checked = _check_matrix(a, name, labels)
    a.setflags(write=False)
    return a if labels is None else (a, checked)


def _check_matrix(a: np.ndarray, prefix: str, labels=None):
    """Refuse ``a`` unless it is a 2-d matrix of finite cells with, given
    ``labels`` (returned as strings), one unique label per column; messages
    start with ``prefix``.  A finite sum of the cells needs no n x k mask;
    one that overflowed is told apart from a non-finite cell by the mask.
    ``einsum`` sums a strided view, such as a selection of columns, with no
    iterator buffer, where ``a.sum()`` would allocate 64 KiB."""
    if a.ndim != 2:
        raise StructuralError(
            f"{prefix}: values must be a 2-d matrix, got shape {a.shape}"
        )
    if labels is not None:
        labels = _check_labels(labels, a.shape[1], prefix)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.einsum("ij->", a)
    if not np.isfinite(total):
        finite = np.isfinite(a)
        if not finite.all():
            row, col = np.unravel_index(int(np.argmin(finite)), a.shape)
            column = col + 1 if labels is None else labels[col]
            raise DataError(
                f"{prefix}: non-finite value {a[row, col]} in data row "
                f"{row + 1}, column {column}"
            )
    return labels


def pd_violation(eigenvalues: np.ndarray, what: str) -> str | None:
    """Say why a symmetric matrix with these ascending eigenvalues is not
    positive definite (smallest at or below PD_RTOL times the largest)."""
    if eigenvalues[0] <= PD_RTOL * eigenvalues[-1]:
        return (
            f"{what} not positive definite "
            f"(smallest eigenvalue {eigenvalues[0]:.3e})"
        )
    return None


def _kept(fn):
    """``fn(obj)`` for an immutable ``obj``, computed on the first call and
    kept in ``obj._derived``, frozen if it is an array; a call that raises
    keeps nothing.  Threads that race on a cold ``obj`` may each compute
    the value, which is the same, and all return the one kept first."""
    key = fn.__name__

    @functools.wraps(fn)
    def kept(obj):
        try:
            return obj._derived[key]
        except KeyError:
            value = fn(obj)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        return obj._derived.setdefault(key, value)

    return kept


def _derived_field():
    """The dict in which :func:`_kept` keeps an object's derived values."""
    return field(default_factory=dict, init=False, repr=False)


def _check_labels(labels, count: int, prefix: str) -> tuple[str, ...]:
    labels = tuple(str(lb) for lb in labels)
    if len(labels) != count:
        raise StructuralError(
            f"{prefix}: {len(labels)} labels for {count} columns"
        )
    if len(set(labels)) != len(labels):
        dup = next(lb for i, lb in enumerate(labels) if lb in labels[:i])
        raise DataError(f"{prefix}: duplicate label {dup!r}")
    return labels


@dataclass(frozen=True, eq=False)
class FactorCorr:
    """Correlation matrix over an ordered list of factors.

    Symmetry and the unit diagonal are enforced on construction (within
    1e-12); positive definiteness is checked where consumers require it,
    because sample correlations from short score matrices may legitimately
    be singular.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    _derived: dict = _derived_field()

    def __post_init__(self):
        values, labels = _as_matrix(self.values, "correlation matrix", self.labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        n = values.shape[1]
        if values.shape != (n, n):
            raise StructuralError(
                f"correlation matrix must be square, got {values.shape}"
            )
        if np.max(np.abs(values - values.T)) > 1e-12:
            raise StructuralError("correlation matrix is not symmetric")
        if np.max(np.abs(np.diag(values) - 1.0)) > 1e-12:
            raise StructuralError("correlation matrix diagonal differs from 1")

    @property
    def order(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Cases-by-indicators numeric matrix with indicator labels; at least
    one case."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values, labels = _as_matrix(self.values, "data matrix", self.labels)
        if values.shape[0] == 0:
            raise DataError("data matrix has no cases")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_cases(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Cases-by-factors score matrix, one column per factor label; the
    whole matrix records how the scores were produced (``provenance``)."""

    values: np.ndarray
    labels: tuple[str, ...]
    provenance: str = "unspecified"

    def __post_init__(self):
        values, labels = _as_matrix(self.values, "score matrix", self.labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_cases(self) -> int:
        return self.values.shape[0]

    @property
    def n_factors(self) -> int:
        return self.values.shape[1]

    def replace_values(self, values, provenance: str | None = None) -> "ScoreMatrix":
        return ScoreMatrix(
            values, self.labels,
            self.provenance if provenance is None else provenance,
        )

    def select(self, labels) -> "ScoreMatrix":
        """The named columns: a view (``values[:, lo:hi]``) when they are
        consecutive and in order, as the ξ and the η block of every score
        matrix the package makes are, which keeps this matrix's buffer
        alive; otherwise gathered in one copy and kept column-major (the
        adopted transpose of a fresh factors-by-cases array)."""
        try:
            idx = [self.labels.index(lb) for lb in labels]
        except ValueError:
            missing = [lb for lb in labels if lb not in self.labels]
            raise StructuralError(
                f"score columns {missing} not found "
                f"(scores have {list(self.labels)})"
            ) from None
        lo = idx[0] if idx else 0
        if idx == list(range(lo, lo + len(idx))):
            columns = self.values[:, lo:lo + len(idx)]
        else:
            gathered = self.values.T[idx]
            gathered.setflags(write=False)
            columns = gathered.T
        return ScoreMatrix(
            columns, tuple(self.labels[i] for i in idx), self.provenance
        )
