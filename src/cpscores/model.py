"""Structural model parameters and model-implied covariance structures.

A :class:`SemModel` holds the completely standardized parameter estimates of
a latent regression model (endogenous factors regressed on exogenous
factors, each block with its own measurement model).  Each measurement model
is a :class:`Block`: the x indicators on the exogenous factors, the y
indicators on the endogenous factors, and the stacked (x, y) indicators on
all factors.  Unique variances are always derived from the standardized
solution as ``diag(I - L C L')`` rather than read from input, so they cannot
drift out of sync with the loadings.

Each block's factor correlation is a :class:`FactorCorr`: phi, the
combined factor correlation C, or C's eta block (a view).  Models and
blocks are immutable, so every matrix derived from them is computed once,
on first use, and kept frozen (:func:`cpscores.containers._kept`): a
model keeps its blocks and C, each FactorCorr keeps its one square root
(:func:`cpscores.linalg.corr_sqrt`), and a block keeps its uniqueness,
the smallest and largest eigenvalue of its implied indicator covariance,
its score covariance and its weight matrices.  The implied covariance
itself, its solve against the loadings and the stacked loadings of the
joint block are rebuilt when needed and not kept.  To change a
parameter, build a new model; it starts with nothing kept.  Models and
blocks compare and hash by identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .containers import (
    FactorCorr,
    _as_matrix,
    _check_labels,
    _derived_field,
    _kept,
    pd_violation,
)
from .errors import ModelError, NearSingularError, StructuralError
from .linalg import _sym_power, corr_sqrt, cp_multiplier

# Residual covariance supplied both ways must agree to this tolerance.
PSI_CONSISTENCY_TOL = 1e-6
# Implied factor variances are 1 to UNIT_DIAGONAL_TOL, for validation and
# combined_factor_corr alike; |loadings| exceed 1 by at most LOADING_TOL.
UNIT_DIAGONAL_TOL = 1e-8
LOADING_TOL = 1e-6
EXOGENOUS, ENDOGENOUS, JOINT = "exogenous", "endogenous", "joint"
# The indicator data each block takes, one matrix per loading block.
_DATA_NAMES = {EXOGENOUS: "(x)", ENDOGENOUS: "(y)", JOINT: "(x, y)"}


@dataclass(frozen=True, eq=False)
class Block:
    """A measurement model: indicators on factors with correlation
    ``corr``, a FactorCorr whose labels are the block's factor labels; the
    exogenous, endogenous or joint block of a :class:`SemModel`, which
    builds each of its blocks once and keeps it.  The loadings are
    block-diagonal in ``loading_blocks`` (one block, or the x and the y
    loadings for the joint block)."""

    name: str
    loading_blocks: tuple[np.ndarray, ...]
    corr: FactorCorr
    indicator_labels: tuple[str, ...]
    _derived: dict = _derived_field()

    def __post_init__(self):
        if not isinstance(self.corr, FactorCorr):
            raise StructuralError(
                f"{self.name} block: corr must be a FactorCorr, "
                f"got {type(self.corr).__name__}"
            )
        # read-only (the model's own arrays are adopted), so nothing a
        # block keeps can go stale
        object.__setattr__(self, "loading_blocks", tuple(
            _as_matrix(b, "loadings") for b in self.loading_blocks))
        rows, cols = map(sum, zip(*(b.shape for b in self.loading_blocks)))
        if self.corr.order != cols:
            raise StructuralError(
                f"{self.name} block: factor correlation of order "
                f"{self.corr.order}, loadings have {cols} columns")
        if len(self.indicator_labels) != rows:
            raise StructuralError(
                f"{self.name} block: {len(self.indicator_labels)} indicator "
                f"labels, loadings have {rows} rows")

    @property
    def factor_labels(self) -> tuple[str, ...]:
        return self.corr.labels

    @property
    def loadings(self) -> np.ndarray:
        """Indicators-by-factors loadings; with more than one loading block
        they are zero-padded on each access and not kept."""
        if len(self.loading_blocks) == 1:
            return self.loading_blocks[0]
        shapes = [b.shape for b in self.loading_blocks]
        out = np.zeros(tuple(map(sum, zip(*shapes))))
        r = c = 0
        for b, (rows, cols) in zip(self.loading_blocks, shapes):
            out[r:r + rows, c:c + cols] = b
            r, c = r + rows, c + cols
        return out

    @_kept
    def uniqueness(self) -> np.ndarray:
        """Indicator unique variances ``1 - diag(L C L')``, clipped at 0.

        Raises ModelError naming the indicator when one is negative.
        """
        loadings = self.loadings
        uniq = 1.0 - np.einsum("ij,jk,ik->i", loadings, self.corr.values, loadings)
        if np.min(uniq) < -1e-10:
            i = int(np.argmin(uniq))
            raise ModelError(
                f"negative implied uniqueness {uniq[i]:.6f} "
                f"for indicator {self.indicator_labels[i]}"
            )
        return np.clip(uniq, 0.0, None)

    def sigma(self) -> np.ndarray:
        """Model-implied indicator covariance ``L C L' + diag(uniqueness)``,
        built on each call and not kept."""
        loadings = self.loadings
        sigma = loadings @ self.corr.values @ loadings.T
        sigma += np.diag(self.uniqueness())
        return (sigma + sigma.T) / 2.0

    @_kept
    def sigma_eigenvalue_range(self) -> np.ndarray:
        """The smallest and the largest eigenvalue of :meth:`sigma`."""
        return np.linalg.eigvalsh(self.sigma())[[0, -1]]

    def sigma_violation(self) -> str | None:
        """Why :meth:`sigma` is not positive definite, by its smallest
        eigenvalue against ``PD_RTOL`` times its largest, or None."""
        return pd_violation(
            self.sigma_eigenvalue_range(),
            f"implied covariance of the {self.name} indicators",
        )

    def sigma_inv_loadings(self) -> np.ndarray:
        """``sigma^{-1} L``, solved on each call and not kept; raises
        NearSingularError naming the block and the smallest eigenvalue of
        sigma when it is not positive definite."""
        msg = self.sigma_violation()
        if msg:
            raise NearSingularError(msg)
        return np.linalg.solve(self.sigma(), self.loadings)

    @_kept
    def weights(self) -> np.ndarray:
        """Weights of the best linear predictor of the factors from the
        indicators, ``C L' sigma^{-1}`` (one row per factor)."""
        return self.corr.values @ self.sigma_inv_loadings().T

    @_kept
    def score_cov(self) -> np.ndarray:
        """Population covariance of the regression scores,
        ``C L' sigma^{-1} L C``; it is also their covariance with the
        factors."""
        a = self.weights() @ self.loadings @ self.corr.values
        return (a + a.T) / 2.0

    @_kept
    def orthogonal_weights(self) -> np.ndarray:
        """Weights of the orthogonal scores,
        ``(L' sigma^{-1} L)^{-1/2} L' sigma^{-1}``: their population
        covariance is the identity."""
        sigma_inv_l = self.sigma_inv_loadings()
        m = self.loadings.T @ sigma_inv_l
        what = f"L\u2032\u03a3\u207b\u00b9L of the {self.name} block"
        return _sym_power((m + m.T) / 2.0, -0.5, what) @ sigma_inv_l.T

    @_kept
    def cp_weights(self) -> np.ndarray:
        """Weights of the correlation-preserving scores from parameters:
        the regression weights premultiplied by
        ``C^{1/2} R^{-1/2} diag(A)^{-1/2}`` (:func:`cpscores.linalg.cp_multiplier`)
        with ``A`` the regression-score covariance and ``R`` its
        correlation, so the population covariance of the scores is C.
        Refused if a score variance is not positive (the factor's
        indicators carry none of it)."""
        a = self.score_cov()
        d = np.diag(a)
        if np.min(d) <= 0.0:
            i = int(np.argmin(d))
            raise StructuralError(
                f"regression-score variance {d[i]:.3e} for factor "
                f"{self.factor_labels[i]} is not positive"
            )
        what = f"regression-score correlation of the {self.name} block"
        return cp_multiplier(corr_sqrt(self.corr), a, what) @ self.weights()


def _indicator_values(block: Block, data, n: int | None, what: str) -> list[np.ndarray]:
    """The values of ``data``, one DataMatrix per entry of
    ``block.loading_blocks``, refused unless there is one per entry, and
    each has ``n`` rows (those of the first, if None) and that entry's
    indicators as columns; ``what`` opens the message.  Columns
    match indicators by position, since a model file names no indicators,
    but data labelled with that entry's indicator labels in another order
    are refused at the first misplaced column."""
    if len(data) != len(block.loading_blocks):
        matrices = "matrix" if len(data) == 1 else "matrices"
        raise StructuralError(
            f"{what}: {len(data)} indicator data {matrices}, the {block.name} "
            f"block takes {len(block.loading_blocks)} "
            f"{_DATA_NAMES.get(block.name, '')}".rstrip())
    n = data[0].n_cases if n is None else n
    start = 0
    for d, loadings in zip(data, block.loading_blocks):
        if d.values.shape != (n, len(loadings)):
            raise StructuralError(
                f"{what}: indicator data has {d.n_cases} rows (cases) x "
                f"{d.n_vars} columns, expected {n} x {len(loadings)}"
            )
        labels = block.indicator_labels[start:start + len(loadings)]
        start += len(loadings)
        if d.labels != labels and set(d.labels) == set(labels):
            i = next(i for i, (a, b) in enumerate(zip(d.labels, labels)) if a != b)
            raise StructuralError(
                f"{what}: indicator data column {i + 1} is {d.labels[i]!r}, "
                f"the model's indicator {i + 1} is {labels[i]!r}"
            )
    return [d.values for d in data]


@functools.cache
def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    """``prefix1 .. prefix<count>``: one tuple, shared by every model that
    takes default labels of this kind and count."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _labels(given, name: str, prefix: str, count: int) -> tuple[str, ...]:
    """The labels ``given`` for a model field ``name``, checked against
    ``count``, or the default ones when none are given."""
    return _check_labels(given, count, name) if given else _default_labels(prefix, count)


def _corr(c, name: str, labels, loadings: str) -> FactorCorr:
    """``c`` as a FactorCorr over ``labels``, refused unless its order is
    the number of columns of ``loadings`` and, given as a FactorCorr, it
    carries those labels."""
    if not isinstance(c, FactorCorr):
        c = FactorCorr(labels, c)
    if c.order != len(labels):
        raise StructuralError(
            f"{name} order {c.order} does not match {loadings} columns {len(labels)}"
        )
    if c.labels != labels:
        raise StructuralError(
            f"{name} is labelled {c.labels}, the model's factors are {labels}"
        )
    return c


@dataclass(frozen=True, eq=False)
class SemModel:
    """Completely standardized model parameters.

    Parameters
    ----------
    lambda_x : (n_x, n_xi) array
        Loadings of the x indicators on the exogenous factors.
    phi : FactorCorr or (n_xi, n_xi) array
        Correlations of the exogenous factors.
    lambda_y : (n_y, n_eta) array
        Loadings of the y indicators on the endogenous factors.
    gamma : (n_eta, n_xi) array
        Standardized path coefficients, one row per endogenous factor.
    psi : (n_eta, n_eta) array, optional
        Residual covariance of the endogenous factors.
    eta_corr : FactorCorr or array, optional
        Correlations of the endogenous factors; exactly one of ``psi`` /
        ``eta_corr`` is required (both only if consistent).
    """

    lambda_x: np.ndarray
    phi: FactorCorr
    lambda_y: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray | None = None
    eta_corr: FactorCorr | None = None
    xi_labels: tuple[str, ...] = field(default=())
    eta_labels: tuple[str, ...] = field(default=())
    x_labels: tuple[str, ...] = field(default=())
    y_labels: tuple[str, ...] = field(default=())
    _derived: dict = _derived_field()

    def __post_init__(self):
        lx = _as_matrix(self.lambda_x, "lambda_x")
        ly = _as_matrix(self.lambda_y, "lambda_y")
        gamma = _as_matrix(self.gamma, "gamma")
        object.__setattr__(self, "lambda_x", lx)
        object.__setattr__(self, "lambda_y", ly)
        object.__setattr__(self, "gamma", gamma)

        n_xi = lx.shape[1]
        n_eta = ly.shape[1]
        xi_labels = _labels(self.xi_labels, "xi_labels", "xi", n_xi)
        eta_labels = _labels(self.eta_labels, "eta_labels", "eta", n_eta)
        x_labels = _labels(self.x_labels, "x_labels", "x", lx.shape[0])
        y_labels = _labels(self.y_labels, "y_labels", "y", ly.shape[0])
        _check_labels(xi_labels + eta_labels, n_xi + n_eta,
                      "xi_labels and eta_labels")

        phi = _corr(self.phi, "phi", xi_labels, "lambda_x")
        if gamma.shape != (n_eta, n_xi):
            raise StructuralError(
                f"gamma shape {gamma.shape} does not match "
                f"({n_eta} endogenous, {n_xi} exogenous)"
            )

        eta_corr = self.eta_corr
        if eta_corr is not None:
            eta_corr = _corr(eta_corr, "eta_corr", eta_labels, "lambda_y")

        implied = gamma @ phi.values @ gamma.T
        psi = self.psi
        if psi is None and eta_corr is None:
            raise StructuralError("one of psi or eta_corr is required")
        if psi is not None:
            psi = _as_matrix(psi, "psi")
            if psi.shape != (n_eta, n_eta):
                raise StructuralError(f"psi shape {psi.shape}, expected {(n_eta, n_eta)}")
            if eta_corr is not None:
                dev = np.max(np.abs(implied + psi - eta_corr.values))
                if dev > PSI_CONSISTENCY_TOL:
                    raise StructuralError(
                        "psi and eta_corr are inconsistent "
                        f"(max deviation {dev:.2e})"
                    )
        else:
            psi = _as_matrix(eta_corr.values - implied, "psi")

        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "eta_corr", eta_corr)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "xi_labels", xi_labels)
        object.__setattr__(self, "eta_labels", eta_labels)
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)

    # -- dimensions ---------------------------------------------------------
    @property
    def n_x(self) -> int:
        return self.lambda_x.shape[0]

    @property
    def n_xi(self) -> int:
        return self.lambda_x.shape[1]

    @property
    def n_y(self) -> int:
        return self.lambda_y.shape[0]

    @property
    def n_eta(self) -> int:
        return self.lambda_y.shape[1]

    @property
    def factor_labels(self) -> tuple[str, ...]:
        return self.xi_labels + self.eta_labels

    # -- measurement blocks, each built once and kept ----------------------
    @property
    @_kept
    def exo(self) -> Block:
        """The x indicators on the exogenous factors, C = phi."""
        return Block(EXOGENOUS, (self.lambda_x,), self.phi, self.x_labels)

    @property
    @_kept
    def endo(self) -> Block:
        """The y indicators on the endogenous factors, C = the eta block of
        :func:`combined_factor_corr` (a view), which raises ModelError
        when C is unusable."""
        k = self.n_xi
        eta = FactorCorr(self.eta_labels, combined_factor_corr(self).values[k:, k:])
        return Block(ENDOGENOUS, (self.lambda_y,), eta, self.y_labels)

    @property
    @_kept
    def joint(self) -> Block:
        """The stacked (x, y) indicators on all factors: block-diagonal
        loadings and C = :func:`combined_factor_corr`."""
        return Block(
            JOINT, (self.lambda_x, self.lambda_y), combined_factor_corr(self),
            self.x_labels + self.y_labels,
        )


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "model accepted"
        return "model rejected:\n" + "\n".join(f"  - {v}" for v in self.violations)


def validate_model(model: SemModel) -> ValidationReport:
    """Check the standardized-solution invariants; structural errors raise.

    Dimension mismatches raise StructuralError at SemModel construction, so
    a SemModel reaching this point is structurally consistent; this reports
    numerical violations (the combined factor correlation, loading and
    uniqueness bounds, indicator covariances) entry by entry.  An implied
    indicator covariance is judged by the kept eigenvalues the block's
    solve checks (:meth:`Block.sigma_violation`), with the same text: the
    y block's only when C is usable, since the block is built from C, and
    the joint block's when nothing else is wrong, since it repeats the x
    and y uniqueness errors.
    """
    v: list[str] = []
    try:
        combined_factor_corr(model)
    except ModelError as exc:
        v.append(str(exc))

    checks = (("x", model.lambda_x, model.x_labels, model.exo),
              ("y", model.lambda_y, model.y_labels, None if v else model.endo))
    for name, loadings, labels, block in checks:
        mags = np.abs(loadings)
        if np.max(mags) > 1.0 + LOADING_TOL:
            i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
            v.append(
                f"lambda_{name} loading {loadings[i, j]:.4f} for "
                f"{labels[i]} exceeds 1"
            )
        try:
            msg = block.sigma_violation() if block else None
        except ModelError as exc:
            msg = str(exc)
        if msg:
            v.append(msg)
    if not v:
        msg = model.joint.sigma_violation()
        if msg:
            v.append(msg)

    return ValidationReport(tuple(v))


@_kept
def combined_factor_corr(model: SemModel) -> FactorCorr:
    """C = [[phi, phi gamma'], [gamma phi, gamma phi gamma' + psi]], the
    correlation of all factors, kept by the model; raises ModelError saying
    why unless it has a unit diagonal and is positive definite, which holds
    iff phi and psi (the Schur complement of phi in C) are."""
    k = model.n_xi
    c = np.empty((k + model.n_eta,) * 2)
    c[:k, :k] = model.phi.values
    c[k:, k:] = model.gamma @ model.phi.values @ model.gamma.T + model.psi
    c[k:, :k] = model.gamma @ model.phi.values
    c[:k, k:] = c[k:, :k].T
    c = (c + c.T) / 2.0
    d = np.abs(c.diagonal() - 1.0)
    i = int(np.argmax(d))
    if d[i] > UNIT_DIAGONAL_TOL:
        raise ModelError(
            f"combined factor correlation has diagonal {c[i, i]:.10f} for "
            f"{model.factor_labels[i]}, expected 1 (the model is not "
            "completely standardized)"
        )
    np.fill_diagonal(c, 1.0)
    msg = pd_violation(np.linalg.eigvalsh(c), "combined factor correlation")
    if msg:
        raise ModelError(msg)
    c.setflags(write=False)  # adopted by the FactorCorr, and its eta block by endo's
    return FactorCorr(model.factor_labels, c)
