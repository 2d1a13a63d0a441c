"""Structural model parameters and model-implied covariance structures.

A :class:`SemModel` holds the completely standardized parameter estimates of
a latent regression model (endogenous factors regressed on exogenous
factors, each block with its own measurement model).  Each measurement model
is a :class:`Block`: the x indicators on the exogenous factors, the y
indicators on the endogenous factors, and the stacked (x, y) indicators on
all factors.  Unique variances are always derived from the standardized
solution as ``diag(I - L C L')`` rather than read from input, so they cannot
drift out of sync with the loadings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .containers import (
    ENDOGENOUS,
    EXOGENOUS,
    FactorCorr,
    _as_matrix,
    pd_violation,
)
from .errors import ModelError, NearSingularError, StructuralError

# Residual covariance supplied both ways must agree to this tolerance.
PSI_CONSISTENCY_TOL = 1e-6
# Implied factor variances are 1 to UNIT_DIAGONAL_TOL, for validation and
# combined_factor_corr alike; |loadings| exceed 1 by at most LOADING_TOL.
UNIT_DIAGONAL_TOL = 1e-8
LOADING_TOL = 1e-6
JOINT = "joint"


@dataclass(frozen=True)
class Block:
    """A measurement model: indicators (rows of ``loadings``) on factors
    with covariance ``corr``, the exogenous, endogenous or joint block of a
    :class:`SemModel`.  The model builds a block on each access and keeps
    none; a block keeps its one solve, shared by :meth:`weights` and
    :meth:`score_cov`."""

    name: str
    loadings: np.ndarray
    corr: np.ndarray
    factor_labels: tuple[str, ...]
    factor_blocks: tuple[str, ...]
    indicator_labels: tuple[str, ...]
    _sigma_inv_loadings: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def uniqueness(self) -> np.ndarray:
        """Indicator unique variances ``1 - diag(L C L')``, clipped at 0.

        Raises ModelError naming the indicator when one is negative.
        """
        uniq = 1.0 - np.einsum(
            "ij,jk,ik->i", self.loadings, self.corr, self.loadings
        )
        if np.min(uniq) < -1e-10:
            i = int(np.argmin(uniq))
            raise ModelError(
                f"negative implied uniqueness {uniq[i]:.6f} "
                f"for indicator {self.indicator_labels[i]}"
            )
        return np.clip(uniq, 0.0, None)

    def sigma(self) -> np.ndarray:
        """Model-implied indicator covariance ``L C L' + diag(uniqueness)``."""
        sigma = self.loadings @ self.corr @ self.loadings.T
        sigma += np.diag(self.uniqueness())
        return (sigma + sigma.T) / 2.0

    def sigma_inv_loadings(self) -> np.ndarray:
        """``sigma^{-1} L``; raises NearSingularError for a singular sigma."""
        if self._sigma_inv_loadings is None:
            try:
                sil = np.linalg.solve(self.sigma(), self.loadings)
            except np.linalg.LinAlgError as exc:
                raise NearSingularError(
                    f"implied covariance of the {self.name} indicators "
                    "is singular"
                ) from exc
            object.__setattr__(self, "_sigma_inv_loadings", sil)
        return self._sigma_inv_loadings

    def weights(self) -> np.ndarray:
        """Weights of the best linear predictor of the factors from the
        indicators, ``C L' sigma^{-1}`` (one row per factor)."""
        return self.corr @ self.sigma_inv_loadings().T

    def score_cov(self) -> np.ndarray:
        """Population covariance of the regression scores,
        ``C L' sigma^{-1} L C``; it is also their covariance with the
        factors."""
        a = self.weights() @ self.loadings @ self.corr
        return (a + a.T) / 2.0


@dataclass(frozen=True)
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

    def __post_init__(self):
        lx = _as_matrix(self.lambda_x, "lambda_x")
        ly = _as_matrix(self.lambda_y, "lambda_y")
        gamma = _as_matrix(self.gamma, "gamma")
        object.__setattr__(self, "lambda_x", lx)
        object.__setattr__(self, "lambda_y", ly)
        object.__setattr__(self, "gamma", gamma)

        n_xi = lx.shape[1]
        n_eta = ly.shape[1]
        xi_labels = self.xi_labels or tuple(f"xi{i + 1}" for i in range(n_xi))
        eta_labels = self.eta_labels or tuple(f"eta{i + 1}" for i in range(n_eta))
        x_labels = self.x_labels or tuple(f"x{i + 1}" for i in range(lx.shape[0]))
        y_labels = self.y_labels or tuple(f"y{i + 1}" for i in range(ly.shape[0]))

        phi = self.phi
        if not isinstance(phi, FactorCorr):
            phi = FactorCorr(xi_labels, phi)
        if phi.order != n_xi:
            raise StructuralError(
                f"phi order {phi.order} does not match lambda_x columns {n_xi}"
            )
        if gamma.shape != (n_eta, n_xi):
            raise StructuralError(
                f"gamma shape {gamma.shape} does not match "
                f"({n_eta} endogenous, {n_xi} exogenous)"
            )

        eta_corr = self.eta_corr
        if eta_corr is not None and not isinstance(eta_corr, FactorCorr):
            eta_corr = FactorCorr(eta_labels, eta_corr)
        if eta_corr is not None and eta_corr.order != n_eta:
            raise StructuralError(
                f"eta_corr order {eta_corr.order} does not match "
                f"lambda_y columns {n_eta}"
            )

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

    @property
    def factor_blocks(self) -> tuple[str, ...]:
        return (EXOGENOUS,) * self.n_xi + (ENDOGENOUS,) * self.n_eta

    def eta_cov(self) -> np.ndarray:
        """Model-implied covariance of the endogenous factors."""
        return self.gamma @ self.phi.values @ self.gamma.T + self.psi

    # -- measurement blocks (built on each access, never kept) -------------
    @property
    def exo(self) -> Block:
        """The x indicators on the exogenous factors, C = phi."""
        return Block(
            EXOGENOUS, self.lambda_x, self.phi.values, self.xi_labels,
            (EXOGENOUS,) * self.n_xi, self.x_labels,
        )

    @property
    def endo(self) -> Block:
        """The y indicators on the endogenous factors, C = implied eta
        covariance."""
        return Block(
            ENDOGENOUS, self.lambda_y, self.eta_cov(), self.eta_labels,
            (ENDOGENOUS,) * self.n_eta, self.y_labels,
        )

    @property
    def joint(self) -> Block:
        """The stacked (x, y) indicators on all factors: block-diagonal
        loadings and the combined factor correlation."""
        loadings = np.zeros((self.n_x + self.n_y, self.n_xi + self.n_eta))
        loadings[: self.n_x, : self.n_xi] = self.lambda_x
        loadings[self.n_x:, self.n_xi:] = self.lambda_y
        return Block(
            JOINT, loadings, combined_factor_corr(self).values,
            self.factor_labels, self.factor_blocks,
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


def _pd_violation(values, what):
    return pd_violation(np.linalg.eigvalsh(values), what)


def validate_model(model: SemModel) -> ValidationReport:
    """Check the standardized-solution invariants; structural errors raise.

    Dimension mismatches raise StructuralError at SemModel construction, so
    a SemModel reaching this point is structurally consistent; this reports
    numerical violations (positive definiteness, unit diagonals, loading and
    uniqueness bounds) entry by entry.
    """
    v: list[str] = []

    msg = _pd_violation(model.phi.values, "phi")
    if msg:
        v.append(msg)

    endo = model.endo
    eta_cov = endo.corr
    dev = np.abs(np.diag(eta_cov) - 1.0)
    if np.max(dev) > UNIT_DIAGONAL_TOL:
        i = int(np.argmax(dev))
        v.append(
            f"diagonal of implied endogenous covariance is {eta_cov[i, i]:.10f} "
            f"for {model.eta_labels[i]}, expected 1"
        )
    msg = _pd_violation(eta_cov, "implied endogenous covariance")
    if msg:
        v.append(msg)

    for name, block in (("x", model.exo), ("y", endo)):
        mags = np.abs(block.loadings)
        if np.max(mags) > 1.0 + LOADING_TOL:
            i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
            v.append(
                f"lambda_{name} loading {block.loadings[i, j]:.4f} for "
                f"{block.indicator_labels[i]} exceeds 1"
            )
        try:
            sigma = block.sigma()
        except ModelError as exc:
            v.append(str(exc))
        else:
            msg = _pd_violation(sigma, f"implied covariance of the {name} indicators")
            if msg:
                v.append(msg)

    return ValidationReport(tuple(v))


def combined_factor_corr(model: SemModel) -> FactorCorr:
    """Correlation matrix of all factors, exogenous block first.

    Block layout: [[phi, phi gamma'], [gamma phi, implied endogenous cov]].
    """
    phi = model.phi.values
    cross = model.gamma @ phi
    c = np.block([[phi, cross.T], [cross, model.eta_cov()]])
    c = (c + c.T) / 2.0
    d = np.abs(np.diag(c) - 1.0)
    if np.max(d) > UNIT_DIAGONAL_TOL:
        raise ModelError(
            "combined factor correlation has a non-unit diagonal; "
            "the model is not completely standardized"
        )
    np.fill_diagonal(c, 1.0)
    corr = FactorCorr(model.factor_labels, c)
    if _pd_violation(corr.values, "combined factor correlation"):
        raise ModelError("degenerate model-implied correlation")
    return corr
