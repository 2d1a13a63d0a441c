"""Determinacy coefficients: correlation between a factor score column and
the factor it estimates.

The estimator correlates each score column with the best linear predictor
of its factor from one block's indicators z:

    diag( diag(S_pp)^{-1/2} . S_pz . sigma^{-1} lambda C )

with S the sample covariance (divisor n - 1) of the scores p and z side
by side, from one :func:`cpscores.linalg.moments` pass, and
``C lambda' sigma^{-1}`` the block's regression weights
(:meth:`cpscores.model.Block.weights`).  :func:`determinacy` is one call
for any block: ``model.exo`` with the x data, ``model.endo`` with the y
data or ``model.joint`` with both, one data matrix per loading block,
checked by the score families' rule
(:func:`cpscores.model._check_indicators`).  The estimate is exact for
scores linear in the block's indicators alone, plain or
correlation-preserving; scores that also use indicators outside the block
can give a coefficient above 1, which the report's text flags unclipped.
``moments`` refuses a constant column of the scores or the indicators by
its matrix's label, for data the column header of its file: a constant
indicator would drop out of S while the model still weights it, a wrong
coefficient with no error.  A closed-form population
value for exact regression scores is provided as an oracle.

The verb is imported from this module, ``from cpscores.determinacy import
determinacy``, and not from the package: there the name
``cpscores.determinacy`` is this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containers import DataMatrix, ScoreMatrix
from .errors import DataError, StructuralError
from .linalg import moments
from .model import ENDOGENOUS, EXOGENOUS, Block, SemModel, _check_indicators

NORMALIZER_SD = "sd"
# Divides by score variances instead of standard deviations.  Only useful to
# reproduce legacy endogenous-factor output bit for bit; the coefficients it
# yields are not correlations.
NORMALIZER_VARIANCE = "variance"


@dataclass(frozen=True, eq=False)
class DeterminacyReport:
    labels: tuple[str, ...]
    coefficients: np.ndarray
    score_provenance: str
    n_cases: int
    variant: str

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(c)):
            raise DataError("non-finite determinacy coefficient")
        object.__setattr__(self, "coefficients", c)

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{lb}={c:.3f}" for lb, c in zip(self.labels, self.coefficients)
        )
        text = f"determinacy[{self.variant}; {self.score_provenance}]: {pairs}"
        # a correlation above 1 is flagged, not clipped; variance-normalized
        # coefficients are not correlations
        above = [lb for lb, c in zip(self.labels, self.coefficients) if c > 1.0]
        if above and not self.variant.endswith("variance-normalized"):
            text += f"  (above 1: {', '.join(above)})"
        return text


def determinacy(
    block: Block, scores: ScoreMatrix, *data: DataMatrix,
    normalizer: str = NORMALIZER_SD,
) -> DeterminacyReport:
    """Determinacy of the scores of ``block``'s factors against its
    indicators, one data matrix per loading block."""
    if normalizer not in (NORMALIZER_SD, NORMALIZER_VARIANCE):
        raise StructuralError(
            f"unknown determinacy normalizer {normalizer!r}: expected "
            f"{NORMALIZER_SD!r} or {NORMALIZER_VARIANCE!r}"
        )
    n = scores.n_cases
    _check_indicators(block, data, n, f"{block.name} determinacy")
    labels = block.factor_labels
    if scores.labels != labels:
        raise StructuralError(
            f"scores are ordered {scores.labels}, expected {labels}"
        )
    k = len(labels)
    cov = moments([scores, *data])
    var, cross = np.diag(cov)[:k], cov[:k, k:]
    scale = var if normalizer == NORMALIZER_VARIANCE else np.sqrt(var)
    coeffs = np.einsum("ij,ij->i", cross / scale[:, None], block.weights())
    tag = (block.name if normalizer == NORMALIZER_SD
           else f"{block.name}-variance-normalized")
    return DeterminacyReport(labels, coeffs, scores.provenance, n, tag)


def determinacy_exo(scores, x_data, model):
    """Benchmark shim: ``determinacy(model.exo, scores, x_data)``."""
    return determinacy(model.exo, scores, x_data)


def determinacy_endo(scores, y_data, model):
    """Benchmark shim: ``determinacy(model.endo, scores, y_data)``."""
    return determinacy(model.endo, scores, y_data)


def closed_form_regression_determinacy(model: SemModel, block: str) -> DeterminacyReport:
    """Population determinacy of exact regression scores per factor.

    The regression-score covariance equals its covariance with the factors,
    so the determinacy is the square root of its diagonal.
    """
    if block not in (EXOGENOUS, ENDOGENOUS):
        raise StructuralError(f"unknown block {block!r}")
    b = model.exo if block == EXOGENOUS else model.endo
    return DeterminacyReport(
        b.factor_labels, np.sqrt(np.diag(b.score_cov())),
        "regression (population)", 0, "closed-form",
    )
