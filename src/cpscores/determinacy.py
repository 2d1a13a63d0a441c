"""Determinacy coefficients: correlation between a factor score column and
the factor it estimates.

The estimator correlates each centered score column with the best linear
predictor of its factor, using sample cross-moments with divisor (n - 1)
and the model-implied indicator covariance:

    diag( diag(P'P/(n-1))^{-1/2} . P'X/(n-1) . sigma^{-1} lambda C )

where ``C lambda' sigma^{-1}`` is the block's regression weight matrix
(:meth:`cpscores.model.Block.weights`).  It is exact for scores linear in
that block's indicators alone, plain or correlation-preserving; scores
that also use the other block's indicators can give a coefficient above
1.  The score moments come from :func:`cpscores.linalg.moments`, which
refuses a constant score column, and the cross moment is summed over the
row blocks of the scores and the data side by side
(:func:`cpscores.linalg.centred_blocks`), with no centred copy of either.
A closed-form population value for exact regression scores is provided as
an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containers import ENDOGENOUS, EXOGENOUS, DataMatrix, ScoreMatrix
from .errors import DataError, StructuralError
from .linalg import centred_blocks, moments
from .model import Block, SemModel

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
        return f"determinacy[{self.variant}; {self.score_provenance}]: {pairs}"


def _determinacy(scores, data, block: Block, normalizer):
    if normalizer not in (NORMALIZER_SD, NORMALIZER_VARIANCE):
        raise StructuralError(
            f"unknown determinacy normalizer {normalizer!r}: expected "
            f"{NORMALIZER_SD!r} or {NORMALIZER_VARIANCE!r}"
        )
    if scores.n_cases != data.n_cases:
        raise StructuralError(
            f"scores have {scores.n_cases} rows, data has {data.n_cases}"
        )
    n = scores.n_cases
    labels = block.factor_labels
    if scores.labels != labels:
        raise StructuralError(
            f"scores are ordered {scores.labels}, expected {labels}"
        )
    var = np.diag(moments([scores.values], labels)[1])
    k = len(labels)
    cross = np.zeros((k, data.n_vars))
    for _, z in centred_blocks([scores.values, data.values]):
        cross += z[:, :k].T @ z[:, k:]
    cross /= n - 1
    scale = var if normalizer == NORMALIZER_VARIANCE else np.sqrt(var)
    coeffs = np.einsum("ij,ij->i", cross / scale[:, None], block.weights())
    tag = (block.name if normalizer == NORMALIZER_SD
           else f"{block.name}-variance-normalized")
    return DeterminacyReport(labels, coeffs, scores.provenance, n, tag)


def determinacy_exo(
    scores: ScoreMatrix,
    x_data: DataMatrix,
    model: SemModel,
    normalizer: str = NORMALIZER_SD,
) -> DeterminacyReport:
    """Determinacy of exogenous-factor scores against the x indicators."""
    return _determinacy(scores, x_data, model.exo, normalizer)


def determinacy_endo(
    scores: ScoreMatrix,
    y_data: DataMatrix,
    model: SemModel,
    normalizer: str = NORMALIZER_SD,
) -> DeterminacyReport:
    """Determinacy of endogenous-factor scores against the y indicators."""
    return _determinacy(scores, y_data, model.endo, normalizer)


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
