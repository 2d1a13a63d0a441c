"""Factor score families and the correlation-preserving transformation.

Every family built from indicator data is one weight matrix ``w`` of a
block (:class:`cpscores.model.Block`) applied to its centred indicators,
one data matrix per loading block: regression scores ``C L' sigma^{-1}``,
orthogonal scores ``(L' sigma^{-1} L)^{-1/2} L' sigma^{-1}``, and
correlation-preserving scores from parameters, which premultiply the
regression weights by the multiplier below, or the orthogonal weights by
``C^{1/2}``, C the block's FactorCorr.  A block keeps each of its weight
matrices, so repeated scoring under one model repeats only the product
with the data.

The correlation-preserving multiplier ``C^{1/2} R^{-1/2} diag(cov)^{-1/2}``
(:func:`cpscores.linalg.cp_multiplier`) standardizes scores of covariance
``cov`` (correlation R) and rotates them to correlation C.  The data route
(:func:`cp_transform`) takes ``cov`` from the sample, so the sample
correlation of its result is C up to floating point; the parameter route
(:func:`cp_scores_from_params`) takes the population covariance of the
regression scores.

All functions are pure.  Indicator data are centred a block of rows at a
time inside the weight product (:func:`cpscores.linalg.centred_product`),
and each result is frozen so its ScoreMatrix adopts it without a copy.
"""

from __future__ import annotations

from .containers import FactorCorr, ScoreMatrix, DataMatrix
from .errors import StructuralError
from .linalg import centred_product, corr_sqrt, cp_multiplier, moments
from .model import Block, SemModel, _indicator_values

PROV_REGRESSION = "regression"
PROV_ORTHOGONAL = "orthogonal"
PROV_CP = "correlation-preserving"


def _scores(block: Block, data, w, provenance) -> ScoreMatrix:
    """``hstack([d - mean(d) for d in data]) @ w.T``, one column per factor
    of ``block``, with one DataMatrix per entry of its loading blocks
    (:func:`cpscores.model._indicator_values`)."""
    values = _indicator_values(block, data, None, f"{provenance} scores")
    return ScoreMatrix(centred_product(values, w), block.factor_labels, provenance)


def regression_scores(block: Block, *data: DataMatrix) -> ScoreMatrix:
    """Regression factor scores for the factors of a block: ``model.exo``
    with the x data, ``model.endo`` with the y data or ``model.joint``
    with both."""
    return _scores(block, data, block.weights(), PROV_REGRESSION)


def joint_regression_scores(
    model: SemModel, x_data: DataMatrix, y_data: DataMatrix
) -> ScoreMatrix:
    """Regression scores for all factors conditioning on x and y jointly,
    ``regression_scores(model.joint, x_data, y_data)``.

    Their weights ``C L' sigma^{-1}`` over the stacked (x, y) block give
    the best linear predictor of every factor from every indicator: the
    population analogue of a posterior-mean factor score that conditions
    on every observed variable, which is how mean plausible values behave,
    so these scores stand in for them.  The per-block regression scores
    condition on one indicator block only.
    """
    return regression_scores(model.joint, x_data, y_data)


def cp_transform(p: ScoreMatrix, c_target: FactorCorr) -> ScoreMatrix:
    """Rotate scores so their sample correlation matrix equals ``c_target``
    up to floating point (the data route).

    Two passes over the scores: the first sums their sample covariance,
    the second centres them and applies its correlation-preserving
    multiplier, a row block at a time.  A constant score column raises
    DataError naming it.
    """
    if c_target.labels != p.labels:
        raise StructuralError(
            f"target correlation is ordered {c_target.labels}, "
            f"scores are ordered {p.labels}"
        )
    cov = moments([p.values], p.labels)[1]
    what = f"sample correlation of the scores ({', '.join(p.labels)})"
    values = centred_product(
        [p.values], cp_multiplier(corr_sqrt(c_target), cov, what))
    return p.replace_values(values, PROV_CP)


def cp_scores_from_params(model: SemModel, x_data: DataMatrix) -> ScoreMatrix:
    """Correlation-preserving exogenous scores directly from parameters.

    Substitutes the population regression-score covariance ``a`` into the
    transformation: the weight matrix is
    ``phi^{1/2} r^{-1/2} diag(a)^{-1/2} phi lambda_x' sigma_x^{-1}`` with
    ``r`` the correlation of ``a`` (:meth:`Block.cp_weights`).  The
    population covariance of the result is phi.
    """
    return _scores(model.exo, [x_data], model.exo.cp_weights(), PROV_CP)


def orthogonal_scores(model: SemModel, x_data: DataMatrix) -> ScoreMatrix:
    """Orthogonal factor scores (Takeuchi/Anderson-Rubin construction).

    Weights ``(lambda_x' sigma_x^{-1} lambda_x)^{-1/2} lambda_x' sigma_x^{-1}``
    (:meth:`Block.orthogonal_weights`); the population covariance of the
    scores is the identity.
    """
    return _scores(
        model.exo, [x_data], model.exo.orthogonal_weights(), PROV_ORTHOGONAL
    )


def cp_scores_from_orthogonal(block: Block, *data: DataMatrix) -> ScoreMatrix:
    """Correlation-preserving scores of a block as ``C^{1/2}`` times its
    orthogonal score, with weights ``C^{1/2}`` times the orthogonal
    weights, C the block's factor correlation; population covariance C."""
    w = corr_sqrt(block.corr) @ block.orthogonal_weights()
    return _scores(block, data, w, PROV_CP)
