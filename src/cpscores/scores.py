"""Factor score families and the correlation-preserving transformation.

Score construction comes in two routes:

* the data route: take an existing score matrix (typically mean plausible
  values or regression scores), standardize it, and rotate it with
  ``C^{1/2} C_P^{-1/2}`` so its sample correlation becomes the model-implied
  factor correlation C (:func:`cp_transform`);
* the parameter route: build the correlation-preserving scores directly
  from model parameters and raw indicator data, either by substituting the
  regression-score moments into the transformation
  (:func:`cp_scores_from_params`) or by rescaling the orthogonal score
  (:func:`cp_scores_from_orthogonal`).

All functions are pure.  Indicator data are centred a block of rows at a
time inside the weight product (:func:`cpscores.linalg.centred_product`),
and each result is frozen so its ScoreMatrix adopts it without a copy.
"""

from __future__ import annotations

import numpy as np

from .containers import FactorCorr, ScoreMatrix, DataMatrix
from .errors import StructuralError
from .linalg import centred_product, corr_from_cov, moments, sym_inv_sqrt, sym_sqrt
from .model import Block, SemModel

PROV_REGRESSION = "regression"
PROV_ORTHOGONAL = "orthogonal"
PROV_CP = "correlation-preserving"


def _check_data(data: DataMatrix, expected: int, what: str) -> np.ndarray:
    if data.n_vars != expected:
        raise StructuralError(
            f"{what}: data has {data.n_vars} columns, model expects {expected}"
        )
    return data.values


def regression_scores(block: Block, data: DataMatrix) -> ScoreMatrix:
    """Regression factor scores for the factors of one block, e.g.
    ``model.exo`` with the x data or ``model.endo`` with the y data."""
    x = _check_data(data, len(block.indicator_labels), f"{block.name} scores")
    return ScoreMatrix(
        centred_product([x], block.weights()),
        block.factor_labels,
        block.factor_blocks,
        PROV_REGRESSION,
    )


def joint_regression_weights(model: SemModel) -> np.ndarray:
    """Weights of the best linear predictor of all factors from all
    indicators jointly: C lambda' sigma^{-1} over the stacked (x, y) block.

    This is the population analogue of a posterior-mean factor score that
    conditions on every observed variable, which is how mean plausible
    values behave; the per-block regression scores above condition on one
    indicator block only.
    """
    return model.joint.weights()


def joint_regression_scores(
    model: SemModel, x_data: DataMatrix, y_data: DataMatrix
) -> ScoreMatrix:
    """Regression scores for all factors conditioning on x and y jointly."""
    x = _check_data(x_data, model.n_x, "joint_regression_scores")
    y = _check_data(y_data, model.n_y, "joint_regression_scores")
    if x_data.n_cases != y_data.n_cases:
        raise StructuralError(
            f"x has {x_data.n_cases} cases but y has {y_data.n_cases}"
        )
    return ScoreMatrix(
        centred_product([x, y], joint_regression_weights(model)),
        model.factor_labels,
        model.factor_blocks,
        PROV_REGRESSION,
    )


def _score_cov(block: Block) -> np.ndarray:
    """:meth:`Block.score_cov`, refused if a score variance is not positive."""
    a = block.score_cov()
    d = np.diag(a)
    if np.min(d) <= 0.0:
        i = int(np.argmin(d))
        raise StructuralError(
            f"degenerate determinacy: score variance {d[i]:.3e} "
            f"for factor {block.factor_labels[i]}"
        )
    return a


def score_corr(block: Block) -> FactorCorr:
    """Population correlation of the block's regression scores.

    The regression score does not preserve C: its covariance is
    A = C lambda' sigma^{-1} lambda C (:meth:`Block.score_cov`), and this
    returns diag(A)^{-1/2} A diag(A)^{-1/2}.
    """
    return FactorCorr(block.factor_labels, corr_from_cov(_score_cov(block)))


# ---------------------------------------------------------------------------
# the correlation-preserving transformation (data route)

def cp_transform(
    p: ScoreMatrix,
    c_target: FactorCorr,
    c_p: FactorCorr | None = None,
    score_variances: np.ndarray | None = None,
) -> ScoreMatrix:
    """Rotate scores so their correlation matrix equals ``c_target``.

    The input is mean-centered and scaled to unit column variances, then
    multiplied by ``c_target^{1/2} c_p^{-1/2}``.  When ``c_p`` is omitted it
    is the sample correlation of ``p``, in which case the sample correlation
    of the result equals ``c_target`` up to floating point.  A supplied
    ``c_p`` (e.g. a model-implied score correlation) is used as-is; pair it
    with the matching ``score_variances`` (population column variances used
    for the standardization step) to stay on model-implied moments
    throughout.  A constant score column raises DataError naming it.
    """
    if c_target.labels != p.labels:
        raise StructuralError(
            f"target correlation is ordered {c_target.labels}, "
            f"scores are ordered {p.labels}"
        )
    centred, cov = moments(p.values, p.labels)
    if score_variances is None:
        sd = np.sqrt(np.diag(cov))
    else:
        score_variances = np.asarray(score_variances, dtype=float)
        if score_variances.shape != (p.n_factors,) or np.any(score_variances <= 0):
            raise StructuralError(
                "score_variances must give one positive variance per factor"
            )
        sd = np.sqrt(score_variances)
    if c_p is not None and c_p.labels != p.labels:
        raise StructuralError(
            f"score correlation is ordered {c_p.labels}, "
            f"scores are ordered {p.labels}"
        )
    r = corr_from_cov(cov) if c_p is None else c_p.values
    t = sym_sqrt(c_target.values) @ sym_inv_sqrt(r)
    values = centred @ (t / sd).T
    values.setflags(write=False)
    return ScoreMatrix(values, p.labels, p.blocks, PROV_CP)


# ---------------------------------------------------------------------------
# parameter route

def cp_scores_from_params(model: SemModel, x_data: DataMatrix) -> ScoreMatrix:
    """Correlation-preserving exogenous scores directly from parameters.

    Substitutes the population regression-score moments into the
    transformation: the weight matrix is
    ``phi^{1/2} r^{-1/2} diag(a)^{-1/2} phi lambda_x' sigma_x^{-1}`` with
    ``a`` the regression-score covariance and ``r`` its correlation.  The
    population covariance of the result is phi.
    """
    x = _check_data(x_data, model.n_x, "cp_scores_from_params")
    block = model.exo
    a = _score_cov(block)
    d_inv = np.diag(1.0 / np.sqrt(np.diag(a)))
    r = corr_from_cov(a)
    w = sym_sqrt(block.corr) @ sym_inv_sqrt(r) @ d_inv @ block.weights()
    return ScoreMatrix(
        centred_product([x], w), block.factor_labels, block.factor_blocks, PROV_CP
    )


def orthogonal_scores(model: SemModel, x_data: DataMatrix) -> ScoreMatrix:
    """Orthogonal factor scores (Takeuchi/Anderson-Rubin construction).

    Weights ``(lambda_x' sigma_x^{-1} lambda_x)^{-1/2} lambda_x' sigma_x^{-1}``;
    the population covariance of the scores is the identity.
    """
    x = _check_data(x_data, model.n_x, "orthogonal_scores")
    block = model.exo
    sigma_inv_l = block.sigma_inv_loadings()
    m = block.loadings.T @ sigma_inv_l
    w = sym_inv_sqrt((m + m.T) / 2.0) @ sigma_inv_l.T
    return ScoreMatrix(
        centred_product([x], w), block.factor_labels, block.factor_blocks,
        PROV_ORTHOGONAL,
    )


def cp_scores_from_orthogonal(model: SemModel, x_data: DataMatrix) -> ScoreMatrix:
    """Correlation-preserving exogenous scores as ``phi^{1/2}`` times the
    orthogonal score; population covariance phi."""
    ortho = orthogonal_scores(model, x_data)
    values = ortho.values @ sym_sqrt(model.phi.values).T
    values.setflags(write=False)
    return ortho.replace_values(values, PROV_CP)
