"""Data generation from a model, random test models, and the bundled
example verification run.

Factor draws mix i.i.d. standard normals with the symmetric square root of
the combined factor correlation matrix, which the model keeps (the choice
between a symmetric and a triangular factor only affects which rotation of
the latent space is drawn, not its correlation structure; the symmetric
root is fixed here for reproducibility).

The generator is numpy's PCG64, one stream per block of ``SIM_BLOCK``
rows: stream 0 is ``default_rng(seed)``, stream k >= 1 is
``default_rng(SeedSequence(seed, spawn_key=(k - 1,)))``, the k-th child of
numpy's ``SeedSequence(seed).spawn``.  Block k draws its factor normals,
then its x unique variates, then its y unique variates from its stream,
the variates in the :func:`cpscores.linalg.row_blocks` of the block.  A
value depends only on its block's stream, so the blocks are shared over
the threads of :func:`cpscores.linalg._in_threads` with the same result
for any thread count and whichever thread draws a block, and a dataset
of at most ``SIM_BLOCK`` rows is the one stream of ``default_rng(seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .containers import DataMatrix, ScoreMatrix
from .determinacy import determinacy
from .errors import DataError
from .io import model_hash, parse_model_file
from .linalg import _in_threads, corr_from_cov, corr_sqrt, moments, row_blocks
from .model import SemModel, combined_factor_corr
from .regression import standardized_betas
from .scores import cp_scores_from_params, cp_transform, regression_scores

# Rows per random stream: the smallest power of two at or above the
# verification run's default case count, so that run draws one stream.
SIM_BLOCK = 16384

RNG_NAME = f"numpy default_rng (PCG64), one stream per {SIM_BLOCK} rows"


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    model: SemModel
    n_cases: int
    seed: int
    emit_true_factors: bool = True

    def __post_init__(self):
        for name, value, least, rule in (
                ("n_cases", self.n_cases, 2, "an integer of at least 2"),
                ("seed", self.seed, 0, "a non-negative integer")):
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < least):
                raise DataError(f"{name} must be {rule}, got {value!r}")


def _stream(seed: int, k: int) -> np.random.Generator:
    """The generator of block ``k`` (see the module docstring)."""
    if k == 0:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k - 1,)))


def simulate_dataset(
    spec: SimulationSpec,
) -> tuple[DataMatrix, DataMatrix, ScoreMatrix | None]:
    """Draw (x, y, true factor scores) from the model.

    Factors are jointly multivariate normal with the model-implied factor
    correlation; indicators add independent normal unique variates so every
    marginal variance is 1 in expectation.  Without true factors, no more
    than one block of factors per thread is held.
    """
    model = spec.model
    c_sqrt = corr_sqrt(combined_factor_corr(model))
    n = spec.n_cases
    factors = np.empty((n, len(c_sqrt))) if spec.emit_true_factors else None
    # x, then y: factor columns, loadings', unique sds (read here: a block
    # keeps its uniqueness on first use) and the values
    indicators = [
        (cols, block.loadings.T, np.sqrt(block.uniqueness()),
         np.empty((n, len(block.indicator_labels))))
        for block, cols in ((model.exo, np.s_[:, : model.n_xi]),
                            (model.endo, np.s_[:, model.n_xi:]))
    ]
    count = -(-n // SIM_BLOCK)

    def draw(_, k):
        # the values of the whole-block ``normals @ c_sqrt`` and
        # ``f @ loadings' + draw * sd``, a row block at a time in place
        rows = slice(k * SIM_BLOCK, min(n, (k + 1) * SIM_BLOCK))
        rng = _stream(spec.seed, k)
        if factors is None:
            f = np.empty((rows.stop - rows.start, len(c_sqrt)))
        else:
            f = factors[rows]
        rng.standard_normal(out=f)
        for sub in row_blocks(len(f)):
            f[sub] = f[sub] @ c_sqrt
        for cols, loadings_t, sd, values in indicators:
            common, out = f[cols], values[rows]
            for sub in row_blocks(len(out)):
                part = out[sub]
                rng.standard_normal(out=part)
                part *= sd
                part += common[sub] @ loadings_t

    _in_threads(draw, count)
    (*_, x), (*_, y) = indicators
    true_scores = None
    if factors is not None:
        factors.setflags(write=False)
        true_scores = ScoreMatrix(factors, model.factor_labels, "simulated-true")
    x.setflags(write=False)
    y.setflags(write=False)
    return (DataMatrix(x, model.exo.indicator_labels),
            DataMatrix(y, model.endo.indicator_labels), true_scores)


# ---------------------------------------------------------------------------
# random valid models for property and acceptance testing

def random_correlation(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random positive definite correlation matrix of order k."""
    for _ in range(100):
        b = rng.standard_normal((k, k + 5))
        r = corr_from_cov(b @ b.T)
        w = np.linalg.eigvalsh(r)
        if w[0] > 1e-6 * w[-1]:
            return r
    raise DataError("failed to draw a positive definite correlation matrix")


def random_model(
    rng: np.random.Generator,
    n_xi: int = 3,
    n_eta: int = 2,
    indicators_per_factor: int = 3,
) -> SemModel:
    """Random completely standardized model with simple-structure loadings.

    Salient loadings are drawn in [0.5, 0.85] with small cross loadings, so
    implied uniquenesses stay positive; structural paths are scaled so each
    endogenous factor keeps a positive residual variance.
    """

    def loading_block(n_factors):
        rows = n_factors * indicators_per_factor
        loadings = rng.uniform(-0.04, 0.04, size=(rows, n_factors))
        for j in range(n_factors):
            sl = slice(j * indicators_per_factor, (j + 1) * indicators_per_factor)
            loadings[sl, j] = rng.uniform(0.5, 0.85, size=indicators_per_factor)
        return loadings

    phi = random_correlation(rng, n_xi)
    gamma = rng.uniform(-1.0, 1.0, size=(n_eta, n_xi))
    explained = np.einsum("ij,jk,ik->i", gamma, phi, gamma)
    target = rng.uniform(0.05, 0.5, size=n_eta)
    gamma *= np.sqrt(target / np.maximum(explained, 1e-12))[:, None]
    # residual covariance built from a correlation matrix scaled to the
    # unexplained variances, so the combined factor correlation is positive
    # definite by construction
    resid_sd = np.sqrt(1.0 - target)
    psi = random_correlation(rng, n_eta) * np.outer(resid_sd, resid_sd)
    return SemModel(
        lambda_x=loading_block(n_xi),
        phi=phi,
        lambda_y=loading_block(n_eta),
        gamma=gamma,
        psi=psi,
    )


# ---------------------------------------------------------------------------
# bundled example and its verification run

def example_model() -> SemModel:
    """The bundled five-factor example model."""
    path = resources.files("cpscores").joinpath("data/example.model")
    with resources.as_file(path) as p:
        return parse_model_file(p)


# Published reference values the verification run reproduces: determinacy
# rows for the plain and correlation-preserving score families, and the
# direction of the bias of plain-score betas relative to the model paths.
REFERENCE_PLAIN_DETERMINACY = (0.97, 0.97, 0.97, 0.97, 0.85)
REFERENCE_CP_DETERMINACY = (0.97, 0.97, 0.97, 0.99, 0.82)
DETERMINACY_TOL = 0.02
BETA_TOL = 0.02
SAMPLE_CORR_TOL = 0.03
# (exogenous index, endogenous index): plain-score betas reported for the
# example exceed the model path for these entries.
INFLATED_BETA_ENTRIES = ((0, 0), (2, 1))
DEFAULT_SEED = 0
DEFAULT_N_CASES = 10_000


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, eq=False)
class ExampleReport:
    seed: int
    n_cases: int
    rng: str
    model_hash: str
    plain_betas: np.ndarray
    cp_betas: np.ndarray
    gamma_by_xi: np.ndarray
    plain_determinacy: np.ndarray
    cp_determinacy: np.ndarray
    checks: tuple[ExampleCheck, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            "verification run of the bundled example",
            f"  seed: {self.seed}   cases: {self.n_cases}   rng: {self.rng}",
            f"  model hash: {self.model_hash}",
            "",
            "standardized betas (rows = exogenous, columns = endogenous):",
            "  model paths:",
            _fmt_matrix(self.gamma_by_xi, "    "),
            "  plain scores (posterior-mean proxy, all indicators):",
            _fmt_matrix(self.plain_betas, "    "),
            "  correlation-preserving scores:",
            _fmt_matrix(self.cp_betas, "    "),
            "",
            "determinacy coefficients (xi1..xi3, eta1, eta2):",
            f"  plain regression scores:       {_fmt_row(self.plain_determinacy)}",
            f"  reference values:              {_fmt_row(REFERENCE_PLAIN_DETERMINACY)}",
            f"  correlation-preserving scores: {_fmt_row(self.cp_determinacy)}",
            f"  reference values:              {_fmt_row(REFERENCE_CP_DETERMINACY)}",
            "",
            "checks:",
        ]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _fmt_row(values):
    # unsigned 0.000, so the last bits of a zero path's estimate don't show
    return "  ".join(f"{v:6.3f}".replace("-0.000", " 0.000") for v in values)


def _fmt_matrix(m, indent):
    return "\n".join(indent + _fmt_row(row) for row in np.atleast_2d(m))


def run_example(seed: int = DEFAULT_SEED, n_cases: int = DEFAULT_N_CASES) -> ExampleReport:
    """Simulate the bundled example and compare both score families against
    the published reference values.

    The plain-score panel uses joint regression scores (conditioning on all
    indicators) as the mean-plausible-value proxy, since that is the
    quantity mean plausible values estimate; the determinacy rows use the
    per-block regression scores and the correlation-preserving transform of
    the proxy scores.
    """
    model = example_model()
    x_data, y_data, _ = simulate_dataset(
        SimulationSpec(model, n_cases, seed, emit_true_factors=False)
    )
    c = combined_factor_corr(model)

    # plain panel: posterior-mean proxy scores for all five factors
    proxy = regression_scores(model.joint, x_data, y_data)
    proxy_xi = proxy.select(model.xi_labels)
    proxy_eta = proxy.select(model.eta_labels)
    plain_betas = standardized_betas(proxy_xi, proxy_eta)

    # correlation-preserving panel: joint transform of the proxy scores
    cp = cp_transform(proxy, c)
    cp_xi = cp.select(model.xi_labels)
    cp_eta = cp.select(model.eta_labels)
    cp_betas = standardized_betas(cp_xi, cp_eta)

    # determinacy rows: per-block regression scores vs the cp scores
    reg_xi = regression_scores(model.exo, x_data)
    reg_eta = regression_scores(model.endo, y_data)
    plain_det = np.concatenate([
        determinacy(model.exo, reg_xi, x_data).coefficients,
        determinacy(model.endo, reg_eta, y_data).coefficients,
    ])
    cp_det = np.concatenate([
        determinacy(model.exo, cp_xi, x_data).coefficients,
        determinacy(model.endo, cp_eta, y_data).coefficients,
    ])

    gamma_by_xi = model.gamma.T
    checks = []

    dev = np.max(np.abs(cp_betas - gamma_by_xi))
    checks.append(ExampleCheck(
        "cp betas match model paths",
        dev <= BETA_TOL,
        f"max |beta - path| = {dev:.2e} (tol {BETA_TOL})",
    ))

    for i, j in INFLATED_BETA_ENTRIES:
        path = gamma_by_xi[i, j]
        val = plain_betas[i, j]
        checks.append(ExampleCheck(
            f"plain beta bias direction ({model.xi_labels[i]}->{model.eta_labels[j]})",
            val > path,
            f"plain beta {val:.3f} vs path {path:.3f} (reference run inflates)",
        ))

    dev = np.max(np.abs(plain_det - np.asarray(REFERENCE_PLAIN_DETERMINACY)))
    checks.append(ExampleCheck(
        "plain determinacies match reference",
        dev <= DETERMINACY_TOL,
        f"max deviation {dev:.3f} (tol {DETERMINACY_TOL})",
    ))
    dev = np.max(np.abs(cp_det - np.asarray(REFERENCE_CP_DETERMINACY)))
    checks.append(ExampleCheck(
        "cp determinacies match reference",
        dev <= DETERMINACY_TOL,
        f"max deviation {dev:.3f} (tol {DETERMINACY_TOL})",
    ))

    # parameter route: the cp scores `scores --method cp-params` writes keep phi
    cp_param = cp_scores_from_params(model, x_data)
    dev = np.max(np.abs(
        corr_from_cov(moments([cp_param])) - model.phi.values))
    checks.append(ExampleCheck(
        "parameter-route cp scores reproduce phi",
        dev <= SAMPLE_CORR_TOL,
        f"max |sample corr - phi| = {dev:.3f} (tol {SAMPLE_CORR_TOL})",
    ))

    return ExampleReport(
        seed=seed,
        n_cases=n_cases,
        rng=RNG_NAME,
        model_hash=model_hash(model),
        plain_betas=plain_betas,
        cp_betas=cp_betas,
        gamma_by_xi=gamma_by_xi,
        plain_determinacy=plain_det,
        cp_determinacy=cp_det,
        checks=tuple(checks),
    )
