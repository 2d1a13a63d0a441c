import numpy as np
import pytest

from cpscores import SemModel, example_model
from cpscores.simulate import random_model


@pytest.fixture(scope="session")
def model():
    """The bundled five-factor example model."""
    return example_model()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def small_model(rng):
    return random_model(rng, n_xi=2, n_eta=2)


def heywood_model(model):
    """``model`` with x1's loadings rescaled so its uniqueness is 1e-6."""
    lambda_x = model.lambda_x.copy()
    row = lambda_x[0]
    lambda_x[0] = row * np.sqrt((1.0 - 1e-6) / (row @ model.phi.values @ row))
    return SemModel(lambda_x=lambda_x, phi=model.phi, lambda_y=model.lambda_y,
                    gamma=model.gamma, psi=model.psi)


def spd_matrix(rng, k):
    b = rng.standard_normal((k, k + 3))
    return b @ b.T + 0.1 * np.eye(k)


def exact_corr_values(rng, c, n):
    """``n`` cases whose sample correlation is ``c`` up to rounding:
    orthonormal centred columns times the Cholesky factor of ``c``."""
    z = rng.standard_normal((n, len(c)))
    q, _ = np.linalg.qr(z - z.mean(axis=0))
    return q @ np.linalg.cholesky(c).T
