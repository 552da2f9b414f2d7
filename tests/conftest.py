"""Shared fixtures: published coefficient sets and synthetic data builders."""

import numpy as np
import pytest
from hypothesis import settings

from curveshape import Dataset, constraints_for_weights

# Property tests draw the same examples on every run, so a pass or a failure repeats.
settings.register_profile("curveshape", derandomize=True, deadline=None, database=None)
settings.load_profile("curveshape")

# German-market YtQ coefficient sets (two-decimal / three-decimal published rounding).
MCRM_SLOPES = np.array([1.121, 0.875, 0.921, 1.083])
MCRM_INTERCEPTS = np.array([-1.604, 1.406, 0.930, -0.732])
CLASSICAL_SLOPES = np.array([1.146, 0.857, 0.926, 1.071])
CLASSICAL_INTERCEPTS = np.array([-2.409, 1.830, 0.610, -0.030])
RATIO_AVERAGE_BETAS = np.array([1.0926, 0.8994, 0.9398, 1.0689])

EQUAL_WEIGHTS = np.full(4, 0.25)


def interleave(slopes, intercepts) -> np.ndarray:
    gamma = np.empty(2 * len(slopes))
    gamma[0::2] = slopes
    gamma[1::2] = intercepts
    return gamma


def arbitrage_free_gamma(rng, k: int, weights=None) -> np.ndarray:
    """Random gamma projected onto the non-arbitrage manifold."""
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, float)
    slopes = rng.uniform(0.6, 1.4, k)
    slopes = slopes / float(w @ slopes)
    intercepts = rng.uniform(-2.0, 2.0, k)
    intercepts = intercepts - float(w @ intercepts)
    return interleave(slopes, intercepts)


def synthetic_dataset(
    rng,
    gamma,
    n=200,
    x_level=50.0,
    x_spread=5.0,
    noise=0.5,
    weights=None,
    null_space_noise=False,
):
    """Dataset drawn from an affine model y = A x + B + noise.

    With ``null_space_noise`` the noise is projected so its weighted column
    sum vanishes per case, which keeps any common-row-weight fit exactly on
    the constraint manifold.
    """
    k = len(gamma) // 2
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, float)
    slopes, intercepts = gamma[0::2], gamma[1::2]
    x = x_level + x_spread * rng.standard_normal(n)
    eps = noise * rng.standard_normal((n, k))
    if null_space_noise:
        eps = eps - np.outer(eps @ w, w / (w @ w))
    y = x[:, None] * slopes + intercepts + eps
    return Dataset(x=x, y=y)


@pytest.fixture
def equal_weight_system():
    return constraints_for_weights(EQUAL_WEIGHTS)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
