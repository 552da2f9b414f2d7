"""Reference estimators: the simple ratio average and its arbitrage repair."""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSystem
from .estimator import Dataset, FitResult, _fit_result, _residuals
from .exceptions import DataError
from .robust import mad_scale


def ratio_average_fit(dataset: Dataset) -> np.ndarray:
    """Per-child mean of price ratios y_ik / x_i (intercepts implicitly zero)."""
    if np.any(dataset.x == 0.0):
        raise DataError("zero parent price")
    return np.mean(dataset.y / dataset.x[:, None], axis=0)


def rescale_to_no_arbitrage(betas, weights) -> np.ndarray:
    """Divide slopes by their weighted average so it becomes exactly one."""
    b = np.asarray(betas, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = float(w @ b)
    if total <= 0.0:
        raise DataError("nonpositive weighted slope sum; cannot rescale")
    return b / total


def ratio_average_result(dataset: Dataset, system: ConstraintSystem) -> FitResult:
    """Package the ratio-average slopes as a regular fit result."""
    gamma = np.zeros(2 * dataset.n_children)
    gamma[0::2] = ratio_average_fit(dataset)
    scales = mad_scale(_residuals(dataset, gamma), axis=0)
    weights = np.ones(dataset.n_cases)
    return _fit_result(dataset, system, gamma, weights, scales, 0.0, method="ratio-average")
