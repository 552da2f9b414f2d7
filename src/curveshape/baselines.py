"""Reference estimators: the simple ratio average and its arbitrage repair."""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintSystem, arbitrage_gap
from .estimator import Dataset, FitResult
from .exceptions import DataError
from .robust import MAD_CONSISTENCY


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


def ratio_average_result(dataset: Dataset, system: ConstraintSystem | None = None) -> FitResult:
    """Package the ratio-average slopes as a regular fit result."""
    betas = ratio_average_fit(dataset)
    gamma = np.zeros(2 * dataset.n_children)
    gamma[0::2] = betas
    gap = float("nan")
    if system is not None:
        gap = float(np.max(np.abs(arbitrage_gap(system, gamma))))
    residuals = dataset.y - dataset.x[:, None] * betas
    scales = MAD_CONSISTENCY * np.median(np.abs(residuals - np.median(residuals, axis=0)), axis=0)
    return FitResult(
        gamma=gamma,
        case_weights=np.ones(dataset.n_cases),
        iterations=1,
        arbitrage_gap_maxabs=gap,
        residual_scales=scales,
        alpha_used=0.0,
        case_ids=list(dataset.case_ids),
        converged=True,
        method="ratio-average",
    )
