"""Robust scalar statistics: medians, MAD and Qn scales, bounded weight functions.

The downweighting functions map a standardized distance to a weight in
[0, 1].  Hampel's piecewise function keeps full weight up to ``a``, decays
hyperbolically to ``b``, redescends linearly to zero at ``r``; the bisquare
weight is the rescaled derivative of the bounded bisquare loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAD_CONSISTENCY = 1.4826

# Asymptotic normal-consistency factor for the pairwise-difference scale.
QN_CONSISTENCY = 2.2219

# Finite-sample corrections for the pairwise-difference scale, n <= 9.
_QN_SMALL_SAMPLE = {
    2: 0.399,
    3: 0.994,
    4: 0.512,
    5: 0.844,
    6: 0.611,
    7: 0.857,
    8: 0.669,
    9: 0.872,
}

# Standard-normal quantiles at 0.95 / 0.975 / 0.99: the default Hampel cutoffs.
HAMPEL_A = 1.6449
HAMPEL_B = 1.9600
HAMPEL_R = 2.3263

# Conventional 95%-efficiency tuning constant for the bisquare family.
BISQUARE_K = 4.685


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Configuration of the case-downweighting function.

    ``kind`` selects the family; the remaining fields are the cutoffs in
    standardized-distance units.
    """

    kind: str = "hampel"
    hampel_a: float = HAMPEL_A
    hampel_b: float = HAMPEL_B
    hampel_r: float = HAMPEL_R
    bisquare_k: float = BISQUARE_K

    def __post_init__(self) -> None:
        if self.kind not in ("hampel", "bisquare"):
            raise ValueError(f"unknown weight function kind: {self.kind!r}")
        if not 0.0 < self.hampel_a < self.hampel_b < self.hampel_r:
            raise ValueError("hampel cutoffs must satisfy 0 < a < b < r")
        if self.bisquare_k <= 0.0:
            raise ValueError("bisquare_k must be positive")

    def weight(self, x):
        """Downweighting function value(s) for standardized distance ``x``."""
        if self.kind == "hampel":
            return hampel_weight(x, self)
        return bisquare_weight(x, self.bisquare_k)


def median(values) -> float:
    """Standard median: average of the two central order statistics when even."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    return float(np.median(v))


def mad_scale(values, consistency: float = MAD_CONSISTENCY, axis: int | None = None):
    """Normal-consistent median absolute deviation; with ``axis``, one per slice along it."""
    v = np.asarray(values, dtype=float)
    if (v.size if axis is None else v.shape[axis]) < 2:
        raise ValueError("degenerate sample")
    deviations = np.abs(v - np.median(v, axis=axis, keepdims=True))
    mad = consistency * np.median(deviations, axis=axis)
    return float(mad) if axis is None else mad


def _qn_correction(n: int) -> float:
    if n <= 9:
        return _QN_SMALL_SAMPLE[n]
    if n % 2 == 1:
        return n / (n + 1.4)
    return n / (n + 3.8)


def qn_scale(values) -> float:
    """High-breakdown scale from an order statistic of pairwise differences.

    Returns ``d * c_n * {|v_i - v_j| : i < j}_(k)`` with ``k = C(h, 2)``,
    ``h = n // 2 + 1``, ``d = 2.2219`` and ``c_n`` the finite-sample
    correction.  All n (n - 1) / 2 pairs are materialised, O(n^2) in time
    and memory: ``irls_fit`` passes the pooled N * K responses, so a
    365-day -> 24-hour fit (8,760 values) peaks at 1.17 GB.  See the
    ROADMAP item "Qn without O(n^2) pair enumeration".
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise ValueError("degenerate sample")
    i, j = np.triu_indices(n, k=1)
    diffs = np.abs(v[i] - v[j])
    h = n // 2 + 1
    k = h * (h - 1) // 2
    kth = np.partition(diffs, k - 1)[k - 1]
    return QN_CONSISTENCY * _qn_correction(n) * float(kth)


def hampel_weight(x, spec: WeightFunctionSpec | None = None):
    """Redescending three-part weight: 1, a/|x|, linear decay, then 0 beyond r."""
    if spec is None:
        spec = WeightFunctionSpec("hampel")
    a, b, r = spec.hampel_a, spec.hampel_b, spec.hampel_r
    ax = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        hyperbolic = np.where(ax > 0, a / np.where(ax > 0, ax, 1.0), 1.0)
    out = np.select(
        [ax <= a, ax <= b, ax <= r],
        [1.0, hyperbolic, (r - ax) / (r - b) * hyperbolic],
        default=0.0,
    )
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def bisquare_loss(x, k: float = BISQUARE_K):
    """Bounded bisquare loss, flat at k^2/6 beyond the cutoff."""
    if k <= 0:
        raise ValueError("bisquare_k must be positive")
    xa = np.asarray(x, dtype=float)
    inside = (k * k / 6.0) * (1.0 - (1.0 - xa * xa / (k * k)) ** 3)
    out = np.where(np.abs(xa) <= k, inside, k * k / 6.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def bisquare_weight(x, k: float = BISQUARE_K):
    """Rescaled derivative of the bisquare loss: (1 - (x/k)^2)^2 inside, 0 outside."""
    if k <= 0:
        raise ValueError("bisquare_k must be positive")
    xa = np.asarray(x, dtype=float)
    out = np.where(np.abs(xa) <= k, (1.0 - (xa / k) ** 2) ** 2, 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
