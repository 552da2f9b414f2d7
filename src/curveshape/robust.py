"""Robust scalar statistics: MAD and Qn scales, bounded weight functions.

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
    """Choice of the case-downweighting function: ``"hampel"`` or ``"bisquare"``.

    The cutoffs are the module constants ``HAMPEL_A/B/R`` and ``BISQUARE_K``.
    """

    kind: str = "hampel"

    def __post_init__(self) -> None:
        if self.kind not in ("hampel", "bisquare"):
            raise ValueError(f"unknown weight function kind: {self.kind!r}")

    def weight(self, x):
        """Downweighting function value(s) for standardized distance ``x``."""
        if self.kind == "hampel":
            return hampel_weight(x)
        return bisquare_weight(x)


def mad_scale(values, axis: int | None = None):
    """Normal-consistent median absolute deviation; with ``axis``, one per slice along it."""
    v = np.asarray(values, dtype=float)
    if (v.size if axis is None else v.shape[axis]) < 2:
        raise ValueError("degenerate sample")
    deviations = np.abs(v - np.median(v, axis=axis, keepdims=True))
    mad = MAD_CONSISTENCY * np.median(deviations, axis=axis)
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
    correction (Rousseeuw & Croux 1993, "Alternatives to the median
    absolute deviation", JASA 88:1273).

    The pairs are never built.  On the sorted sample, row ``i`` of the
    implicit matrix ``y[j] - y[i]`` (``j > i``) is increasing in ``j``, so
    the k-th value is selected as in Croux & Rousseeuw (1992, "Time-efficient
    algorithms for two highly robust estimators of scale"): each row keeps a
    window of candidate columns; every pass takes the weighted median of
    the row medians as a trial value, counts each row's entries below and
    at it by a vectorised binary search, and cuts all windows to the side
    that holds rank k.  A pass removes at least a quarter of the candidates;
    once at most 4n remain they are gathered and finished with
    ``np.partition``.  Memory is O(n) and time O(n log^2 n).

    The binary search compares the computed difference ``y[j] - y[i]``
    with the trial value, never ``y[j]`` with ``y[i] + trial``, whose
    rounding can misclassify a pair.  Since ``fl(a - b) = -fl(b - a)``, the
    result is the same float a full enumeration of ``|v_i - v_j|`` selects.
    """
    y = np.sort(np.asarray(values, dtype=float), axis=None)
    n = y.size
    if n < 2:
        raise ValueError("degenerate sample")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite sample")
    h = n // 2 + 1
    kth = _kth_pairwise_difference(y, h * (h - 1) // 2)
    return QN_CONSISTENCY * _qn_correction(n) * float(kth)


def _kth_pairwise_difference(y: np.ndarray, k: int) -> float:
    """The k-th smallest (1-based) ``y[j] - y[i]`` over ``j > i`` of sorted ``y``."""
    n = y.size
    rows = np.arange(n - 1)
    lo = rows + 1  # first candidate column of each row
    hi = np.full(n - 1, n)  # one past its last candidate column
    below = 0  # entries left of the windows, all smaller than the k-th
    while True:
        keep = lo < hi
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        width = hi - lo
        if width.sum() <= 4 * n:
            break
        mid = lo + (width - 1) // 2
        medians = y[mid] - y[rows]
        order = np.argsort(medians)
        cumulative = np.cumsum(width[order])
        trial = medians[order[np.searchsorted(cumulative, cumulative[-1] / 2)]]
        less = _first_column(y, rows, lo, hi, trial, strict=True)
        n_less = below + int((less - lo).sum())
        if k <= n_less:
            hi = less
            continue
        at_most = _first_column(y, rows, less, hi, trial, strict=False)
        n_at_most = n_less + int((at_most - less).sum())
        if k <= n_at_most:
            return trial
        below, lo = n_at_most, at_most
    cols = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width - lo, width)
    diffs = y[cols] - y[np.repeat(rows, width)]
    return np.partition(diffs, k - below - 1)[k - below - 1]


def _first_column(y, rows, lo, hi, trial, strict: bool) -> np.ndarray:
    """Per row, the first column in ``[lo, hi)`` whose difference is not below
    (``strict``) or not at most ``trial``; ``hi`` when there is none."""
    a, b = lo, hi
    origin = y[rows]
    last = y.size - 1
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (a + b) >> 1
        diff = y[np.minimum(mid, last)] - origin
        under = diff < trial if strict else diff <= trial
        a = np.where(under & (a < b), mid + 1, a)
        b = np.where(under, b, mid)
    return a


def hampel_weight(x):
    """Redescending three-part weight: 1, a/|x|, linear decay, then 0 beyond r."""
    ax = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        out = np.minimum(1.0, HAMPEL_A / ax) * np.clip(
            (HAMPEL_R - ax) / (HAMPEL_R - HAMPEL_B), 0.0, 1.0
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


def bisquare_weight(x):
    """Rescaled derivative of the bisquare loss: (1 - (x/k)^2)^2 inside, 0 outside."""
    u = np.minimum(np.abs(np.asarray(x, dtype=float)) / BISQUARE_K, 1.0)
    out = (1.0 - u**2) ** 2
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
