"""Constrained robust regression of shaping coefficients.

The estimator couples K per-child affine regressions through a quadratic
penalty on the non-arbitrage equalities and iterates case reweighting:
rows are weighted, the penalized weighted least squares problem is solved
in closed form, and weights are refreshed from robustly standardized
residual distances until the intercepts stop moving.  The classical
single solve and the ratio-average baseline build their results here too.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constraints import FEASIBILITY_TOLERANCE, ConstraintSystem, arbitrage_gap, split_from_config
from .exceptions import DataError, DegenerateScaleWarning, NumericalError, _floats, _integral
from .robust import WeightFunctionSpec, _mad, _median, mad_scale, qn_scale

_SCALE_FLOOR = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@dataclass
class Dataset:
    """Paired observations: parent price x_i against K child prices y_i."""

    x: np.ndarray
    y: np.ndarray
    case_ids: list[str] | None = None

    def __post_init__(self) -> None:
        self.x = _floats(self.x, "x")
        self.y = _floats(self.y, "y")
        if self.y.ndim == 1:
            self.y = self.y[:, None]
        if self.x.ndim != 1 or self.y.ndim != 2 or self.y.shape[0] != self.x.shape[0]:
            raise DataError("x must be (N,) and y (N, K) with matching N")
        if self.x.shape[0] < 3:
            raise DataError("need at least 3 cases")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise DataError("non-finite values in dataset")
        x_spread = float(self.x.max()) - float(self.x.min())  # a Python float overflows quietly
        if x_spread == 0.0:
            raise DataError("parent prices are constant; slopes unidentifiable")
        spread = max(x_spread, float(self.y.max()) - float(self.y.min()))
        if not self.y.size * spread * spread < np.inf:  # the fit sums squared price differences
            raise NumericalError("prices spread too wide: their squared differences overflow a float")
        if self.case_ids is None:
            self.case_ids = [f"case-{i:05d}" for i in range(self.x.shape[0])]
        if len(self.case_ids) != self.x.shape[0]:
            raise DataError("case_ids length disagrees with N")

    @property
    def n_cases(self) -> int:
        return self.x.shape[0]

    @property
    def n_children(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Estimator knobs.

    ``alpha_multiplier`` scales the constraint penalty alpha = c * N * s(Y)
    with s the pooled response scale; it is a real c >= 0 (``inf`` allowed)
    or the string ``"auto"``, which means c = 1.  A zero s(Y) with c > 0
    gives the exact equality-constrained limit (alpha = inf).
    ``scale_estimator`` picks the column-residual standardization scale.
    With ``feasibility_retry`` a fit whose ``arbitrage_gap`` exceeds
    ``constraints.FEASIBILITY_TOLERANCE``, or is NaN, is re-run once at the
    exact equality-constrained limit (alpha = inf); that is the tolerance
    ``apply_level`` and ``check-arbitrage`` hold coefficients to.
    """

    weight_spec: WeightFunctionSpec = field(default_factory=WeightFunctionSpec)
    alpha_multiplier: float | str = "auto"
    scale_estimator: str = "mad"
    tolerance: float = 1e-8
    max_iterations: int = 100
    feasibility_retry: bool = True

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise DataError("tolerance must be positive")
        if not _integral(self.max_iterations):
            raise DataError(f"max_iterations must be an integer, not {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")
        if self.scale_estimator not in ("mad", "qn"):
            raise DataError(f"unknown scale estimator: {self.scale_estimator!r}")
        c = self.alpha_multiplier
        real = isinstance(c, numbers.Real) and not isinstance(c, bool)
        if not (c == "auto" or (real and c >= 0)):
            raise DataError(f"alpha_multiplier must be 'auto' or a real number >= 0, not {c!r}")


@dataclass
class FitResult:
    """Fitted coefficients with per-case weights and diagnostics."""

    gamma: np.ndarray
    case_weights: np.ndarray
    iterations: int
    arbitrage_gap_maxabs: float
    residual_scales: np.ndarray
    alpha_used: float
    case_ids: list[str]
    converged: bool = True
    degenerate_scale: bool = False
    method: str = "mcrm"

    @property
    def slopes(self) -> np.ndarray:
        return self.gamma[0::2]

    @property
    def intercepts(self) -> np.ndarray:
        return self.gamma[1::2]

    def predict(self, x) -> np.ndarray:
        xa = _floats(x, "x")
        return xa[..., None] * self.slopes + self.intercepts

    def to_report(self) -> dict:
        return {
            "method": self.method,
            "coefficients": {
                f"{c}{j + 1}": float(g) for j, pair in enumerate(self.gamma.reshape(-1, 2)) for c, g in zip("AB", pair)
            },
            "case_weights": {
                cid: float(w) for cid, w in zip(self.case_ids, self.case_weights)
            },
            "diagnostics": {
                "iterations": self.iterations,
                "converged": self.converged,
                "arbitrage_gap_maxabs": float(self.arbitrage_gap_maxabs),
                # The exact-limit fallback runs at alpha = inf, which strict JSON lacks.
                "alpha_used": None if np.isinf(self.alpha_used) else float(self.alpha_used),
                "residual_scales": [float(s) for s in self.residual_scales],
                "degenerate_scale": self.degenerate_scale,
            },
        }


def gamma_from_report(report: dict, child_labels=None, parent: str | None = None) -> np.ndarray | None:
    """A fit report's interleaved (A, B) pairs, one for each of ``child_labels`` in that order.

    A report with a ``split`` block, as ``fit`` writes, holds the pair of
    that block's j-th child in place j, and must list the same children;
    given ``parent``, one fitted to another parent gives None.  Without the
    block or ``child_labels``, the report's own order is kept.
    """
    try:
        coeffs = report["coefficients"]
        if not isinstance(coeffs, dict):
            raise DataError("fit report 'coefficients' must be an object")
        values = [coeffs[f"{c}{j + 1}"] for j in range(len(coeffs) // 2) for c in "AB"]
    except KeyError as exc:
        raise DataError(f"fit report has no {exc.args[0]!r} key") from exc
    gamma = _floats(values, "fit report coefficients")
    if gamma.ndim != 1:
        raise DataError("fit report coefficients must be numbers, not lists")
    if "split" not in report or child_labels is None:
        return gamma
    fitted = split_from_config(report["split"])
    if parent is not None and parent != fitted.parent_label:
        return None
    labels = fitted.child_labels
    order = [labels.index(label) if label in labels else -1 for label in child_labels]  # by ==: any JSON label
    if gamma.size != 2 * len(labels) or sorted(order) != list(range(len(labels))):
        raise DataError(f"fit report's {gamma.size // 2} pairs for {list(labels)} cannot pair {list(child_labels)}")
    return gamma.reshape(-1, 2)[order].reshape(-1)


def _initial_weights(
    dataset: Dataset, spec: WeightFunctionSpec
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Starting case weights from coarse x- and y-outlyingness, with the x weights.

    The x distance is the MAD-standardized deviation from the median; the
    y distance is the row norm of the column-median-centered responses over
    the median such norm.  Both pass through the downweighting function and
    combine as a geometric mean.  The x weights stay fixed for the whole fit.
    A degenerate scale warns at the line that called ``irls_fit``.
    """
    x, y = dataset.x, dataset.y
    row_norms = np.linalg.norm(y - _median(y), axis=1)
    den_y = float(_median(row_norms))
    dev_x, den_x = _mad(x)
    degenerate = False
    if den_y <= 0.0:
        den_y = _SCALE_FLOOR
        degenerate = True
    if den_x <= 0.0:
        den_x = _SCALE_FLOOR
        degenerate = True
    if degenerate:
        warnings.warn(
            "degenerate scale in initial case distances; using tiny floor",
            DegenerateScaleWarning,
            stacklevel=3,
        )
    with np.errstate(over="ignore"):  # over a floored scale, an outlying case goes to inf: weight 0
        w_x = spec.weight(dev_x / den_x)
        w_y = spec.weight(row_norms / den_y)
    return np.sqrt(w_x * w_y), w_x, degenerate


def _residual_distances(
    r: np.ndarray, scale_estimator: str
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-case distances of robustly centered and scaled residual rows, with the scales.

    Each column is median-centered and divided by its consistency-scaled
    MAD (or Qn); the K standardized entries combine as the Euclidean norm
    over sqrt(K), so clean Gaussian cases sit near 1 regardless of K.  The
    MAD is ``mad_scale(r, axis=0)``'s, taken with the absolute deviations it
    leaves, whose squares are the centered values' squares.  A degenerate
    scale warns at the line that called ``irls_fit``.
    """
    dev, scales = _mad(r)
    if scale_estimator == "qn":
        scales = np.array([qn_scale(r[:, k]) for k in range(r.shape[1])])
    if (scales > 0.0).all():
        degenerate, z = False, dev / scales
    else:  # a zero scale is flagged, a NaN one is not; either column standardizes to 0
        degenerate = bool(np.any(scales <= 0.0))
        if degenerate:
            message = "degenerate residual scale in some column; standardized values set to 0"
            warnings.warn(message, DegenerateScaleWarning, stacklevel=4)
        z = np.divide(dev, scales, out=np.zeros_like(dev), where=scales > 0.0)
    d = np.sqrt(np.add.reduce(z * z, axis=1)) / np.sqrt(r.shape[1])  # np.linalg.norm's formula
    return d, scales, degenerate


def penalized_wls_solve(
    x,
    y,
    case_weights,
    system: ConstraintSystem,
    alpha: float,
    fixed: dict[int, tuple[float, float]] | None = None,
) -> np.ndarray:
    """Exact minimizer of the weighted squares plus quadratic constraint penalty.

    Minimizes ``sum_ik w_i^2 (y_ik - A_k x_i - B_k)^2 + alpha |M gamma - r|^2``
    for the system ``M gamma = r`` of the split weights h (one per child).
    Every child shares x and the case weights, so with ``G`` the weighted
    2x2 Gram of ``[x, 1]``, ``beta_k`` the per-child weighted OLS pair and
    ``s0 = sum_k h_k beta_k - r``, the minimizer is the closed form
    ``(A_k, B_k) = beta_k - h_k (G / alpha + |h|^2 I)^-1 s0``.  ``alpha = 0``
    gives per-child OLS; ``alpha = inf`` gives the exact equality-constrained
    least squares solution ``beta_k - h_k s0 / |h|^2`` (Golub & Van Loan's
    LSE problem).  ``fixed`` maps child index -> (A, B): pinned children drop
    out, shift r by ``h_j (A_j, B_j)`` and are returned unchanged.  A
    rank-deficient weighted design is an error.
    """
    if not alpha >= 0:
        raise DataError("alpha must be nonnegative")
    xa, ya, w2 = _floats(x, "x"), _floats(y, "y"), _floats(case_weights, "case_weights") ** 2
    if ya.ndim == 1:
        ya = ya[:, None]
    if not (ya.ndim == 2 and xa.shape == w2.shape == ya.shape[:1]):
        raise DataError(f"x {xa.shape}, y {ya.shape} and case_weights {w2.shape} must be (N,), (N, K) and (N,)")
    n, k = ya.shape
    h = system.weights
    if h.size != k:
        raise DataError(f"constraint system has {h.size} weights, not one per child (K={k})")
    pins = fixed or {}
    gamma = np.empty((k, 2))
    r = system.rhs
    for j, pair in pins.items():
        if not 0 <= j < k:
            raise DataError(f"pinned child {j} out of range for K={k}")
        gamma[j] = pair
        if not (math.isfinite(gamma[j, 0]) and math.isfinite(gamma[j, 1])):
            raise DataError(f"pinned child {j} needs a finite (A, B), not {pair}")
        r -= h[j] * gamma[j]
    free = [j for j in range(k) if j not in pins] if pins else slice(None)
    if not free:
        if not arbitrage_gap(system, gamma.reshape(-1)) <= FEASIBILITY_TOLERANCE:
            raise DataError("infeasible fixing")
        return gamma.reshape(-1)

    sw = float(w2.sum())
    xbar = float(w2 @ xa) / sw if sw > 0.0 else 0.0
    xc = xa - xbar
    sxx = float(w2 @ xc**2)
    # Rank test on the per-child design [w x, w] as numpy's lstsq makes it:
    # a singular value below eps * n times the largest counts as zero
    # (det G = sw * sxx, and trace G bounds the largest eigenvalue).  x * x
    # overflows to inf where ** raises, so huge prices fail the test instead.
    bound = _EPS * n * (sxx + sw * (1.0 + xbar * xbar))
    if not sw * sxx > bound * bound:
        raise NumericalError("rank-deficient weighted design")
    yf = np.asfortranarray(ya[:, free])  # column-major, as a list index makes it: the floats depend on it
    ybar = (w2 @ yf) / sw
    slopes = (w2 * xc) @ (yf - ybar) / sxx
    beta = np.empty((slopes.size, 2))
    beta[:, 0], beta[:, 1] = slopes, ybar - slopes * xbar
    hf = h[free]
    s0 = hf @ beta - r
    g00, g01 = sxx + sw * xbar**2, sw * xbar
    # max(G00, sw) / alpha is the largest entry of G / alpha.  Where it overflows, the
    # correction, about alpha G^-1 s0, lies below rounding: the alpha = 0 limit holds.
    if alpha == 0.0 or max(g00, sw) / alpha == math.inf:
        correction = np.zeros(2)
    elif np.isinf(alpha):
        correction = s0 / (hf @ hf)
    else:
        gram = np.array([[g00, g01], [g01, sw]])
        try:
            correction = np.linalg.solve(gram / alpha + (hf @ hf) * np.eye(2), s0)
        except np.linalg.LinAlgError as exc:  # a pivot that cancels to zero in floating point
            raise NumericalError(f"penalized solve failed: {exc}") from exc
    gamma[free] = beta - hf[:, None] * correction
    return gamma.reshape(-1)


def _resolve_alpha(config: FitConfig, dataset: Dataset) -> float:
    """alpha = c * N * Qn(Y); a zero pooled scale gives the exact limit unless c = 0."""
    multiplier = 1.0 if config.alpha_multiplier == "auto" else float(config.alpha_multiplier)
    pooled = qn_scale(dataset.y.ravel())
    if pooled <= 0.0:
        return np.inf if multiplier > 0.0 else 0.0
    return multiplier * dataset.n_cases * pooled


def _residuals(dataset: Dataset, gamma: np.ndarray) -> np.ndarray:
    return dataset.y - dataset.x[:, None] * gamma[0::2] - gamma[1::2]


def _fit_result(
    dataset: Dataset,
    system: ConstraintSystem,
    gamma: np.ndarray,
    weights: np.ndarray,
    scales: np.ndarray,
    alpha: float,
    iterations: int = 1,
    **flags,
) -> FitResult:
    """Every fit's result; ``flags`` are FitResult's converged / degenerate_scale / method."""
    flags.setdefault("degenerate_scale", bool(np.any(scales <= 0.0)))  # where the fit sets none
    return FitResult(
        gamma=gamma,
        case_weights=weights,
        iterations=iterations,
        arbitrage_gap_maxabs=arbitrage_gap(system, gamma),
        residual_scales=scales,
        alpha_used=alpha,
        case_ids=list(dataset.case_ids),
        **flags,
    )


def _fit_loop(
    dataset: Dataset,
    system: ConstraintSystem,
    config: FitConfig,
    alpha: float,
    fixed: dict[int, tuple[float, float]] | None,
    start: tuple[np.ndarray, np.ndarray, bool],
) -> FitResult:
    """IRLS from ``start``, the starting weights, x weights and degenerate flag."""
    spec = config.weight_spec
    weights, w_x, degen = start
    y = np.asfortranarray(dataset.y)  # once per pass, in the layout penalized_wls_solve uses
    intercepts_prev = None
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        gamma = penalized_wls_solve(dataset.x, y, weights, system, alpha, fixed)
        intercepts = gamma[1::2]
        d_r, scales, degen_r = _residual_distances(
            _residuals(dataset, gamma), config.scale_estimator
        )
        degen = degen or degen_r
        weights = np.sqrt(w_x * spec.weight(d_r))
        if intercepts_prev is not None and np.abs(intercepts - intercepts_prev).max() < config.tolerance:
            converged = True
            break
        intercepts_prev = intercepts
    return _fit_result(
        dataset, system, gamma, weights, scales, alpha,
        iterations, converged=converged, degenerate_scale=degen,
    )


def irls_fit(
    dataset: Dataset,
    system: ConstraintSystem,
    config: FitConfig | None = None,
    fixed: dict[int, tuple[float, float]] | None = None,
) -> FitResult:
    """Full iteratively reweighted fit.

    Starts from coarse outlyingness weights, alternates the penalized
    weighted solve with residual-distance reweighting until the intercepts
    stabilize, and re-runs once at the exact equality-constrained limit
    (``alpha_used`` = inf) if the fitted coefficients still violate the
    equalities beyond the feasibility tolerance or give a NaN gap.
    ``fixed`` maps child index -> (A, B) pinned through every solve; a full
    pinning that breaks the equalities raises ``DataError``.
    Non-convergence is flagged on the result, not raised.
    """
    config = config or FitConfig()
    alpha = _resolve_alpha(config, dataset)
    start = _initial_weights(dataset, config.weight_spec)
    result = _fit_loop(dataset, system, config, alpha, fixed, start)
    if config.feasibility_retry and not result.arbitrage_gap_maxabs <= FEASIBILITY_TOLERANCE:
        result = _fit_loop(dataset, system, config, np.inf, fixed, start)
    return result


def classical_fit(
    dataset: Dataset,
    system: ConstraintSystem,
    alpha: float | str = "auto",
) -> FitResult:
    """Single penalized solve with every case weight equal to one."""
    alpha_value = _resolve_alpha(FitConfig(alpha_multiplier=alpha), dataset)
    weights = np.ones(dataset.n_cases)
    gamma = penalized_wls_solve(dataset.x, dataset.y, weights, system, alpha_value)
    scales = mad_scale(_residuals(dataset, gamma), axis=0)
    return _fit_result(dataset, system, gamma, weights, scales, alpha_value, method="classical")


def ratio_average_fit(dataset: Dataset) -> np.ndarray:
    """Per-child mean of price ratios y_ik / x_i (intercepts implicitly zero)."""
    if np.any(dataset.x == 0.0):
        raise DataError("zero parent price")
    return np.mean(dataset.y / dataset.x[:, None], axis=0)


def rescale_to_no_arbitrage(betas, weights) -> np.ndarray:
    """Divide slopes by their weighted average so it becomes exactly one."""
    b, w = _floats(betas, "betas"), _floats(weights, "weights")
    if b.ndim != 1 or b.shape != w.shape:
        raise DataError(f"betas {b.shape} and weights {w.shape} must be one per child")
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


def outlier_report(result: FitResult, threshold: float = 0.6) -> list[tuple[str, float]]:
    """Cases whose final weight fell below the threshold, most suspect first."""
    flagged = [
        (cid, float(w))
        for cid, w in zip(result.case_ids, result.case_weights)
        if w < threshold
    ]
    flagged.sort(key=lambda item: (item[1], item[0]))
    return flagged
