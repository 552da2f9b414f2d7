"""Error metrics, the synthetic-market generator, and the evaluation harness."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from datetime import MAXYEAR, MINYEAR, date, timedelta

import numpy as np

from .constraints import FEASIBILITY_TOLERANCE, ConstraintSystem, arbitrage_gap, constraints_for_weights
from .estimator import Dataset, FitConfig, FitResult, classical_fit, irls_fit, ratio_average_result
from .exceptions import DataError, _floats, _integral
from .market import QuoteTable, build_regression_dataset
from .periods import period_children, year_period

METHOD_NAMES = ("mcrm", "classical", "ratio-average")


@dataclass(frozen=True)
class MetricsReport:
    """Mean/median absolute and squared errors over an n x K prediction grid."""

    mean_ae: float
    med_ae: float
    mean_se: float
    med_se: float

    def as_dict(self) -> dict:
        return asdict(self)


def compute_metrics(actual, predicted) -> MetricsReport:
    """Error metrics: grid means plus medians of per-case row means."""
    a, p = _floats(actual, "actual"), _floats(predicted, "predicted")
    if a.ndim == 1:
        a = a[:, None]
    if p.ndim == 1:
        p = p[:, None]
    if a.shape != p.shape or a.size == 0:
        raise DataError(f"shape mismatch: actual {a.shape} vs predicted {p.shape}")
    err = a - p
    abs_err = np.abs(err)
    sq_err = err * err
    return MetricsReport(
        mean_ae=float(np.mean(abs_err)),
        med_ae=float(np.median(np.mean(abs_err, axis=1))),
        mean_se=float(np.mean(sq_err)),
        med_se=float(np.median(np.mean(sq_err, axis=1))),
    )


@dataclass(frozen=True)
class XPathParams:
    """Parent price path: a level with seasonal swing and noise."""

    level: float = 50.0
    seasonal_amplitude: float = 5.0
    period_days: float = 365.0
    noise: float = 0.5


@dataclass(frozen=True)
class SyntheticMarketConfig:
    """Recipe for a deterministic synthetic quote table with known truth."""

    true_gamma: np.ndarray
    weights: np.ndarray
    n_dates: int = 250
    start: date = date(2013, 1, 2)
    delivery_year: int = 2014
    x_path: XPathParams = field(default_factory=XPathParams)
    noise_scale: float | np.ndarray = 0.5
    contamination_fraction: float = 0.0
    outlier_magnitude: float = 8.0
    contamination_type: str = "vertical"
    contamination_column: int | None = None
    contamination_sign: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        gamma = _floats(self.true_gamma, "true_gamma")
        weights = _floats(self.weights, "weights")
        noise_scale = _floats(self.noise_scale, "noise_scale")
        object.__setattr__(self, "true_gamma", gamma)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "noise_scale", noise_scale)
        if gamma.size != 2 * weights.size:
            raise DataError("true_gamma must hold (A_k, B_k) pairs for each weight")
        if noise_scale.ndim > 1 or noise_scale.size not in (1, weights.size):
            raise DataError(f"noise_scale must be one number or one per weight, not of shape {noise_scale.shape}")
        p = self.x_path
        numbers = (p.level, p.seasonal_amplitude, p.period_days, p.noise, self.outlier_magnitude)
        if not np.isfinite(np.append(numbers, noise_scale)).all():
            raise DataError("synthetic market parameters must be finite")
        for name in ("n_dates", "delivery_year", "seed"):
            if not _integral(getattr(self, name)):
                raise DataError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if not self.seed >= 0:  # numpy seeds with non-negative integers only
            raise DataError(f"seed must be >= 0, not {self.seed}")
        if not MINYEAR <= self.delivery_year < MAXYEAR:  # the delivery year ends where the next begins
            raise DataError(f"delivery_year must lie in {MINYEAR}..{MAXYEAR - 1}, not {self.delivery_year}")
        most = (date.max - self.start).days + 1  # quote dates run from start, a day apart
        if not 0 <= self.n_dates <= most:
            raise DataError(f"n_dates must lie in 0..{most} from {self.start}, not {self.n_dates}")
        if not 0.0 <= self.contamination_fraction < 0.5:
            raise DataError("contamination fraction must lie in [0, 0.5)")
        if self.contamination_type not in ("vertical", "leverage"):
            raise DataError(f"unknown contamination type: {self.contamination_type!r}")
        if self.contamination_sign not in ("random", "positive", "negative"):
            raise DataError(f"unknown contamination sign: {self.contamination_sign!r}")
        gap = arbitrage_gap(constraints_for_weights(weights), gamma)
        if not gap <= FEASIBILITY_TOLERANCE:  # a NaN gap violates too
            raise DataError(f"true gamma violates non-arbitrage (gap {gap:.3g})")


@dataclass
class SyntheticMarket:
    """Generated table plus the ground-truth contamination labels."""

    table: QuoteTable
    contaminated_ids: list[str]
    config: SyntheticMarketConfig


@np.errstate(over="ignore", invalid="ignore")  # a price that overflows raises DataError instead
def synthesize_market(config: SyntheticMarketConfig) -> SyntheticMarket:
    """Deterministic synthetic quotes from a known arbitrage-free gamma.

    The parent price follows the configured path; children are the affine
    map of the parent plus column noise.  A seeded fraction of rows is
    contaminated: vertical outliers push one child by magnitude x column
    scale, leverage points multiply the parent quote itself.  Finite
    parameters whose prices overflow a float raise ``DataError``.
    """
    rng_path = np.random.default_rng([config.seed, 0])
    rng_noise = np.random.default_rng([config.seed, 1])
    rng_contam = np.random.default_rng([config.seed, 2])

    n = config.n_dates
    k = config.weights.size
    slopes = config.true_gamma[0::2]
    intercepts = config.true_gamma[1::2]
    noise_scale = np.broadcast_to(config.noise_scale, (k,))

    quote_dates = [config.start + timedelta(days=i) for i in range(n)]
    path = config.x_path
    t = np.arange(n, dtype=float)
    x = (
        path.level
        + path.seasonal_amplitude * np.sin(2.0 * np.pi * t / path.period_days)
        + path.noise * rng_path.standard_normal(n)
    )
    y = x[:, None] * slopes + intercepts + rng_noise.standard_normal((n, k)) * noise_scale

    n_bad = int(round(config.contamination_fraction * n))
    bad_rows = np.sort(rng_contam.choice(n, size=n_bad, replace=False))
    if config.contamination_type == "vertical":
        if config.contamination_column is None:
            bad_cols = rng_contam.integers(0, k, size=n_bad)
        else:
            bad_cols = np.full(n_bad, config.contamination_column)
        if config.contamination_sign == "random":
            signs = rng_contam.choice([-1.0, 1.0], size=n_bad)
        else:
            signs = np.full(n_bad, 1.0 if config.contamination_sign == "positive" else -1.0)
        y[bad_rows, bad_cols] += signs * config.outlier_magnitude * noise_scale[bad_cols]
    else:
        x[bad_rows] *= config.outlier_magnitude
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("synthetic prices overflow a float")

    parent = year_period(config.delivery_year)
    children = period_children(parent, "quarter")
    if len(children) != k:
        raise DataError(f"gamma has {k} children but {parent.label} has {len(children)} quarters")
    # Each date quotes the parent, then its children.
    table = QuoteTable(
        np.repeat([d.toordinal() for d in quote_dates], k + 1),
        np.tile(np.arange(k + 1), n),
        np.column_stack([x, y]).ravel(),
        (parent.label, *(child.label for child in children)),
    )
    contaminated = [f"{quote_dates[i].isoformat()}|{parent.label}" for i in bad_rows]
    return SyntheticMarket(table=table, contaminated_ids=contaminated, config=config)


@dataclass
class MethodEvaluation:
    method: str
    fit: FitResult
    in_sample: MetricsReport
    out_sample: MetricsReport


@dataclass
class ComparisonTable:
    """Backtest output: one evaluation per method, exportable as CSV."""

    evaluations: list[MethodEvaluation]
    train_rows: int
    test_rows: int

    def by_method(self, method: str) -> MethodEvaluation:
        for ev in self.evaluations:
            if ev.method == method:
                return ev
        raise DataError(f"no evaluation of method {method!r}")

    def to_csv(self) -> str:
        lines = ["method,sample,mean_ae,med_ae,mean_se,med_se"]
        for ev in self.evaluations:
            for sample, report in (("in", ev.in_sample), ("out", ev.out_sample)):
                lines.append(
                    f"{ev.method},{sample},{report.mean_ae!r},{report.med_ae!r},"
                    f"{report.mean_se!r},{report.med_se!r}"
                )
        return "\n".join(lines) + "\n"


def fit_method(
    method: str,
    dataset: Dataset,
    system: ConstraintSystem,
    config: FitConfig | None = None,
) -> FitResult:
    """Dispatch one of the named estimation methods."""
    config = config or FitConfig()
    if method == "mcrm":
        return irls_fit(dataset, system, config)
    if method == "classical":
        return classical_fit(dataset, system, config.alpha_multiplier)
    if method == "ratio-average":
        return ratio_average_result(dataset, system)
    raise DataError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")


def backtest(
    table: QuoteTable,
    train_range: tuple[date, date],
    test_range: tuple[date, date],
    methods: list[str],
    system: ConstraintSystem,
    config: FitConfig | None = None,
    parent_kind: str = "year",
    child_kind: str = "quarter",
    refit_out_of_sample: bool = False,
) -> ComparisonTable:
    """Fit each method on the train range and score both ranges.

    By default the train coefficients are frozen and applied to the parent
    quotes of the test range.  With ``refit_out_of_sample`` each test case
    is predicted from a fit on the rows dated from the train start to the
    day before it (an expanding window, fitted once per test date), which
    is slower but tracks regime changes.  Train set, test set and windows
    are row slices of one dataset built over both ranges.
    """
    if not methods:
        raise DataError("no methods to backtest")
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise DataError(f"unknown methods: {unknown}; expected from {METHOD_NAMES}")
    first, last = min(train_range[0], test_range[0]), max(train_range[1], test_range[1])
    dataset, _ = build_regression_dataset(table.filter_dates(first, last), parent_kind, child_kind)
    # Case ids lead with the ISO quote date, and the rows are sorted by it.
    days = [case_id.split("|")[0] for case_id in dataset.case_ids]
    start = bisect_left(days, train_range[0].isoformat())
    train = _rows(dataset, start, bisect_right(days, train_range[1].isoformat()), "train range")
    test_start = bisect_left(days, test_range[0].isoformat())
    test_stop = bisect_right(days, test_range[1].isoformat())
    test = _rows(dataset, test_start, test_stop, "test range")
    evaluations = []
    for method in methods:
        fit = fit_method(method, train, system, config)
        predictions = fit.predict(test.x)
        if refit_out_of_sample:
            for day in dict.fromkeys(days[test_start:test_stop]):  # each test date once, in order
                end = bisect_left(days, day)
                window = _rows(dataset, start, end, f"window before {day}")
                rows = slice(end - test_start, bisect_right(days, day) - test_start)
                predictions[rows] = fit_method(method, window, system, config).predict(test.x[rows])
        evaluations.append(
            MethodEvaluation(
                method=method,
                fit=fit,
                in_sample=compute_metrics(train.y, fit.predict(train.x)),
                out_sample=compute_metrics(test.y, predictions),
            )
        )
    return ComparisonTable(
        evaluations=evaluations, train_rows=train.n_cases, test_rows=test.n_cases
    )


def _rows(dataset: Dataset, start: int, stop: int, what: str) -> Dataset:
    """Rows ``start`` up to ``stop`` of ``dataset``; none, or a slice that ends before it starts, is an error."""
    if stop <= start:
        raise DataError(f"empty {what}")
    return Dataset(x=dataset.x[start:stop], y=dataset.y[start:stop], case_ids=dataset.case_ids[start:stop])
