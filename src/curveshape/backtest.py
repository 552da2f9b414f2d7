"""Error metrics, the synthetic-market generator, and the evaluation harness."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .baselines import ratio_average_result
from .constraints import ConstraintSystem, arbitrage_gap, constraints_for_weights
from .estimator import Dataset, FitConfig, FitResult, classical_fit, irls_fit
from .exceptions import DataError
from .market import Quote, QuoteTable, build_regression_dataset
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
        return {
            "mean_ae": self.mean_ae,
            "med_ae": self.med_ae,
            "mean_se": self.mean_se,
            "med_se": self.med_se,
        }


def compute_metrics(actual, predicted) -> MetricsReport:
    """Error metrics: grid means plus medians of per-case row means."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
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
        gamma = np.asarray(self.true_gamma, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "true_gamma", gamma)
        object.__setattr__(self, "weights", weights)
        if gamma.size != 2 * weights.size:
            raise DataError("true_gamma must hold (A_k, B_k) pairs for each weight")
        if not 0.0 <= self.contamination_fraction < 0.5:
            raise DataError("contamination fraction must lie in [0, 0.5)")
        if self.contamination_type not in ("vertical", "leverage"):
            raise DataError(f"unknown contamination type: {self.contamination_type!r}")
        if self.contamination_sign not in ("random", "positive", "negative"):
            raise DataError(f"unknown contamination sign: {self.contamination_sign!r}")
        gap = arbitrage_gap(constraints_for_weights(weights), gamma)
        if gap > 1e-10:
            raise DataError(f"true gamma violates non-arbitrage (gap {gap:.3g})")

    @property
    def n_children(self) -> int:
        return self.weights.size


@dataclass
class SyntheticMarket:
    """Generated table plus the ground-truth contamination labels."""

    table: QuoteTable
    contaminated_ids: list[str]
    config: SyntheticMarketConfig

    @property
    def clean_ids(self) -> list[str]:
        bad = set(self.contaminated_ids)
        return [cid for cid in self.case_ids if cid not in bad]

    @property
    def case_ids(self) -> list[str]:
        parent = year_period(self.config.delivery_year).label
        seen = sorted({q.quote_date for q in self.table.quotes})
        return [f"{d.isoformat()}|{parent}" for d in seen]


def synthesize_market(config: SyntheticMarketConfig) -> SyntheticMarket:
    """Deterministic synthetic quotes from a known arbitrage-free gamma.

    The parent price follows the configured path; children are the affine
    map of the parent plus column noise.  A seeded fraction of rows is
    contaminated: vertical outliers push one child by magnitude x column
    scale, leverage points multiply the parent quote itself.
    """
    rng_path = np.random.default_rng([config.seed, 0])
    rng_noise = np.random.default_rng([config.seed, 1])
    rng_contam = np.random.default_rng([config.seed, 2])

    n = config.n_dates
    k = config.n_children
    slopes = config.true_gamma[0::2]
    intercepts = config.true_gamma[1::2]
    noise_scale = np.broadcast_to(np.asarray(config.noise_scale, dtype=float), (k,))

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
        for row, col, sign in zip(bad_rows, bad_cols, signs):
            y[row, col] += sign * config.outlier_magnitude * noise_scale[col]
    else:
        for row in bad_rows:
            x[row] *= config.outlier_magnitude

    parent = year_period(config.delivery_year)
    children = period_children(parent, "quarter")
    if len(children) != k:
        raise DataError(f"gamma has {k} children but {parent.label} has {len(children)} quarters")
    quotes = []
    for i, d in enumerate(quote_dates):
        quotes.append(Quote(d, parent.label, parent, float(x[i])))
        for j, child in enumerate(children):
            quotes.append(Quote(d, child.label, child, float(y[i, j])))
    contaminated = [f"{quote_dates[i].isoformat()}|{parent.label}" for i in bad_rows]
    return SyntheticMarket(table=QuoteTable(quotes), contaminated_ids=contaminated, config=config)


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
        raise KeyError(method)

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
    first, last = min(train_range[0], test_range[0]), max(train_range[1], test_range[1])
    dataset, _ = build_regression_dataset(table.filter_dates(first, last), parent_kind, child_kind)
    # Case ids lead with the ISO quote date, and the rows are sorted by it.
    days = [case_id.split("|")[0] for case_id in dataset.case_ids]
    train = _dated_rows(dataset, days, *train_range, "train range")
    test = _dated_rows(dataset, days, *test_range, "test range")
    evaluations = []
    for method in methods:
        fit = fit_method(method, train, system, config)
        if refit_out_of_sample:
            predictions = np.empty_like(test.y)
            refit_day = None
            for i, case_id in enumerate(test.case_ids):
                day = date.fromisoformat(case_id.split("|")[0])
                if day != refit_day:
                    window = _dated_rows(
                        dataset, days, train_range[0], day - timedelta(days=1),
                        f"window before {day}",
                    )
                    refit, refit_day = fit_method(method, window, system, config), day
                predictions[i] = refit.predict(test.x[i : i + 1])[0]
        else:
            predictions = fit.predict(test.x)
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


def _dated_rows(dataset: Dataset, days: list[str], start: date, end: date, what: str) -> Dataset:
    """The rows quoted from ``start`` to ``end``; ``days`` holds each row's sorted ISO date."""
    rows = slice(bisect_left(days, start.isoformat()), bisect_right(days, end.isoformat()))
    if rows.start == rows.stop:
        raise DataError(f"empty {what}")
    return Dataset(x=dataset.x[rows], y=dataset.y[rows], case_ids=dataset.case_ids[rows])
