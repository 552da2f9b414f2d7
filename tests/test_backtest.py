"""Tests for metrics, the synthetic generator, and the backtest harness."""

import csv
import importlib
import re
import warnings
from bisect import bisect_left, bisect_right
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import arbitrage_free_gamma, synthetic_dataset
from curveshape import (
    Dataset,
    SyntheticMarketConfig,
    XPathParams,
    backtest,
    build_regression_dataset,
    compute_metrics,
    constraints_for_weights,
    irls_fit,
    synthesize_market,
)
from curveshape.backtest import ComparisonTable, MethodEvaluation, MetricsReport, fit_method
from curveshape.exceptions import CurveShapeError, DataError
from curveshape.market import QuoteTable

GAMMA4 = np.array([1.12, -1.6, 0.88, 1.4, 0.92, 0.9, 1.08, -0.7])
W4 = np.full(4, 0.25)


def metrics_oracle(actual, predicted):
    n, k = actual.shape
    abs_sum = sq_sum = 0.0
    row_ae, row_se = [], []
    for i in range(n):
        ra = rs = 0.0
        for j in range(k):
            e = actual[i][j] - predicted[i][j]
            abs_sum += abs(e)
            sq_sum += e * e
            ra += abs(e)
            rs += e * e
        row_ae.append(ra / k)
        row_se.append(rs / k)
    return (
        abs_sum / (n * k),
        float(np.median(row_ae)),
        sq_sum / (n * k),
        float(np.median(row_se)),
    )


class TestComputeMetrics:
    def test_exact_predictions(self, rng):
        a = rng.standard_normal((7, 3))
        m = compute_metrics(a, a)
        assert (m.mean_ae, m.med_ae, m.mean_se, m.med_se) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_instance(self):
        actual = np.array([[1.0, 1.0], [3.0, 3.0]])
        predicted = np.zeros((2, 2))
        m = compute_metrics(actual, predicted)
        assert (m.mean_ae, m.med_ae, m.mean_se, m.med_se) == (2.0, 2.0, 5.0, 5.0)

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(25):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            a, p = rng.standard_normal((n, k)), rng.standard_normal((n, k))
            m = compute_metrics(a, p)
            oracle = metrics_oracle(a, p)
            np.testing.assert_allclose(
                [m.mean_ae, m.med_ae, m.mean_se, m.med_se], oracle, atol=1e-12
            )

    def test_permutation_invariance(self, rng):
        a, p = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        rows = rng.permutation(9)
        cols = rng.permutation(4)
        base = compute_metrics(a, p)
        rowperm = compute_metrics(a[rows], p[rows])
        colperm = compute_metrics(a[:, cols], p[:, cols])
        assert base == rowperm
        assert base.mean_ae == pytest.approx(colperm.mean_ae, abs=1e-15)
        assert base.mean_se == pytest.approx(colperm.mean_se, abs=1e-15)

    def test_jensen(self, rng):
        for _ in range(10):
            a, p = rng.standard_normal((15, 3)), rng.standard_normal((15, 3))
            m = compute_metrics(a, p)
            assert m.mean_ae**2 <= m.mean_se + 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            compute_metrics(np.ones((3, 2)), np.ones((2, 3)))


class TestSynthesizeMarket:
    def test_noise_free_is_exact(self):
        config = SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, n_dates=40, noise_scale=0.0, seed=9)
        market = synthesize_market(config)
        dataset, _ = build_regression_dataset(market.table)
        predicted = dataset.x[:, None] * GAMMA4[0::2] + GAMMA4[1::2]
        np.testing.assert_allclose(dataset.y, predicted, atol=1e-12)

    def test_determinism(self):
        config = SyntheticMarketConfig(
            true_gamma=GAMMA4, weights=W4, n_dates=50, seed=4,
            contamination_fraction=0.2, outlier_magnitude=9.0,
        )
        a = synthesize_market(config)
        b = synthesize_market(config)
        assert a.table.to_csv() == b.table.to_csv()
        assert a.contaminated_ids == b.contaminated_ids

    def test_contaminated_rows_downweighted(self):
        config = SyntheticMarketConfig(
            true_gamma=GAMMA4, weights=W4, n_dates=300, noise_scale=0.5,
            contamination_fraction=0.15, outlier_magnitude=8.0, seed=21,
        )
        market = synthesize_market(config)
        dataset, _ = build_regression_dataset(market.table)
        result = irls_fit(dataset, constraints_for_weights(W4))
        injected = set(market.contaminated_ids)
        assert injected <= set(result.case_ids)
        bad = [w for cid, w in zip(result.case_ids, result.case_weights) if cid in injected]
        good = [w for cid, w in zip(result.case_ids, result.case_weights) if cid not in injected]
        assert np.mean(bad) < np.mean(good)
        assert np.mean(bad) < 0.3

    def test_leverage_contamination(self):
        config = SyntheticMarketConfig(
            true_gamma=GAMMA4, weights=W4, n_dates=200, noise_scale=0.3,
            contamination_fraction=0.1, outlier_magnitude=3.0,
            contamination_type="leverage", seed=5,
        )
        market = synthesize_market(config)
        dataset, _ = build_regression_dataset(market.table)
        result = irls_fit(dataset, constraints_for_weights(W4))
        weight_by_id = dict(zip(result.case_ids, result.case_weights))
        assert np.mean([weight_by_id[c] for c in market.contaminated_ids]) < 0.1

    @pytest.mark.parametrize(
        "params",
        [
            dict(noise_scale=1e308),
            dict(outlier_magnitude=1e308, contamination_type="leverage", contamination_fraction=0.1),
            dict(x_path=XPathParams(level=1e308, seasonal_amplitude=1e308)),
        ],
    )
    def test_overflowing_prices_raise_without_warning(self, params):
        config = SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, n_dates=40, **params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow"):
                synthesize_market(config)

    def test_invariants_enforced(self):
        with pytest.raises(DataError, match="non-arbitrage"):
            SyntheticMarketConfig(true_gamma=np.array([1.5, 0.0] * 4), weights=W4)
        with pytest.raises(DataError, match="fraction"):
            SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, contamination_fraction=0.6)

    @pytest.mark.parametrize(
        "params, message",
        [
            (
                dict(n_dates=-5),
                f"n_dates from 2013-01-02 must be an integer >= 0 and <= {(date.max - date(2013, 1, 2)).days + 1}, not -5",
            ),
            (dict(n_dates=4_000_000), "not 4000000"),
            (dict(start=date(9999, 12, 30)), "n_dates from 9999-12-30 must be an integer >= 0 and <= 2, not 250"),
            (dict(start=date(9999, 12, 1), n_dates=32), "n_dates from 9999-12-01 must be an integer >= 0 and <= 31, not 32"),
            (dict(delivery_year=0), "delivery_year must be an integer >= 1 and <= 9998, not 0"),
            (dict(delivery_year=9999), "delivery_year must be an integer >= 1 and <= 9998, not 9999"),
            (dict(delivery_year=10000), "delivery_year must be an integer >= 1 and <= 9998, not 10000"),
        ],
    )
    def test_a_calendar_past_the_date_range_is_a_data_error(self, params, message):
        with pytest.raises(DataError, match=re.escape(message)):
            SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, **params)

    @pytest.mark.parametrize(
        "params, quotes",
        [(dict(n_dates=0), 0), (dict(start=date(9999, 12, 1), n_dates=31), 155), (dict(delivery_year=9998), 1250)],
    )
    def test_the_calendar_edges_synthesize(self, params, quotes):
        assert len(synthesize_market(SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, **params)).table) == quotes

    @pytest.mark.parametrize("gap, feasible", [(1e-8, True), (5e-7, True), (2e-6, False)])
    def test_true_gamma_is_held_to_the_feasibility_tolerance(self, gap, feasible):
        gamma = GAMMA4 + np.array([0, 0, 0, 0, 0, 0, 0, 4 * gap])  # h . B = gap
        if feasible:
            SyntheticMarketConfig(true_gamma=gamma, weights=W4)
        else:
            with pytest.raises(DataError, match="violates non-arbitrage"):
                SyntheticMarketConfig(true_gamma=gamma, weights=W4)

    def test_negative_seed_is_a_data_error(self):
        with pytest.raises(DataError, match="seed must be an integer >= 0, not -1"):
            SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, seed=-1)

    @pytest.mark.parametrize("field", ["true_gamma", "weights"])
    @pytest.mark.parametrize("value", [{"a": 1}, ["a"] * 8, [[1.0, 0.0], [1.0]]])
    def test_values_that_are_not_numbers_are_a_data_error(self, field, value):
        numbers = dict(true_gamma=GAMMA4, weights=W4)
        with pytest.raises(DataError, match=f"{field} must be numbers"):
            SyntheticMarketConfig(**{**numbers, field: value})


def _merged_train_test(seed=123, n_train=500, n_test=100, **contamination):
    n = n_train + n_test
    base = dict(
        true_gamma=GAMMA4,
        weights=W4,
        n_dates=n,
        start=date(2013, 1, 2),
        delivery_year=2014,
        noise_scale=0.5,
        seed=seed,
        x_path=XPathParams(level=50.0, seasonal_amplitude=12.0, period_days=365.0, noise=0.4),
    )
    dirty = synthesize_market(SyntheticMarketConfig(**base, **contamination))
    clean = synthesize_market(SyntheticMarketConfig(**base))
    dates = dirty.table.dates()
    train_range = (dates[0], dates[n_train - 1])
    test_range = (dates[n_train], dates[-1])
    merged = dirty.table.filter_dates(*train_range).merged_with(
        clean.table.filter_dates(*test_range)
    )
    return merged, clean, dirty, train_range, test_range


class TestBacktest:
    def test_classical_has_best_in_sample_mean_se_on_clean_data(self):
        merged, clean, _, train_range, test_range = _merged_train_test(seed=8, n_train=150, n_test=50)
        comp = backtest(merged, train_range, test_range, ["classical", "mcrm"], constraints_for_weights(W4))
        classical = comp.by_method("classical").in_sample.mean_se
        robust = comp.by_method("mcrm").in_sample.mean_se
        assert classical <= robust + 1e-6

    def test_contaminated_ordering(self):
        merged, clean, dirty, train_range, test_range = _merged_train_test(
            contamination_fraction=0.2,
            outlier_magnitude=10.0,
            contamination_sign="positive",
            contamination_column=0,
        )
        comp = backtest(merged, train_range, test_range, ["mcrm", "classical"], constraints_for_weights(W4))
        assert comp.by_method("mcrm").out_sample.med_se < comp.by_method("classical").out_sample.med_se

    def test_train_equals_test_on_noise_free_data(self):
        config = SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, n_dates=60, noise_scale=0.0, seed=2)
        market = synthesize_market(config)
        dates = market.table.dates()
        full = (dates[0], dates[-1])
        comp = backtest(market.table, full, full, ["mcrm", "classical"], constraints_for_weights(W4))
        for method in ("mcrm", "classical"):
            ev = comp.by_method(method)
            for report in (ev.in_sample, ev.out_sample):
                assert report.mean_se < 1e-18

    def test_empty_train_errors(self):
        config = SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, n_dates=30, seed=2)
        market = synthesize_market(config)
        with pytest.raises(DataError, match="empty train"):
            backtest(
                market.table,
                (date(2001, 1, 1), date(2001, 2, 1)),
                (date(2013, 1, 2), date(2013, 1, 20)),
                ["mcrm"],
                constraints_for_weights(W4),
            )

    def test_csv_roundtrip(self, tmp_path):
        merged, _, _, train_range, test_range = _merged_train_test(seed=31, n_train=80, n_test=40)
        comp = backtest(
            merged, train_range, test_range, ["mcrm", "classical", "ratio-average"],
            constraints_for_weights(W4),
        )
        out = tmp_path / "comparison.csv"
        out.write_text(comp.to_csv())
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [
            (ev.method, sample, report)
            for ev in comp.evaluations
            for sample, report in (("in", ev.in_sample), ("out", ev.out_sample))
        ]
        assert len(rows) == len(expected)
        for row, (method, sample, report) in zip(rows, expected):
            assert (row["method"], row["sample"]) == (method, sample)
            fields = ("mean_ae", "med_ae", "mean_se", "med_se")
            assert MetricsReport(*(float(row[f]) for f in fields)) == report

    def test_reproducible(self):
        merged, _, _, tr, te = _merged_train_test(seed=55, n_train=90, n_test=30)
        a = backtest(merged, tr, te, ["mcrm"], constraints_for_weights(W4))
        b = backtest(merged, tr, te, ["mcrm"], constraints_for_weights(W4))
        assert a.to_csv() == b.to_csv()

    def test_unknown_method(self):
        merged, _, _, tr, te = _merged_train_test(seed=55, n_train=30, n_test=10)
        with pytest.raises(DataError, match="unknown method"):
            backtest(merged, tr, te, ["theil-sen"], constraints_for_weights(W4))

    def test_empty_method_list(self):
        merged, _, _, tr, te = _merged_train_test(seed=55, n_train=30, n_test=10)
        with pytest.raises(DataError, match="no methods"):
            backtest(merged, tr, te, [], constraints_for_weights(W4))

    def test_refit_option_matches_frozen_on_stationary_noise_free_data(self):
        config = SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, n_dates=40, noise_scale=0.0, seed=6)
        market = synthesize_market(config)
        dates = market.table.dates()
        tr, te = (dates[0], dates[29]), (dates[30], dates[-1])
        system = constraints_for_weights(W4)
        frozen = backtest(market.table, tr, te, ["classical"], system)
        refit = backtest(market.table, tr, te, ["classical"], system, refit_out_of_sample=True)
        assert frozen.by_method("classical").out_sample.mean_se < 1e-16
        assert refit.by_method("classical").out_sample.mean_se < 1e-16


def _two_parent_table():
    """CAL-2014 and CAL-2015 quoted on the same 50 days, so each date has two rows.

    Days 30-32 have no quotes at all, and day 42 loses its CAL-2015 quote.
    """
    base = dict(
        weights=W4, n_dates=50, noise_scale=0.5,
        contamination_fraction=0.1, outlier_magnitude=8.0,
    )
    cal14 = synthesize_market(SyntheticMarketConfig(true_gamma=GAMMA4, delivery_year=2014, seed=3, **base))
    cal15 = synthesize_market(SyntheticMarketConfig(true_gamma=GAMMA4, delivery_year=2015, seed=4, **base))
    days = cal14.table.dates()
    table = cal14.table.merged_with(cal15.table)
    cal15_code = table.labels.index("CAL-2015")
    keep = ~np.isin(table.days, [d.toordinal() for d in days[30:33]])
    keep &= (table.days != days[42].toordinal()) | (table.codes != cal15_code)
    return QuoteTable(table.days[keep], table.codes[keep], table.prices[keep], table.labels), days


def test_expanding_window_matches_reference_loop(monkeypatch):
    # train ends on day 29; days 33-37 are quoted but lie in neither range,
    # so only the expanding windows see them
    table, days = _two_parent_table()
    train_range, test_range = (days[0], days[29]), (days[38], days[-1])
    system = constraints_for_weights(W4)
    bt = importlib.import_module("curveshape.backtest")
    seen = []

    def recording_fit_method(method, dataset, system, config=None):
        result = fit_method(method, dataset, system, config)
        seen.append((method, list(dataset.case_ids), result.gamma))
        return result

    monkeypatch.setattr(bt, "fit_method", recording_fit_method)
    methods = ["mcrm", "classical", "ratio-average"]
    comp = backtest(table, train_range, test_range, methods, system, refit_out_of_sample=True)
    monkeypatch.undo()

    test, _ = build_regression_dataset(table.filter_dates(*test_range))
    assert test.n_cases == 23  # 12 dates of two parents, less the dropped CAL-2015 quote
    expected = []
    for method in methods:
        train, _ = build_regression_dataset(table.filter_dates(*train_range))
        expected.append((method, list(train.case_ids), fit_method(method, train, system).gamma))
        predictions = np.empty_like(test.y)
        for i, case_id in enumerate(test.case_ids):
            day = date.fromisoformat(case_id.split("|")[0])
            window, _ = build_regression_dataset(
                table.filter_dates(train_range[0], day - timedelta(days=1))
            )
            fit = fit_method(method, window, system)
            if list(window.case_ids) != expected[-1][1]:  # one refit per test date
                expected.append((method, list(window.case_ids), fit.gamma))
            predictions[i] = fit.predict(np.array([test.x[i]]))[0]
        assert comp.by_method(method).out_sample == compute_metrics(test.y, predictions)
    assert len(seen) == len(expected) == 3 * (1 + 12)
    for (method, ids, gamma), (ref_method, ref_ids, ref_gamma) in zip(seen, expected):
        assert (method, ids) == (ref_method, ref_ids)
        np.testing.assert_array_equal(gamma, ref_gamma)


def test_expanding_window_refits_once_per_test_date(monkeypatch):
    table, days = _two_parent_table()
    system = constraints_for_weights(W4)
    bt = importlib.import_module("curveshape.backtest")
    calls = []

    def counting_fit_method(method, *args, **kwargs):
        calls.append(method)
        return fit_method(method, *args, **kwargs)

    monkeypatch.setattr(bt, "fit_method", counting_fit_method)
    comp = backtest(
        table, (days[0], days[29]), (days[38], days[-1]), ["mcrm", "classical"], system,
        refit_out_of_sample=True,
    )
    assert comp.test_rows == 23  # 12 test dates, 11 of them with two parent rows
    assert calls == ["mcrm"] * (1 + 12) + ["classical"] * (1 + 12)


def test_expanding_window_needs_history_before_each_test_date():
    table, days = _two_parent_table()
    system = constraints_for_weights(W4)
    for test_start in (days[0], days[5]):  # before the train start, and on it
        with pytest.raises(DataError, match=f"^empty window before {test_start}$"):
            backtest(
                table, (days[5], days[29]), (test_start, days[40]), ["classical"], system,
                refit_out_of_sample=True,
            )


def test_a_range_that_ends_before_it_starts_is_empty():
    # The CLI refuses such a range first; the library names it as it names an empty one.
    table, days = _two_parent_table()
    system = constraints_for_weights(W4)
    for train, test, what in (((days[20], days[10]), (days[38], days[-1]), "train"), ((days[0], days[29]), (days[45], days[40]), "test")):
        with pytest.raises(DataError, match=f"^empty {what} range$"):
            backtest(table, train, test, ["classical"], system)


def test_expanding_window_before_the_first_calendar_day_is_a_data_error():
    market = synthesize_market(
        SyntheticMarketConfig(true_gamma=GAMMA4, weights=W4, n_dates=20, start=date.min, delivery_year=2)
    )
    days = market.table.dates()
    with pytest.raises(DataError, match="empty window before 0001-01-01"):
        backtest(
            market.table, (days[0], days[9]), (days[0], days[-1]), ["classical"], constraints_for_weights(W4),
            refit_out_of_sample=True,
        )


def test_a_method_the_comparison_lacks_is_a_data_error():
    merged, _, _, tr, te = _merged_train_test(seed=55, n_train=30, n_test=10)
    comp = backtest(merged, tr, te, ["classical"], constraints_for_weights(W4))
    with pytest.raises(DataError, match="no evaluation of method 'mcrm'"):
        comp.by_method("mcrm")


def test_hourly_shaped_fit(rng):
    # a day-to-hour fit is just a K=24 instance of the same estimator
    gamma = arbitrage_free_gamma(rng, 24)
    ds = synthetic_dataset(rng, gamma, n=80, noise=0.3, null_space_noise=True, weights=np.full(24, 1 / 24))
    system = constraints_for_weights(np.full(24, 1 / 24))
    result = irls_fit(ds, system)
    assert result.arbitrage_gap_maxabs <= 1e-6
    assert np.max(np.abs(result.slopes - gamma[0::2])) < 0.2


def _date_loop_backtest(table, train_range, test_range, methods, system, refit_out_of_sample=False):
    """``backtest`` as it walked test cases by date, kept as the oracle of its row-position walk.

    Each test case parses its date; a new date refits on the rows dated from
    the train start to the day before it.
    """

    def dated_rows(dataset, days, start, end, what):
        rows = slice(bisect_left(days, start.isoformat()), bisect_right(days, end.isoformat()))
        if rows.start == rows.stop:
            raise DataError(f"empty {what}")
        return Dataset(x=dataset.x[rows], y=dataset.y[rows], case_ids=dataset.case_ids[rows])

    first, last = min(train_range[0], test_range[0]), max(train_range[1], test_range[1])
    dataset, _ = build_regression_dataset(table.filter_dates(first, last))
    days = [case_id.split("|")[0] for case_id in dataset.case_ids]
    train = dated_rows(dataset, days, *train_range, "train range")
    test = dated_rows(dataset, days, *test_range, "test range")
    evaluations = []
    for method in methods:
        fit = fit_method(method, train, system)
        if refit_out_of_sample:
            predictions = np.empty_like(test.y)
            refit_day = None
            for i, case_id in enumerate(test.case_ids):
                day = date.fromisoformat(case_id.split("|")[0])
                if day != refit_day:
                    if day == date.min:
                        raise DataError(f"empty window before {day}")
                    window = dated_rows(dataset, days, train_range[0], day - timedelta(days=1), f"window before {day}")
                    refit, refit_day = fit_method(method, window, system), day
                predictions[i] = refit.predict(test.x[i : i + 1])[0]
        else:
            predictions = fit.predict(test.x)
        evaluations.append(
            MethodEvaluation(method, fit, compute_metrics(train.y, fit.predict(train.x)), compute_metrics(test.y, predictions))
        )
    return ComparisonTable(evaluations=evaluations, train_rows=train.n_cases, test_rows=test.n_cases)


def _outcome(run):
    """The comparison CSV with its row counts, or the error's type and text."""
    try:
        comp = run()
    except CurveShapeError as exc:
        return type(exc).__name__, str(exc)
    return comp.to_csv(), comp.train_rows, comp.test_rows


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    two_parents=st.booleans(),
    contamination=st.sampled_from([0.0, 0.1, 0.2]),
    train_at=st.integers(-3, 12),
    train_days=st.integers(2, 40),
    test_after=st.integers(-4, 36),
    test_days=st.integers(0, 12),
)
def test_walking_rows_by_position_matches_the_date_loop(seed, two_parents, contamination, train_at, train_days, test_after, test_days):
    # 40 quote dates of CAL-2014, or of CAL-2014 and CAL-2015 with about 3% of the
    # quotes dropped; train and test ranges may overlap, leave gaps or reach past the quotes.
    base = dict(true_gamma=GAMMA4, weights=W4, n_dates=40, contamination_fraction=contamination, seed=seed)
    table = synthesize_market(SyntheticMarketConfig(**base)).table
    if two_parents:
        table = table.merged_with(synthesize_market(SyntheticMarketConfig(**{**base, "seed": seed + 1, "delivery_year": 2015})).table)
        keep = np.random.default_rng(seed).random(len(table)) > 0.03
        table = QuoteTable(table.days[keep], table.codes[keep], table.prices[keep], table.labels)
    offsets = (train_at, train_at + train_days, train_at + test_after, train_at + test_after + test_days)
    a, b, c, d = (date(2013, 1, 2) + timedelta(days=i) for i in offsets)
    train, test = (a, b), (c, d)
    system = constraints_for_weights(W4)
    methods = ["mcrm", "classical", "ratio-average"]
    for refit in (False, True):
        new = _outcome(lambda: backtest(table, train, test, methods, system, refit_out_of_sample=refit))
        old = _outcome(lambda: _date_loop_backtest(table, train, test, methods, system, refit_out_of_sample=refit))
        if old == ("DataError", "need at least 3 cases") and new != old:
            # A window ending before the train start once sliced to no rows; it is now named.
            kind, text = new
            assert kind == "DataError" and text.startswith("empty window before ")
            assert date.fromisoformat(text.removeprefix("empty window before ")) < train[0]
        else:
            assert new == old


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SyntheticMarketConfig(GAMMA4, W4, outlier_magnitude=np.inf), "^outlier_magnitude must be a finite number, not inf$"),
        (lambda: SyntheticMarketConfig(GAMMA4, W4, contamination_type="diagonal"), "^unknown contamination type: 'diagonal'$"),
        (lambda: SyntheticMarketConfig(GAMMA4, W4, contamination_sign="up"), "^unknown contamination sign: 'up'$"),
        (
            lambda: synthesize_market(SyntheticMarketConfig(np.tile([1.0, 0.0], 3), np.full(3, 1 / 3), n_dates=5)),
            "^gamma has 3 children but CAL-2014 has 4 quarters$",
        ),
        (
            lambda: fit_method("median", Dataset(x=np.arange(3.0), y=np.ones((3, 4))), constraints_for_weights(W4)),
            r"^unknown method 'median'; expected one of \('mcrm', 'classical', 'ratio-average'\)$",
        ),
    ],
    ids=["infinite-magnitude", "contamination-type", "contamination-sign", "three-children", "unknown-method"],
)
def test_synthetic_config_and_method_errors_name_the_value(make, message):
    with pytest.raises(DataError, match=message):
        make()
