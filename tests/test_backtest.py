"""Tests for metrics, the synthetic generator, and the backtest harness."""

import csv
import importlib
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import arbitrage_free_gamma, synthetic_dataset
from curveshape import (
    SyntheticMarketConfig,
    XPathParams,
    backtest,
    build_regression_dataset,
    compute_metrics,
    constraints_for_weights,
    irls_fit,
    synthesize_market,
)
from curveshape.backtest import MetricsReport, fit_method
from curveshape.exceptions import DataError
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

    def test_negative_seed_is_a_data_error(self):
        with pytest.raises(DataError, match="seed must be >= 0, not -1"):
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
    for test_start in (days[0], days[5]):
        with pytest.raises(DataError):
            backtest(
                table, (days[5], days[29]), (test_start, days[40]), ["classical"], system,
                refit_out_of_sample=True,
            )


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
