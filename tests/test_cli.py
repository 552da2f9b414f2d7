"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from curveshape.cli import main

SPLIT_CONFIG = {
    "parent": "CAL-2014",
    "children": ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"],
    "weights": [0.25, 0.25, 0.25, 0.25],
}


@pytest.fixture
def workspace(tmp_path):
    split = tmp_path / "split.json"
    split.write_text(json.dumps(SPLIT_CONFIG))
    quotes = tmp_path / "quotes.csv"
    rc = main(
        [
            "simulate",
            "--out", str(quotes),
            "--seed", "7",
            "--n-dates", "120",
            "--fraction", "0",
            "--noise", "0",
            "--path-noise", "0.5",
        ]
    )
    assert rc == 0
    return tmp_path, quotes, split


class TestFit:
    def test_exact_roundtrip(self, workspace):
        tmp_path, quotes, split = workspace
        out = tmp_path / "fit.json"
        rc = main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        expected = {"A1": 1.12, "B1": -1.6, "A2": 0.88, "B2": 1.4, "A3": 0.92, "B3": 0.9, "A4": 1.08, "B4": -0.7}
        for key, value in expected.items():
            assert report["coefficients"][key] == pytest.approx(value, abs=1e-8)
        assert report["diagnostics"]["arbitrage_gap_maxabs"] <= 1e-6
        assert report["completeness"]["dropped"] == 0

    def test_ratio_average_has_zero_intercepts(self, workspace):
        tmp_path, quotes, split = workspace
        out = tmp_path / "ra.json"
        rc = main(
            ["fit", "--quotes", str(quotes), "--split", str(split), "--method", "ratio-average", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        for j in range(1, 5):
            assert report["coefficients"][f"B{j}"] == 0.0

    def test_unreadable_quotes(self, workspace, capsys):
        tmp_path, _, split = workspace
        rc = main(["fit", "--quotes", str(tmp_path / "nope.csv"), "--split", str(split)])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_usage_error(self, workspace):
        _, quotes, _ = workspace
        assert main(["fit", "--quotes", str(quotes)]) == 1

    def test_nan_split_weight_is_a_data_error(self, workspace, capsys):
        tmp_path, quotes, _ = workspace
        split = tmp_path / "nan-split.json"
        split.write_text(json.dumps(dict(SPLIT_CONFIG, weights=[float("nan"), 0.25, 0.25, 0.25])))
        assert main(["fit", "--quotes", str(quotes), "--split", str(split)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_numeric_alpha_flag(self, workspace):
        tmp_path, quotes, split = workspace
        out = tmp_path / "fit0.json"
        rc = main(
            ["fit", "--quotes", str(quotes), "--split", str(split), "--alpha", "0", "--method", "classical", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["diagnostics"]["alpha_used"] == 0.0


class TestPredict:
    def cascade_config(self, coefficients):
        return {
            "root": "CAL-2014",
            "levels": [
                {
                    "name": "YtQ",
                    "splits": [dict(SPLIT_CONFIG, coefficients=coefficients)],
                }
            ],
        }

    def test_identity_cascade_constant_curve(self, workspace):
        tmp_path, _, _ = workspace
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(self.cascade_config([[1.0, 0.0]] * 4)))
        out = tmp_path / "curve.csv"
        rc = main(
            ["predict", "--cascade", str(cascade), "--parent-price", "47.5", "--target", "quarter", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,period_start,period_end,weight,price"
        prices = [float(line.split(",")[-1]) for line in lines[1:]]
        np.testing.assert_allclose(prices, 47.5)

    def test_published_coefficients_quarter_prices(self, workspace):
        tmp_path, _, _ = workspace
        coeffs = [[1.121, -1.604], [0.875, 1.406], [0.921, 0.930], [1.083, -0.732]]
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(self.cascade_config(coeffs)))
        out = tmp_path / "curve.csv"
        rc = main(
            ["predict", "--cascade", str(cascade), "--parent-price", "50.20", "--target", "quarter", "--out", str(out)]
        )
        assert rc == 0
        prices = [float(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(prices, [54.6702, 45.331, 47.1642, 53.6346], atol=1e-9)

    def test_coefficient_file_of_the_wrong_width(self, workspace, capsys):
        tmp_path, _, _ = workspace
        report, cascade = tmp_path / "fit3.json", tmp_path / "cascade.json"
        report.write_text(json.dumps({"coefficients": {"A1": 1.0, "B1": 0.0, "A2": 1.0, "B2": 0.0, "A3": 1.0, "B3": 0.0}}))
        cascade.write_text(json.dumps(self.cascade_config(None)))
        argv = ["--coeffs", str(report), "--cascade", str(cascade), "--parent-price", "50", "--target", "quarter"]
        assert main(["predict", *argv]) == 2
        assert "'CAL-2014'" in capsys.readouterr().err

    def test_weighted_mean_matches_parent(self, workspace, rng):
        from conftest import arbitrage_free_gamma

        tmp_path, _, _ = workspace
        gamma = arbitrage_free_gamma(rng, 4)
        coeffs = [[float(gamma[2 * j]), float(gamma[2 * j + 1])] for j in range(4)]
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(self.cascade_config(coeffs)))
        out = tmp_path / "curve.csv"
        rc = main(
            ["predict", "--cascade", str(cascade), "--parent-price", "61.0", "--target", "quarter", "--out", str(out)]
        )
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        total = sum(float(w) * float(p) for *_, w, p in rows)
        assert total == pytest.approx(61.0, rel=1e-12)

    def test_single_target_label(self, workspace):
        tmp_path, _, _ = workspace
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(self.cascade_config([[1.0, 0.0]] * 4)))
        out = tmp_path / "one.csv"
        rc = main(
            ["predict", "--cascade", str(cascade), "--parent-price", "47.5", "--target", "Q3-2014", "--out", str(out)]
        )
        assert rc == 0
        line = out.read_text().splitlines()[1]
        assert line.startswith("Q3-2014,")
        assert float(line.split(",")[-1]) == 47.5

    def test_unreachable_target(self, workspace):
        tmp_path, _, _ = workspace
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(self.cascade_config([[1.0, 0.0]] * 4)))
        assert main(["predict", "--cascade", str(cascade), "--parent-price", "1", "--target", "hour"]) == 2

    def test_coeffs_file_fills_missing(self, workspace):
        tmp_path, quotes, split = workspace
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(fit_out)]) == 0
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(self.cascade_config(None)))
        out = tmp_path / "curve.csv"
        rc = main(
            [
                "predict", "--coeffs", str(fit_out), "--cascade", str(cascade),
                "--parent-price", "50.0", "--target", "quarter", "--out", str(out),
            ]
        )
        assert rc == 0
        prices = [float(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]]
        expected = np.array([1.12, 0.88, 0.92, 1.08]) * 50.0 + np.array([-1.6, 1.4, 0.9, -0.7])
        np.testing.assert_allclose(prices, expected, atol=1e-7)


class TestBacktestCommand:
    def test_comparison_csv(self, workspace):
        tmp_path, quotes, split = workspace
        out = tmp_path / "bt.csv"
        rc = main(
            [
                "backtest", "--quotes", str(quotes), "--split", str(split),
                "--train", "2013-01-02:2013-03-31", "--test", "2013-04-01:2013-05-01",
                "--methods", "mcrm,classical,ratio-average", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,sample,mean_ae,med_ae,mean_se,med_se"
        assert len(lines) == 7

    def test_empty_train_range(self, workspace):
        tmp_path, quotes, split = workspace
        rc = main(
            [
                "backtest", "--quotes", str(quotes), "--split", str(split),
                "--train", "2001-01-01:2001-02-01", "--test", "2013-04-01:2013-05-01",
            ]
        )
        assert rc == 2

    def test_bad_range_syntax(self, workspace):
        tmp_path, quotes, split = workspace
        rc = main(
            [
                "backtest", "--quotes", str(quotes), "--split", str(split),
                "--train", "2013-01-02", "--test", "2013-04-01:2013-05-01",
            ]
        )
        assert rc == 2


class TestOutliers:
    def test_plot_data_export(self, tmp_path):
        split = tmp_path / "split.json"
        split.write_text(json.dumps(SPLIT_CONFIG))
        quotes = tmp_path / "quotes.csv"
        assert main(
            [
                "simulate", "--out", str(quotes), "--seed", "13", "--n-dates", "200",
                "--fraction", "0.1", "--magnitude", "9",
            ]
        ) == 0
        out = tmp_path / "outliers.csv"
        rc = main(["outliers", "--quotes", str(quotes), "--split", str(split), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "case_id,weight,x,y1,y2,y3,y4,flagged"
        assert len(lines) == 201
        flagged = [line for line in lines[1:] if line.endswith(",1")]
        assert 10 <= len(flagged) <= 40

    def test_threshold_one_lists_all_downweighted(self, workspace):
        tmp_path, quotes, split = workspace
        out = tmp_path / "outliers.csv"
        rc = main(
            ["outliers", "--quotes", str(quotes), "--split", str(split), "--threshold", "1.0", "--out", str(out)]
        )
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert (fields[-1] == "1") == (float(fields[1]) < 1.0)


class TestCheckArbitrage:
    def test_published_table_within_tolerance(self, workspace, capsys):
        tmp_path, _, split = workspace
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(
            json.dumps(
                {
                    "coefficients": {
                        "A1": 1.121, "B1": -1.604, "A2": 0.875, "B2": 1.406,
                        "A3": 0.921, "B3": 0.930, "A4": 1.083, "B4": -0.732,
                    }
                }
            )
        )
        rc = main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split), "--tol", "0.01"])
        assert rc == 0
        assert "arbitrage gap" in capsys.readouterr().out

    def test_violating_coefficients_fail(self, workspace, capsys):
        tmp_path, _, split = workspace
        coeffs = tmp_path / "betas.json"
        coeffs.write_text(
            json.dumps(
                {
                    "coefficients": {
                        "A1": 1.0926, "B1": 0.0, "A2": 0.8994, "B2": 0.0,
                        "A3": 0.9398, "B3": 0.0, "A4": 1.0689, "B4": 0.0,
                    }
                }
            )
        )
        rc = main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split), "--tol", "1e-6"])
        assert rc == 2
        assert "violated" in capsys.readouterr().err

    def test_nan_coefficient_fails(self, workspace, capsys):
        tmp_path, _, split = workspace
        coeffs = tmp_path / "nan.json"
        pairs = {"A1": float("nan"), "B1": 0.0, "A2": 1.0, "B2": 0.0, "A3": 1.0, "B3": 0.0, "A4": 1.0, "B4": 0.0}
        coeffs.write_text(json.dumps({"coefficients": pairs}))
        assert main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split)]) == 2
        assert "violated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [("check-arbitrage", "coefficients"), ("predict", "coefficients"), ("simulate", "gamma")],
)
def test_missing_json_key_is_a_data_error(tmp_path, capsys, command, key):
    split, cascade, bad = tmp_path / "split.json", tmp_path / "cascade.json", tmp_path / "bad.json"
    split.write_text(json.dumps(SPLIT_CONFIG))
    cascade.write_text(json.dumps(TestPredict().cascade_config(None)))
    bad.write_text(json.dumps({"method": "mcrm"}))
    argv = {
        "check-arbitrage": ["--coeffs", str(bad), "--split", str(split)],
        "predict": ["--coeffs", str(bad), "--cascade", str(cascade), "--parent-price", "50", "--target", "quarter"],
        "simulate": ["--gamma", str(bad)],
    }[command]
    assert main([command, *argv]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, with_coeffs",
    [
        ("check-arbitrage", {"coefficients": [1.0, 0.0]}, False),
        ("check-arbitrage", [1, 2], False),
        ("predict", {"root": "CAL-2014", "levels": [1]}, False),
        ("predict", {"root": "CAL-2014", "levels": [1]}, True),
        ("predict", {"root": "CAL-2014", "levels": 5}, False),
        ("predict", {"root": "CAL-2014", "levels": 5}, True),
        ("predict", {"root": "CAL-2014", "levels": [{"splits": 3}]}, False),
        ("predict", {"root": "CAL-2014", "levels": [{"splits": 3}]}, True),
    ],
)
def test_json_of_the_wrong_shape_is_a_data_error(tmp_path, capsys, command, payload, with_coeffs):
    split, report, bad = tmp_path / "split.json", tmp_path / "report.json", tmp_path / "bad.json"
    split.write_text(json.dumps(SPLIT_CONFIG))
    pairs = {f"{c}{j}": float(c == "A") for j in range(1, 5) for c in "AB"}
    report.write_text(json.dumps({"coefficients": pairs}))
    bad.write_text(json.dumps(payload))
    argv = {
        "check-arbitrage": ["--coeffs", str(bad), "--split", str(split)],
        "predict": ["--cascade", str(bad), "--parent-price", "50", "--target", "quarter"],
    }[command]
    if with_coeffs:
        argv += ["--coeffs", str(report)]
    assert main([command, *argv]) == 2
    assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", "--out", str(path), "--seed", "99", "--fraction", "0.2"]) == 0
        assert a.read_text() == b.read_text()

    def test_labels_export(self, tmp_path):
        out = tmp_path / "q.csv"
        labels = tmp_path / "labels.csv"
        rc = main(
            [
                "simulate", "--out", str(out), "--labels-out", str(labels),
                "--seed", "3", "--fraction", "0.25", "--n-dates", "80",
            ]
        )
        assert rc == 0
        lines = labels.read_text().splitlines()
        assert lines[0] == "case_id"
        assert len(lines) == 1 + 20

    def test_simulate_then_fit_recovers_gamma(self, tmp_path):
        quotes = tmp_path / "q.csv"
        split = tmp_path / "split.json"
        split.write_text(json.dumps(SPLIT_CONFIG))
        gamma_file = tmp_path / "gamma.json"
        gamma_file.write_text(json.dumps({"gamma": [1.3, -2.0, 0.7, 1.0, 0.9, 1.5, 1.1, -0.5]}))
        assert main(
            ["simulate", "--out", str(quotes), "--gamma", str(gamma_file), "--fraction", "0", "--noise", "0", "--seed", "1"]
        ) == 0
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(fit_out)]) == 0
        report = json.loads(fit_out.read_text())
        gamma = [report["coefficients"][f"{c}{j}"] for j in range(1, 5) for c in ("A", "B")]
        np.testing.assert_allclose(gamma, [1.3, -2.0, 0.7, 1.0, 0.9, 1.5, 1.1, -0.5], atol=1e-8)



class TestReadmeFlow:
    """The README walk-through: simulate at price level 50 with 20% outliers, fit, check."""

    @pytest.fixture
    def fitted(self, tmp_path):
        split = tmp_path / "split.json"
        split.write_text(json.dumps({k: SPLIT_CONFIG[k] for k in ("parent", "children")}))
        quotes, fit = tmp_path / "quotes.csv", tmp_path / "fit.json"
        assert main(
            ["simulate", "--out", str(quotes), "--seed", "7", "--n-dates", "300", "--fraction", "0.2", "--magnitude", "10"]
        ) == 0
        assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--method", "mcrm", "--out", str(fit)]) == 0
        return fit, split

    def test_fit_report_is_strict_json(self, fitted):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(fitted[0].read_text(), parse_constant=reject)
        # the penalized fit misses 1e-6 here, so the exact-limit fallback (alpha = inf) ran
        assert report["diagnostics"]["alpha_used"] is None

    def test_check_arbitrage_passes_at_tight_tolerance(self, fitted):
        fit, split = fitted
        assert main(["check-arbitrage", "--coeffs", str(fit), "--split", str(split), "--tol", "1e-6"]) == 0

def test_exit_code_for_numerical_failures(monkeypatch, capsys):
    from curveshape import cli
    from curveshape.exceptions import NumericalError

    parser = cli.build_parser()

    def boom(args):
        raise NumericalError("rank-deficient weighted design")

    monkeypatch.setattr(
        cli, "build_parser", lambda: parser
    )
    args = parser.parse_args(["check-arbitrage", "--coeffs", "x", "--split", "y"])
    monkeypatch.setattr(args, "func", boom, raising=False)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli.main(["check-arbitrage", "--coeffs", "x", "--split", "y"]) == 3
    assert "numerical failure" in capsys.readouterr().err
