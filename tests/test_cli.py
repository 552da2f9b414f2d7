"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import curveshape
from curveshape.cli import main
from curveshape.periods import month_period
from curveshape.constraints import FEASIBILITY_TOLERANCE, split_to_config
from curveshape.shaping import daytype_split, hour_split

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

    @pytest.mark.parametrize("contract", ["D+9999999999", "D-9999-12-31", "Y+9000", "H-9999-12-31-23"])
    def test_period_past_year_9999_is_a_data_error_naming_its_line(self, tmp_path, capsys, contract):
        quotes, split = tmp_path / "quotes.csv", tmp_path / "split.json"
        quotes.write_text(f"quote_date,contract,price\n2013-01-02,CAL-2014,50\n2013-01-02,{contract},50\n")
        split.write_text(json.dumps(SPLIT_CONFIG))
        assert main(["fit", "--quotes", str(quotes), "--split", str(split)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: ")

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["fit", "--quotes", "DIR", "--split", "SPLIT"], "cannot read quotes file"),
            (["fit", "--quotes", "QUOTES", "--split", "DIR"], "cannot read file"),
            (["check-arbitrage", "--coeffs", "DIR", "--split", "SPLIT"], "cannot read file"),
            (["fit", "--quotes", "QUOTES", "--split", "SPLIT", "--out", "DIR"], "cannot write file"),
            (["simulate", "--out", "DIR"], "cannot write file"),
        ],
    )
    def test_a_directory_path_is_a_data_error(self, workspace, capsys, flags, error):
        tmp_path, quotes, split = workspace
        paths = {"DIR": str(tmp_path), "QUOTES": str(quotes), "SPLIT": str(split)}
        assert main([paths.get(flag, flag) for flag in flags]) == 2
        assert capsys.readouterr().err == f"error: {error}: {tmp_path}\n"

    def test_usage_error(self, workspace):
        _, quotes, _ = workspace
        assert main(["fit", "--quotes", str(quotes)]) == 1

    def test_nan_split_weight_is_a_data_error(self, workspace, capsys):
        tmp_path, quotes, _ = workspace
        split = tmp_path / "nan-split.json"
        split.write_text(json.dumps(dict(SPLIT_CONFIG, weights=[float("nan"), 0.25, 0.25, 0.25])))
        assert main(["fit", "--quotes", str(quotes), "--split", str(split)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_string_split_label_is_a_data_error(self, workspace, capsys):
        tmp_path, quotes, _ = workspace
        split = tmp_path / "int-label.json"
        split.write_text(json.dumps(dict(SPLIT_CONFIG, children=["Q1-2014", "Q2-2014", "Q3-2014", 4])))
        assert main(["fit", "--quotes", str(quotes), "--split", str(split)]) == 2
        assert "split child labels must be a list or tuple of strings, not " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "children",
        [
            ["Q4-2014", "Q3-2014", "Q2-2014", "Q1-2014"],
            ["Q1-2015", "Q2-2015", "Q3-2015", "Q4-2015"],
            ["Q1-2014", "Q2-2014", "Q3-2014", "M-2014-10"],
            ["Q1-2014", "Q2-2014", "Q3-2014"],
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["fit"], ["outliers"], ["backtest", "--train", "2013-01-02:2013-03-31", "--test", "2013-04-01:2013-05-01"]],
    )
    def test_split_must_list_the_parents_children_in_delivery_order(self, workspace, capsys, children, command):
        # Dataset columns run in delivery order, so any other list would pair a weight with the wrong child.
        tmp_path, quotes, _ = workspace
        split, out = tmp_path / "listed.json", tmp_path / "out"
        split.write_text(json.dumps(dict(SPLIT_CONFIG, children=children, weights=[1.0] * len(children))))
        assert main([*command, "--quotes", str(quotes), "--split", str(split), "--out", str(out)]) == 2
        expected = "Q1-2014, Q2-2014, Q3-2014, Q4-2014, in that order"
        assert capsys.readouterr().err == f"error: split of CAL-2014 must list {expected}\n"
        assert not out.exists()

    def test_overflowing_rank_test_is_a_numerical_failure(self, workspace, capsys):
        # Finite prices near 1e160: squaring their weighted mean overflows a float.
        tmp_path, _, split = workspace
        u = np.random.default_rng(5).uniform(size=(30, 5))
        rows = [
            f"2013-01-{i + 1:02d},{label},{float(1e160 * (1.0 + 1e-9 * u[i, j]))!r}"
            for i in range(30)
            for j, label in enumerate(["CAL-2014", *SPLIT_CONFIG["children"]])
        ]
        quotes, out = tmp_path / "huge.csv", tmp_path / "fit.json"
        quotes.write_text("quote_date,contract,price\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(out)]) == 3
        assert "numerical failure: rank-deficient" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_alpha_flag(self, workspace):
        tmp_path, quotes, split = workspace
        out = tmp_path / "fit0.json"
        rc = main(
            ["fit", "--quotes", str(quotes), "--split", str(split), "--alpha", "0", "--method", "classical", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["diagnostics"]["alpha_used"] == 0.0

    @pytest.mark.parametrize("method", ["classical", "mcrm"])
    def test_subnormal_alpha_is_the_alpha_zero_limit(self, workspace, capsys, method):
        # G / alpha overflows, so the penalty lies below rounding: no warning, no NaN
        tmp_path, quotes, split = workspace
        reports = []
        for alpha in ("0", "1e-320"):
            out = tmp_path / f"fit-{alpha}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow in G / alpha
                argv = ["fit", "--quotes", str(quotes), "--split", str(split), "--method", method, "--alpha", alpha]
                assert main([*argv, "--out", str(out)]) == 0
            reports.append(_strict_json(out.read_text())["coefficients"])
        assert reports[1] == reports[0]
        assert all(math.isfinite(v) for v in reports[0].values())
        assert capsys.readouterr().err == ""


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

    def test_label_with_a_comma_is_a_data_error(self, tmp_path, capsys):
        # written unquoted, "base,peak" would make a six-field row under the five-column header
        split = {"parent": "B", "children": ["base,peak", "offpeak"], "weights": [0.5, 0.5], "coefficients": [[1.0, 0.0]] * 2}
        cascade, out = tmp_path / "cascade.json", tmp_path / "curve.csv"
        cascade.write_text(json.dumps({"root": "B", "levels": [{"name": "L", "splits": [split]}]}))
        argv = ["--cascade", str(cascade), "--parent-price", "50", "--target", "L", "--out", str(out)]
        assert main(["predict", *argv]) == 2
        assert "label 'base,peak' must be a string with no comma" in capsys.readouterr().err
        assert not out.exists()

    def test_two_splits_for_one_parent_in_a_level(self, workspace, capsys):
        tmp_path, _, _ = workspace
        config = self.cascade_config([[1.0, 0.0]] * 4)
        config["levels"][0]["splits"].append(dict(SPLIT_CONFIG, coefficients=[[1.2, 0], [0.8, 0], [1, 0], [1, 0]]))
        cascade, out = tmp_path / "cascade.json", tmp_path / "curve.csv"
        cascade.write_text(json.dumps(config))
        argv = ["--cascade", str(cascade), "--parent-price", "50", "--target", "quarter", "--out", str(out)]
        assert main(["predict", *argv]) == 2
        assert capsys.readouterr().err == "error: cascade level 'YtQ' has two splits for 'CAL-2014'\n"
        assert not out.exists()

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

    def test_cycle_below_the_root_is_unreachable(self, tmp_path):
        # A -> B and B -> A pass the chaining check, as X -> Y chains level 1 to the root.
        def split(parent, child):
            return {"parent": parent, "children": [child], "weights": [1.0], "coefficients": [[1.0, 0.0]]}

        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"root": "ROOT", "levels": [
            {"name": "L0", "splits": [split("ROOT", "X")]},
            {"name": "L1", "splits": [split("X", "Y"), split("A", "B"), split("B", "A")]},
        ]}))
        src = str(Path(curveshape.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from curveshape.cli import main; sys.exit(main(sys.argv[1:]))",
             "predict", "--cascade", str(path), "--parent-price", "50", "--target", "A"],
            capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "no shaping path to 'A'" in proc.stderr

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

    @staticmethod
    def report(parent, children, slopes):
        """A report fitted to ``parent``'s equal-weight split, with zero intercepts."""
        pairs = {f"{c}{j + 1}": (a if c == "A" else 0.0) for j, a in enumerate(slopes) for c in "AB"}
        split = {"parent": parent, "children": children, "weights": [1 / len(children)] * len(children)}
        return {"coefficients": pairs, "split": split}

    def test_report_fills_only_the_split_it_was_fitted_to(self, tmp_path, capsys):
        # Each quarter splits into four blocks that no CAL-2014 pair belongs to.
        quarters = SPLIT_CONFIG["children"]
        blocks = [dict(SPLIT_CONFIG, parent=q, children=[f"{q}:{b}" for b in "abcd"], coefficients=None) for q in quarters]
        config = self.cascade_config(None)
        config["levels"].append({"name": "QtB", "splits": blocks})
        report, cascade = tmp_path / "fit.json", tmp_path / "cascade.json"
        report.write_text(json.dumps(self.report("CAL-2014", quarters, [1.2, 0.8, 1.0, 1.0])))
        cascade.write_text(json.dumps(config))
        argv = ["predict", "--coeffs", str(report), "--cascade", str(cascade), "--parent-price", "60", "--target", "QtB"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: split 'Q1-2014' has no coefficients\n"

    def test_report_of_one_split_blames_the_splits_it_leaves_empty(self, tmp_path, capsys):
        months = [[f"M-2014-{m:02d}" for m in range(3 * i + 1, 3 * i + 4)] for i in range(4)]
        config = self.cascade_config([[1.0, 0.0]] * 4)
        splits = [{"parent": q, "children": ms, "coefficients": None} for q, ms in zip(SPLIT_CONFIG["children"], months)]
        config["levels"].append({"name": "QtM", "splits": splits})
        report, cascade = tmp_path / "fit.json", tmp_path / "cascade.json"
        report.write_text(json.dumps(self.report("Q1-2014", months[0], [1.03, 0.97, 1.0])))
        cascade.write_text(json.dumps(config))
        argv = ["predict", "--coeffs", str(report), "--cascade", str(cascade), "--parent-price", "60", "--target", "month"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: split 'Q2-2014' has no coefficients\n"

    def test_report_pairs_by_label_when_the_cascade_lists_its_children_in_another_order(self, tmp_path):
        quarters = SPLIT_CONFIG["children"]
        config = self.cascade_config(None)
        config["levels"][0]["splits"][0]["children"] = quarters[::-1]
        report, cascade, out = tmp_path / "fit.json", tmp_path / "cascade.json", tmp_path / "curve.csv"
        report.write_text(json.dumps(self.report("CAL-2014", quarters, [1.2, 0.8, 1.1, 0.9])))
        cascade.write_text(json.dumps(config))
        argv = ["--coeffs", str(report), "--cascade", str(cascade), "--parent-price", "50", "--target", "quarter"]
        assert main(["predict", *argv, "--out", str(out)]) == 0
        prices = {line.split(",")[0]: float(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]}
        assert prices == {"Q1-2014": 60.0, "Q2-2014": 40.0, "Q3-2014": 55.00000000000001, "Q4-2014": 45.0}


    def test_null_coefficient_is_a_data_error(self, workspace, capsys):
        # JSON null reads as nan; overriding the arbitrage check must not let it through.
        tmp_path, _, _ = workspace
        cascade, out = tmp_path / "cascade.json", tmp_path / "curve.csv"
        cascade.write_text(json.dumps(self.cascade_config([[None, 0], [1, 0], [1, 0], [1, 0]])))
        argv = ["predict", "--cascade", str(cascade), "--parent-price", "50", "--out", str(out)]
        assert main([*argv, "--target", "quarter", "--override-arbitrage"]) == 2
        assert "non-finite pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["quarter", "Q1-2014"])
    @pytest.mark.parametrize(
        "pairs, price, flags",
        [([[1e308, 1e308]] * 4, "50", ["--override-arbitrage"]), ([[2, 0], [0, 0], [1, 0], [1, 0]], "1e308", [])],
        ids=["huge-pairs", "huge-parent-price"],
    )
    def test_overflowing_price_is_a_numerical_failure(self, workspace, capsys, target, pairs, price, flags):
        tmp_path, _, _ = workspace
        cascade, out = tmp_path / "cascade.json", tmp_path / "curve.csv"
        cascade.write_text(json.dumps(self.cascade_config(pairs)))
        argv = ["predict", "--cascade", str(cascade), "--parent-price", price, "--target", target, "--out", str(out)]
        assert main([*argv, *flags]) == 3
        assert "overflowed" in capsys.readouterr().err
        assert not out.exists()


class TestPredictTargets:
    """Targets named by level, by granularity and by a label that is not a period."""

    HEADER = "label,period_start,period_end,weight,price"
    FEB = "2014-02-01T00:00:00,2014-03-01T00:00:00"

    @staticmethod
    def hour_levels(parents):
        pairs = np.column_stack([np.ones(24), np.arange(24) - 11.5])
        return {parent: curveshape.ShapingLevel(hour_split(parent), pairs) for parent in parents}

    def predict(self, tmp_path, casc, target):
        path, out = tmp_path / "cascade.json", tmp_path / "curve.csv"
        path.write_text(json.dumps(curveshape.cascade_to_config(casc)))
        out.unlink(missing_ok=True)
        code = main(["predict", "--cascade", str(path), "--parent-price", "40", "--target", target, "--out", str(out)])
        return code, out.read_text().splitlines() if out.exists() else None

    @pytest.fixture
    def month(self):
        """February 2014 into day types (20 WD, 4 SAT, 4 SUN), each into 24 hours."""
        days = daytype_split(month_period(2014, 2))
        pairs = [[1.0, 1.0], [1.0, -2.0], [1.0, -3.0]]
        return curveshape.ShapingCascade("M-2014-02", ["MtD", "DtH"], [
            {"M-2014-02": curveshape.ShapingLevel(days, pairs)}, self.hour_levels(days.child_labels),
        ])

    @pytest.fixture
    def blocks(self):
        """Blocks that are not periods, each into 24 hours."""
        split = curveshape.GranularitySplit("BLOCK", ("BASE", "PEAK"), np.array([0.5, 0.5]))
        return curveshape.ShapingCascade("BLOCK", ["BtP", "PtH"], [
            {"BLOCK": curveshape.ShapingLevel(split, [[1.0, -2.0], [1.0, 2.0]])},
            self.hour_levels(split.child_labels),
        ])

    @pytest.mark.parametrize("target", ["MtD", "day", "DAY"])
    def test_day_types(self, tmp_path, month, target):
        assert self.predict(tmp_path, month, target) == (0, [
            self.HEADER,
            f"M-2014-02:WD,{self.FEB},0.7142857142857143,41.0",
            f"M-2014-02:SAT,{self.FEB},0.14285714285714285,38.0",
            f"M-2014-02:SUN,{self.FEB},0.14285714285714285,37.0",
        ])

    @pytest.mark.parametrize("target", ["DtH", "hour"])
    def test_hours(self, tmp_path, month, target):
        code, lines = self.predict(tmp_path, month, target)
        assert code == 0 and len(lines) == 1 + 72
        assert lines[1] == f"M-2014-02:WD:H00,{self.FEB},0.02976190476190476,29.5"
        assert lines[32] == f"M-2014-02:SAT:H07,{self.FEB},0.005952380952380952,33.5"
        assert lines[-1] == f"M-2014-02:SUN:H23,{self.FEB},0.005952380952380952,48.5"

    def test_one_hour_label(self, tmp_path, month):
        code, lines = self.predict(tmp_path, month, "M-2014-02:SAT:H07")
        assert (code, lines) == (0, [self.HEADER, f"M-2014-02:SAT:H07,{self.FEB},,33.5"])

    def test_leaves_that_are_not_periods_have_no_window(self, tmp_path, blocks):
        assert self.predict(tmp_path, blocks, "BtP") == (0, [self.HEADER, "BASE,,,0.5,38.0", "PEAK,,,0.5,42.0"])
        assert self.predict(tmp_path, blocks, "PEAK:H23") == (0, [self.HEADER, "PEAK:H23,,,,53.5"])

    def test_granularity_below_a_level_that_is_not_periods(self, tmp_path, blocks):
        code, lines = self.predict(tmp_path, blocks, "hour")
        assert code == 0 and len(lines) == 1 + 48
        assert (lines[1], lines[-1]) == ("BASE:H00,,,0.020833333333333332,26.5", "PEAK:H23,,,0.020833333333333332,53.5")

    def test_granularity_that_no_level_has(self, tmp_path, blocks, capsys):
        assert self.predict(tmp_path, blocks, "day") == (2, None)
        assert "no shaping path to granularity 'day'" in capsys.readouterr().err


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

    def test_empty_method_list(self, workspace, capsys):
        tmp_path, quotes, split = workspace
        out = tmp_path / "bt.csv"
        argv = ["--train", "2013-01-02:2013-03-31", "--test", "2013-04-01:2013-05-01", "--methods", ","]
        assert main(["backtest", "--quotes", str(quotes), "--split", str(split), *argv, "--out", str(out)]) == 2
        assert "no methods" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_train_range(self, workspace):
        tmp_path, quotes, split = workspace
        rc = main(
            [
                "backtest", "--quotes", str(quotes), "--split", str(split),
                "--train", "2001-01-01:2001-02-01", "--test", "2013-04-01:2013-05-01",
            ]
        )
        assert rc == 2

    def test_range_that_ends_before_it_starts(self, workspace, capsys):
        tmp_path, quotes, split = workspace
        argv = ["--train", "2013-03-31:2013-01-02", "--test", "2013-04-01:2013-05-01"]
        assert main(["backtest", "--quotes", str(quotes), "--split", str(split), *argv]) == 2
        assert capsys.readouterr().err == "error: range '2013-03-31:2013-01-02' ends before it starts\n"

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
        rc = main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split)])
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
        rc = main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split)])
        assert rc == 2
        assert "violated" in capsys.readouterr().err

    def test_nan_coefficient_fails(self, workspace, capsys):
        tmp_path, _, split = workspace
        coeffs = tmp_path / "nan.json"
        pairs = {"A1": float("nan"), "B1": 0.0, "A2": 1.0, "B2": 0.0, "A3": 1.0, "B3": 0.0, "A4": 1.0, "B4": 0.0}
        coeffs.write_text(json.dumps({"coefficients": pairs}))
        assert main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split)]) == 2
        assert "violated" in capsys.readouterr().err


    def test_null_coefficient_is_a_nan_gap(self, workspace, capsys):
        tmp_path, _, split = workspace
        coeffs = tmp_path / "null.json"
        coeffs.write_text(json.dumps({"coefficients": dict(_PAIRS, A1=None)}))
        assert main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split)]) == 2
        captured = capsys.readouterr()
        assert "arbitrage gap: nan" in captured.out and "violated" in captured.err

    @pytest.mark.parametrize(
        "split",
        [split_to_config(daytype_split(month_period(2014, 1))), split_to_config(hour_split("M-2014-01:WD"))],
        ids=["day-types", "24-hours"],
    )
    @pytest.mark.parametrize("slope, code", [(1.0, 0), (1.01, 2)])
    def test_any_weighted_split(self, tmp_path, capsys, split, slope, code):
        # The check reads only the split's weights, so labels that are not periods pass too.
        split_path, coeffs = tmp_path / "split.json", tmp_path / "coeffs.json"
        split_path.write_text(json.dumps(split))
        pairs = {f"{c}{j + 1}": slope if c == "A" else 0.0 for j in range(len(split["weights"])) for c in "AB"}
        coeffs.write_text(json.dumps({"coefficients": pairs}))
        assert main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split_path)]) == code
        captured = capsys.readouterr()
        assert captured.out.startswith("max-abs arbitrage gap: ")
        assert ("violated" in captured.err) == bool(code)

    @pytest.mark.parametrize("b1, code", [(3.9e-6, 0), (4.1e-6, 2)], ids=["gap-9.75e-7", "gap-1.025e-6"])
    def test_verdict_is_taken_at_the_feasibility_tolerance(self, workspace, capsys, b1, code):
        # h . B = B1 / 4 lies just inside or just past FEASIBILITY_TOLERANCE (1e-6), the bound the fit keeps to.
        tmp_path, _, split = workspace
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({"coefficients": dict(_PAIRS, B1=b1)}))
        assert main(["check-arbitrage", "--coeffs", str(coeffs), "--split", str(split)]) == code
        captured = capsys.readouterr()
        assert captured.out.endswith(f"(tolerance {FEASIBILITY_TOLERANCE:g})\n")
        assert ("violated" in captured.err) == bool(code)


@pytest.mark.parametrize(
    "command, flag",
    [
        *[(command, flag) for command in ("fit", "backtest", "outliers") for flag in ("--tolerance", "--max-iterations")],
        ("check-arbitrage", "--tol"),
    ],
)
def test_removed_stop_rule_and_tolerance_flags_are_usage_errors(workspace, capsys, command, flag):
    # The IRLS stop rule and the arbitrage verdict are constants now: a script that still sets them
    # is told so, and no output is written under a rule it did not ask for.
    tmp_path, quotes, split = workspace
    out = tmp_path / "out"
    argv = {
        "fit": ["--quotes", str(quotes), "--split", str(split), "--out", str(out)],
        "backtest": [
            "--quotes", str(quotes), "--split", str(split), "--out", str(out),
            "--train", "2013-01-02:2013-03-31", "--test", "2013-04-01:2013-05-01",
        ],
        "outliers": ["--quotes", str(quotes), "--split", str(split), "--out", str(out)],
        "check-arbitrage": ["--coeffs", str(out), "--split", str(split)],
    }[command]
    assert main([command, *argv, flag, "5"]) == 1
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


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


_PAIRS = {f"{c}{j}": float(c == "A") for j in range(1, 5) for c in "AB"}


def _cascade(coefficients=((1.0, 0.0),) * 4, root="CAL-2014", **split):
    return {"root": root, "levels": [{"name": "YtQ", "splits": [dict(SPLIT_CONFIG, coefficients=coefficients, **split)]}]}


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
        ("check-arbitrage", {"coefficients": dict(_PAIRS, A1={"x": 1})}, False),
        ("predict", _cascade({"a": 1}), False),
        ("predict", _cascade(weights={"a": 1}), False),
        ("predict", _cascade(children=[1, 2, 3, 4]), False),
        ("predict", _cascade(root=["x"]), False),
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


@pytest.mark.parametrize(
    "command, bad, payload, message",
    [
        ("fit", "--split", dict(SPLIT_CONFIG, weights={"a": 1}), "split weights must be numbers"),
        ("check-arbitrage", "--split", dict(SPLIT_CONFIG, weights={"a": 1}), "split weights must be numbers"),
        ("fit", "--split", dict(SPLIT_CONFIG, weights=["a"] * 4), "split weights must be numbers"),
        ("fit", "--split", dict(SPLIT_CONFIG, weights=[[0.5], [0.25, 0.25]]), "split weights must be numbers"),
        ("fit", "--split", dict(SPLIT_CONFIG, children="Q1-2014"), "'children' must be a list of labels"),
        ("predict", "--coeffs", {"coefficients": dict(_PAIRS, A1={"x": 1})}, "fit report coefficients must be numbers"),
        ("check-arbitrage", "--coeffs", {"coefficients": dict(_PAIRS, A1="x")}, "fit report coefficients must be numbers"),
        ("check-arbitrage", "--coeffs", {"coefficients": dict(_PAIRS, A1=[1.0])}, "fit report coefficients must be numbers"),
        ("predict", "--cascade", _cascade([["a", "b"]] * 4), "'CAL-2014' pairs (A_k, B_k) must be numbers"),
        ("predict", "--cascade", _cascade([[1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), "pairs (A_k, B_k) must be numbers"),
        ("predict", "--cascade", _cascade(weights=["a"] * 4), "split weights must be numbers"),
        ("predict", "--cascade", _cascade(weights=[[0.5], [0.25, 0.25]]), "split weights must be numbers"),
        ("simulate", "--gamma", {"gamma": None}, "at least one (A, B) pair"),
        ("simulate", "--gamma", {"gamma": []}, "at least one (A, B) pair"),
        ("simulate", "--gamma", {"gamma": [1]}, "at least one (A, B) pair"),
        ("simulate", "--gamma", {"gamma": True}, "must be numbers"),  # a bool is not a number
        ("simulate", "--gamma", {"gamma": {"a": 1}}, "must be numbers"),
        ("simulate", "--gamma", {"gamma": ["a"] * 8}, "must be numbers"),
        ("simulate", "--gamma", {"gamma": [[1.12, -1.6], [0.88]]}, "must be numbers"),
        # Text is refused even where it spells a number, and so is an int past the largest float.
        ("check-arbitrage", "--split", dict(SPLIT_CONFIG, weights=["0.25"] * 4), "split weights must be numbers"),
        ("check-arbitrage", "--split", dict(SPLIT_CONFIG, weights="0.25"), "split weights must be numbers"),
        ("check-arbitrage", "--split", dict(SPLIT_CONFIG, weights=[0.25, None, "0.25", 0.25]), "split weights must be numbers"),
        ("check-arbitrage", "--split", dict(SPLIT_CONFIG, weights=[10**400, 1, 1, 1]), "split weights must be numbers"),
        ("check-arbitrage", "--coeffs", {"coefficients": {k: str(int(v)) for k, v in _PAIRS.items()}}, "fit report coefficients must be numbers"),
        ("fit", "--split", dict(SPLIT_CONFIG, weights=["0.25"] * 4), "split weights must be numbers"),
        ("predict", "--cascade", _cascade([["1", "0"]] * 4), "'CAL-2014' pairs (A_k, B_k) must be numbers"),
        ("simulate", "--gamma", {"gamma": ["1.12", "-1.6", "0.88", "1.4", "0.92", "0.9", "1.08", "-0.7"]}, "must be numbers"),
    ],
)
def test_json_values_of_the_wrong_type_are_a_data_error(desk_quotes, tmp_path, capsys, command, bad, payload, message):
    _, quotes = desk_quotes
    docs = {"--split": SPLIT_CONFIG, "--coeffs": {"coefficients": _PAIRS}, "--cascade": _cascade(None), bad: payload}
    path = {flag: tmp_path / f"{flag[2:]}.json" for flag in docs}
    for flag, doc in docs.items():
        path[flag].write_text(json.dumps(doc))
    argv = {
        "fit": ["--quotes", quotes, "--split", path["--split"]],
        "check-arbitrage": ["--coeffs", path["--coeffs"], "--split", path["--split"]],
        "predict": ["--cascade", path["--cascade"], "--parent-price", "50", "--target", "quarter"]
        + (["--coeffs", path["--coeffs"]] if bad == "--coeffs" else []),
        "simulate": ["--n-dates", "20", "--out", tmp_path / "q.csv", "--gamma", path.get("--gamma")],
    }[command]
    assert main([command, *map(str, argv)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err


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

    def test_nan_gamma_is_a_data_error(self, tmp_path, capsys):
        gamma_file = tmp_path / "gamma.json"
        gamma_file.write_text(json.dumps({"gamma": [float("nan"), 0, 1, 0, 1, 0, 1, 0]}))
        out = tmp_path / "q.csv"
        assert main(["simulate", "--gamma", str(gamma_file), "--out", str(out)]) == 2
        assert "violates non-arbitrage (gap nan)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--noise", "1e308"], ["--magnitude", "1e308", "--contamination-type", "leverage", "--fraction", "0.1"]]
    )
    def test_overflowing_prices_are_a_data_error(self, tmp_path, capsys, flags):
        out = tmp_path / "q.csv"
        assert main(["simulate", "--out", str(out), "--n-dates", "40", *flags]) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n-dates", "400"], ["--n-dates", "366"], ["--start-date", "2014-06-01"]])
    def test_quotes_after_delivery_starts_are_a_data_error(self, tmp_path, capsys, flags):
        out = tmp_path / "q.csv"
        assert main(["simulate", "--out", str(out), *flags]) == 2
        assert "CAL-2014 delivery starts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be an integer >= 0, not -1"),
            (["--year", "0"], "delivery_year must be an integer >= 1 and <= 9998, not 0"),
            (["--year", "10000"], "delivery_year must be an integer >= 1 and <= 9998, not 10000"),
            (["--year", "9999"], "delivery_year must be an integer >= 1 and <= 9998, not 9999"),  # CAL-9999 ends in 10000
        ],
    )
    def test_seed_and_year_out_of_range_are_a_data_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "q.csv"
        assert main(["simulate", "--out", str(out), "--n-dates", "20", *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_dates", ["-1", "0", "1", "2"])
    def test_fewer_than_three_dates_is_a_data_error(self, tmp_path, capsys, n_dates):
        out = tmp_path / "q.csv"
        assert main(["simulate", "--out", str(out), "--n-dates", n_dates]) == 2
        assert "--n-dates must be at least 3" in capsys.readouterr().err
        assert not out.exists()

    def test_prices_spread_past_a_float_fail_the_fit_numerically(self, tmp_path, capsys):
        # 3 dates with a seasonal swing of 1e308: finite prices up to 3.4e306,
        # whose squared differences overflow a float.
        quotes, split, fit = tmp_path / "q.csv", tmp_path / "split.json", tmp_path / "fit.json"
        split.write_text(json.dumps(SPLIT_CONFIG))
        assert main(["simulate", "--out", str(quotes), "--n-dates", "3", "--amplitude", "1e308"]) == 0
        assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(fit)]) == 3
        assert "spread too wide" in capsys.readouterr().err
        assert not fit.exists()

    def test_last_quote_may_fall_on_the_first_delivery_day(self, tmp_path):
        # 365 dates from 2013-01-02 end on 2014-01-01, which load_quotes accepts.
        quotes, split, fit = tmp_path / "q.csv", tmp_path / "split.json", tmp_path / "fit.json"
        split.write_text(json.dumps(SPLIT_CONFIG))
        assert main(["simulate", "--out", str(quotes), "--n-dates", "365"]) == 0
        assert quotes.read_text().splitlines()[-1].startswith("2014-01-01,")
        assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(fit)]) == 0

    def test_gamma_within_the_feasibility_tolerance_is_arbitrage_free(self, tmp_path):
        # h . B = 1e-8, inside FEASIBILITY_TOLERANCE (1e-6): the true gamma is arbitrage-free.
        gamma_file, out = tmp_path / "gamma.json", tmp_path / "q.csv"
        gamma_file.write_text(json.dumps({"gamma": [1.12, -1.6, 0.88, 1.4, 0.92, 0.9, 1.08, -0.7 + 4e-8]}))
        assert main(["simulate", "--gamma", str(gamma_file), "--n-dates", "20", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 20 * 5

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



@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "flag",
    [
        "--level", "--amplitude", "--path-noise", "--noise", "--magnitude", "--parent-price", "--threshold",
    ],
)
def test_non_finite_number_flag_is_a_data_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out.csv"
    if flag == "--parent-price":
        cascade = tmp_path / "cascade.json"
        cascade.write_text(json.dumps(TestPredict().cascade_config([[1.0, 0.0]] * 4)))
        argv = ["predict", "--cascade", str(cascade), "--target", "quarter", "--out", str(out)]
    elif flag == "--threshold":
        # A real desk market, so that only the flag can fail the command: a nan threshold flagged no case.
        split, quotes = tmp_path / "split.json", tmp_path / "quotes.csv"
        split.write_text(json.dumps(SPLIT_CONFIG))
        assert main(["simulate", "--out", str(quotes), "--seed", "3", "--n-dates", "60", "--fraction", "0.2"]) == 0
        argv = ["outliers", "--quotes", str(quotes), "--split", str(split), "--out", str(out)]
    else:
        argv = ["simulate", "--n-dates", "20", "--out", str(out)]
    assert main([*argv, f"{flag}={value}"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--split", "BAD"], "invalid JSON in {BAD}: Expecting property name"),
        (["check-arbitrage", "--coeffs", "BAD", "--split", "SPLIT"], "invalid JSON in {BAD}: Expecting property name"),
        (["fit", "--split", "HUGE"], "invalid JSON in {HUGE}: Exceeds the limit (4300 digits)"),
        (["fit", "--split", "SPLIT", "--alpha", "one"], "bad --alpha value 'one'; expected AUTO or a number"),
        (["backtest", "--split", "SPLIT", "--train", "2013-02-30:2013-03-31", "--test", "2013-04-01:2013-05-01"],
         "bad date '2013-02-30'; expected ISO-8601"),
        (["backtest", "--split", "SPLIT", "--train", "2013-01-02:2013-03-31", "--test", "2013-04-01:May"],
         "bad date 'May'; expected ISO-8601"),
    ],
)
def test_text_that_does_not_parse_is_a_data_error(workspace, capsys, argv, message):
    tmp_path, quotes, split = workspace
    (tmp_path / "bad.json").write_text('{"parent": "CAL-2014", ')
    (tmp_path / "huge.json").write_text('{"weights": [1' + "0" * 5000 + "]}")
    paths = {"BAD": tmp_path / "bad.json", "HUGE": tmp_path / "huge.json", "SPLIT": split}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    if argv[0] != "check-arbitrage":
        argv += ["--quotes", str(quotes)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(**paths) in err


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


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
        report = _strict_json(fitted[0].read_text())
        # the penalized fit misses 1e-6 here, so the exact-limit fallback (alpha = inf) ran
        assert report["diagnostics"]["alpha_used"] is None

    def test_check_arbitrage_passes_at_tight_tolerance(self, fitted):
        fit, split = fitted
        assert main(["check-arbitrage", "--coeffs", str(fit), "--split", str(split)]) == 0


@pytest.fixture(scope="module")
def weighted_fit(tmp_path_factory):
    """README's simulated market fitted under weights 0.1 to 0.4, and what the two commands give in that order."""
    folder = tmp_path_factory.mktemp("weighted")
    split, quotes, fit = folder / "split.json", folder / "quotes.csv", folder / "fit.json"
    split.write_text(json.dumps(dict(SPLIT_CONFIG, weights=[0.1, 0.2, 0.3, 0.4])))
    assert main(["simulate", "--out", str(quotes), "--seed", "7", "--n-dates", "300", "--fraction", "0.2", "--magnitude", "10"]) == 0
    assert main(["fit", "--quotes", str(quotes), "--split", str(split), "--out", str(fit)]) == 0
    return folder, fit, _check_and_predict(folder, fit, range(4), range(4))


def _check_and_predict(folder, fit, check_order, cascade_order):
    """check-arbitrage's exit code and gap against the split listed in ``check_order``,
    and predict's rows by label with the cascade's split listed in ``cascade_order``."""

    def split(order):
        return dict(SPLIT_CONFIG, children=[SPLIT_CONFIG["children"][j] for j in order], weights=[0.1 * (j + 1) for j in order])

    path, cascade, out = folder / "permuted.json", folder / "cascade.json", folder / "curve.csv"
    path.write_text(json.dumps(split(check_order)))
    cascade.write_text(json.dumps({"root": "CAL-2014", "levels": [{"name": "YtQ", "splits": [dict(split(cascade_order), coefficients=None)]}]}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check-arbitrage", "--coeffs", str(fit), "--split", str(path)])
    gap = float(stdout.getvalue().split(":")[1].split()[0])
    argv = ["--coeffs", str(fit), "--cascade", str(cascade), "--parent-price", "52.5", "--target", "quarter"]
    assert main(["predict", *argv, "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line for line in out.read_text().splitlines()[1:]}
    return code, gap, rows


def test_check_arbitrage_pairs_by_the_reports_labels(weighted_fit):
    folder, fit, (code, gap, _) = weighted_fit
    reversed_code, reversed_gap, _ = _check_and_predict(folder, fit, [3, 2, 1, 0], range(4))
    assert code == reversed_code == 0
    assert abs(reversed_gap - gap) <= 1e-15


def test_check_arbitrage_refuses_a_split_of_other_children(weighted_fit, capsys):
    folder, fit, _ = weighted_fit
    split = folder / "months.json"
    split.write_text(json.dumps({"parent": "Q1-2014", "children": ["M-2014-01", "M-2014-02", "M-2014-03"]}))
    assert main(["check-arbitrage", "--coeffs", str(fit), "--split", str(split)]) == 2
    err = capsys.readouterr().err
    assert "['Q1-2014', 'Q2-2014', 'Q3-2014', 'Q4-2014']" in err
    assert "['M-2014-01', 'M-2014-02', 'M-2014-03']" in err


@settings(max_examples=12, deadline=None)
@given(check_order=st.permutations(range(4)), cascade_order=st.permutations(range(4)))
def test_permuting_a_splits_children_changes_no_verdict_or_price(weighted_fit, check_order, cascade_order):
    folder, fit, (code, gap, rows) = weighted_fit
    permuted_code, permuted_gap, permuted_rows = _check_and_predict(folder, fit, check_order, cascade_order)
    assert (permuted_code, permuted_rows) == (code, rows)
    assert abs(permuted_gap - gap) <= 1e-15


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


# README-scale ranges for the simulate price flags; at most two of them take a
# value no desk means instead.
_PRICE_FLAG_RANGES = {
    "--level": (0.0, 100.0), "--amplitude": (0.0, 10.0), "--path-noise": (0.0, 2.0),
    "--noise": (0.0, 2.0), "--magnitude": (0.0, 20.0),
}
_EXTREME_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308]


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [v for item in node for v in _numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_dates=st.integers(-2, 400),
    fraction=st.floats(-0.1, 0.6),
    prices=st.fixed_dictionaries({flag: st.floats(*bounds) for flag, bounds in _PRICE_FLAG_RANGES.items()}),
    extremes=st.dictionaries(st.sampled_from(list(_PRICE_FLAG_RANGES)), st.sampled_from(_EXTREME_VALUES), max_size=2),
)
def test_simulate_then_fit_keeps_the_exit_code_contract(tmp_path, n_dates, fraction, prices, extremes):
    quotes, split, report, table = (tmp_path / name for name in ("q.csv", "split.json", "fit.json", "out.csv"))
    for path in (quotes, report):
        path.unlink(missing_ok=True)
    split.write_text(json.dumps(SPLIT_CONFIG))

    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        return code

    flags = {"--n-dates": n_dates, "--fraction": fraction, **prices, **extremes}
    if run(["simulate", "--out", str(quotes), *(f"{k}={v!r}" for k, v in flags.items())]) != 0:
        return
    rows = [line.split(",") for line in quotes.read_text().splitlines()[1:]]
    assert all(math.isfinite(float(price)) for _, _, price in rows)
    assert len({quote_date for quote_date, _, _ in rows}) >= 3
    inputs = ["--quotes", str(quotes), "--split", str(split)]
    if run(["fit", *inputs, "--out", str(report)]) == 0:
        assert all(math.isfinite(v) for v in _numbers(_strict_json(report.read_text())))
    # The table paths: backtest filters the table by date before it pivots; the last five dates are its test range.
    last = date(2013, 1, 2) + timedelta(days=n_dates - 1)
    train, test = f"2013-01-02:{last - timedelta(days=5)}", f"{last - timedelta(days=4)}:{last}"
    for argv, text_fields in ((["backtest", "--train", train, "--test", test, "--refit"], 2), (["outliers"], 1)):
        table.unlink(missing_ok=True)
        if run([*argv, *inputs, "--out", str(table)]) == 0:
            rows = [line.split(",")[text_fields:] for line in table.read_text().splitlines()[1:]]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row)


# What a mutation puts in place of a value: another JSON type, as text.
_JSON_SWAPS = ["null", "true", "1", '"x"', '"Q1-2014"', '{"a": 1}', "[[1.0, 0.0]]", "[]", "[1.0, 0.0, 1.0]"]
_QUARTER_PAIRS = [[1.12, -1.6], [0.88, 1.4], [0.92, 0.9], [1.08, -0.7]]
_MONTHS = ["M-2014-01", "M-2014-02", "M-2014-03"]


def _paths(node, path=()):
    """The path to every value below the top of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutated(data, doc):
    """``doc`` with up to two of its values swapped for another JSON type."""
    doc = json.loads(json.dumps(doc))
    for path in data.draw(st.lists(st.sampled_from(list(_paths(doc))), max_size=2)):
        with contextlib.suppress(LookupError, TypeError):  # an earlier swap replaced a parent
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = json.loads(data.draw(st.sampled_from(_JSON_SWAPS)))
    return doc


@pytest.fixture(scope="module")
def desk_quotes(tmp_path_factory):
    folder = tmp_path_factory.mktemp("desk")
    quotes = folder / "q.csv"
    assert main(["simulate", "--out", str(quotes), "--seed", "7", "--n-dates", "60", "--fraction", "0.1"]) == 0
    return folder, quotes


@given(
    data=st.data(),
    alpha=st.one_of(
        st.sampled_from(["AUTO", "auto", "0", "5e-324", "1e-320", "2e-308", "1e308"]),
        st.floats(0.0, 1e308).map(repr),
    ),
    method=st.sampled_from(["mcrm", "classical", "ratio-average"]),
    target=st.sampled_from(["quarter", "Q1-2014", "M-2014-02"]),
    fill_from_report=st.booleans(),
)
def test_mutated_json_keeps_the_exit_code_contract(desk_quotes, data, alpha, method, target, fill_from_report):
    folder, quotes = desk_quotes
    docs = {
        "split.json": dict(SPLIT_CONFIG),
        "report.json": {
            "method": method,
            "coefficients": {f"{c}{j + 1}": v for j, pair in enumerate(_QUARTER_PAIRS) for c, v in zip("AB", pair)},
            "split": dict(SPLIT_CONFIG),
        },
        "cascade.json": {
            "root": "CAL-2014",
            "levels": [
                {"name": "YtQ", "splits": [dict(SPLIT_CONFIG, coefficients=None if fill_from_report else _QUARTER_PAIRS)]},
                {"name": "QtM", "splits": [{"parent": "Q1-2014", "children": _MONTHS, "coefficients": [[1.0, 0.0]] * 3}]},
            ],
        },
        "gamma.json": {"gamma": [v for pair in _QUARTER_PAIRS for v in pair]},
    }
    split, report, cascade, gamma = (folder / name for name in docs)
    for name, doc in docs.items():
        (folder / name).write_text(json.dumps(_mutated(data, doc)))
    out = folder / "out"

    def run(argv):
        """The exit code, with ``out`` holding what an exit 0 wrote."""
        out.unlink(missing_ok=True)
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0 and not out.exists():
            out.write_text(stdout.getvalue())
        return code

    fit = ["--quotes", str(quotes), "--split", str(split), "--alpha", alpha]
    if run(["fit", *fit, "--method", method, "--out", str(out)]) == 0:
        assert all(math.isfinite(v) for v in _numbers(_strict_json(out.read_text())))
    if run(["check-arbitrage", "--coeffs", str(report), "--split", str(split)]) == 0:
        assert math.isfinite(float(out.read_text().split(":")[1].split()[0]))
    coeffs = ["--coeffs", str(report)] if fill_from_report else []
    if run(["predict", "--cascade", str(cascade), *coeffs, "--parent-price", "50", "--target", target, "--out", str(out)]) == 0:
        assert all(math.isfinite(float(line.split(",")[-1])) for line in out.read_text().splitlines()[1:])
    ranges = ["--train", "2013-01-02:2013-02-20", "--test", "2013-02-21:2013-03-02"]
    if run(["backtest", *fit, *ranges, "--methods", method, "--out", str(out)]) == 0:
        rows = [line.split(",")[2:] for line in out.read_text().splitlines()[1:]]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)
    if run(["simulate", "--gamma", str(gamma), "--n-dates", "20", "--out", str(out)]) == 0:
        assert all(math.isfinite(float(line.split(",")[-1])) for line in out.read_text().splitlines()[1:])


def test_the_one_parser_carries_nothing_from_call_to_call(workspace, capsys):
    from curveshape import cli

    _, quotes, split = workspace
    fit = ["fit", "--quotes", str(quotes), "--split", str(split)]
    calls = [[*fit, "--weight-fn", "bisquare", "--alpha", "2.5"], fit]
    reports = []
    for argv in calls:
        assert main(argv) == 0
        reports.append(capsys.readouterr().out)
    assert main([*fit, "--no-such-flag"]) == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    src = str(Path(curveshape.__file__).resolve().parents[1])
    for argv, report in zip(calls, reports):
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from curveshape.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert (fresh.returncode, fresh.stdout) == (0, report)
    assert reports[0] != reports[1]
    assert cli.build_parser() is cli.build_parser()


# Quote families a split can name, by child count: each date quotes the parent and every child.
_FAMILIES = {
    3: ("Q1-2014", _MONTHS),
    4: ("CAL-2014", SPLIT_CONFIG["children"]),
    12: ("CAL-2014", [f"M-2014-{m:02d}" for m in range(1, 13)]),
    24: ("D-2014-01-15", [f"H-2014-01-15-{h:02d}" for h in range(24)]),
}
# What a mutation puts in place of one field of a quote row.
_FIELD_SWAPS = {
    0: ["", "2013-13-01", "03/05/2013", "0001-01-01", "2012-06-30", "2014-01-20", "9999-12-31"],
    1: ["", "Z+1", "Q+0", "D+9999999999", "CAL-2015", "M-2014-13"],
    2: ["", "abc", "nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324", "0"],
}


@given(
    data=st.data(),
    family=st.sampled_from(sorted(_FAMILIES)),
    k=st.one_of(st.none(), st.integers(1, 24)),
    n_dates=st.integers(6, 14),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40)
def test_mutated_quotes_keep_the_exit_code_contract(tmp_path_factory, data, family, k, n_dates, seed):
    # The split names the family's children, or the first k of the smallest family
    # with at least k; a k short of the family's own leaves the split too few children.
    if k is not None:
        family = min(size for size in _FAMILIES if size >= k)
    parent, children = _FAMILIES[family]
    k = k or family
    folder = tmp_path_factory.mktemp("quotes")
    quotes, split, out = folder / "q.csv", folder / "split.json", folder / "out"
    split.write_text(json.dumps({"parent": parent, "children": children[:k], "weights": [1.0 / k] * k}))
    rng = np.random.default_rng(seed)
    days = [date(2013, 7, 1) + timedelta(days=i) for i in range(n_dates)]
    rows = []
    for day in days:
        x = 50.0 + 5.0 * float(rng.standard_normal())
        shape = rng.uniform(-3.0, 3.0, len(children))
        rows.append([day.isoformat(), parent, repr(x)])
        rows += [[day.isoformat(), child, repr(x + b)] for child, b in zip(children, (shape - shape.mean()).tolist())]
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        at = data.draw(st.integers(0, len(rows) - 1))
        action = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if action == "drop":
            del rows[at]
        elif action == "duplicate":
            rows.insert(data.draw(st.integers(0, len(rows))), list(rows[at]))
        else:
            column = data.draw(st.sampled_from(sorted(_FIELD_SWAPS)))
            rows[at][column] = data.draw(st.sampled_from(_FIELD_SWAPS[column]))
    quotes.write_text("\n".join(["quote_date,contract,price", *map(",".join, rows)]) + "\n")

    def run(argv):
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--quotes", str(quotes), "--split", str(split), "--out", str(out)])
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        return code

    if run(["fit"]) == 0:
        assert all(math.isfinite(v) for v in _numbers(_strict_json(out.read_text())))
    middle = days[n_dates // 2]
    train, test = f"{days[0]}:{middle - timedelta(days=1)}", f"{middle}:{days[-1]}"
    for argv, text_fields in ((["backtest", "--train", train, "--test", test, "--refit"], 2), (["outliers"], 1)):
        if run(argv) == 0:
            table = [line.split(",")[text_fields:] for line in out.read_text().splitlines()[1:]]
            assert table and all(math.isfinite(float(v)) for row in table for v in row)
