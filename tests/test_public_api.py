"""The package's public surface: ``curveshape.__all__`` and the names README uses."""

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import curveshape as cs
from curveshape import cli

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "ComparisonTable",
    "ConstraintSystem",
    "CurveShapeError",
    "DataError",
    "Dataset",
    "DegenerateScaleWarning",
    "FitConfig",
    "FitResult",
    "GranularitySplit",
    "MarketMatch",
    "NumericalError",
    "Period",
    "QuoteTable",
    "ShapingCascade",
    "ShapingLevel",
    "SyntheticMarketConfig",
    "WeightFunctionSpec",
    "XPathParams",
    "apply_level",
    "arbitrage_gap",
    "backtest",
    "bisquare_loss",
    "build_regression_dataset",
    "build_split",
    "cascade",
    "cascade_from_config",
    "cascade_to_config",
    "classical_fit",
    "compute_metrics",
    "constraints_for_weights",
    "hampel_weight",
    "irls_fit",
    "load_quotes",
    "outlier_report",
    "parse_period_label",
    "penalized_wls_solve",
    "qn_scale",
    "ratio_average_fit",
    "recalibrate_with_traded",
    "rescale_to_no_arbitrage",
    "resolve_relative",
    "shape_curve",
    "split_from_config",
    "synthesize_market",
    "verify_consistency",
}


# Every option of the public config and data classes.  A new field is a new
# knob, and it needs an edit here.
FIELDS = {
    "FitConfig": ("weight_spec", "alpha_multiplier", "feasibility_retry"),
    "SyntheticMarketConfig": (
        "true_gamma", "weights", "n_dates", "start", "delivery_year", "x_path", "noise_scale",
        "contamination_fraction", "outlier_magnitude", "contamination_type",
        "contamination_column", "contamination_sign", "seed",
    ),
    "XPathParams": ("level", "seasonal_amplitude", "period_days", "noise"),
    "WeightFunctionSpec": ("kind",),
    "GranularitySplit": ("parent_label", "child_labels", "weights"),
    "ShapingLevel": ("split", "coefficients", "max_gap"),
    "ShapingCascade": ("root", "level_names", "levels"),
    "MarketMatch": ("child_index", "traded_price", "parent_quote"),
}


# Every parameter of the public functions, pinned for the same reason.
PARAMETERS = {
    "apply_level": ("parent_price", "level", "override"),
    "arbitrage_gap": ("system", "gamma"),
    "backtest": (
        "table", "train_range", "test_range", "methods", "system", "config", "parent_kind", "child_kind",
        "refit_out_of_sample",
    ),
    "bisquare_loss": ("x", "k"),
    "build_regression_dataset": ("table", "parent_kind", "child_kind"),
    "build_split": ("parent", "children"),
    "cascade": ("parent_price", "casc", "target", "override"),
    "cascade_from_config": ("config", "report"),
    "cascade_to_config": ("casc",),
    "classical_fit": ("dataset", "system", "alpha"),
    "compute_metrics": ("actual", "predicted"),
    "constraints_for_weights": ("weights",),
    "hampel_weight": ("x",),
    "irls_fit": ("dataset", "system", "config", "fixed"),
    "load_quotes": ("source",),
    "outlier_report": ("result", "threshold"),
    "parse_period_label": ("label",),
    "penalized_wls_solve": ("x", "y", "case_weights", "system", "alpha", "fixed"),
    "qn_scale": ("values",),
    "ratio_average_fit": ("dataset",),
    "recalibrate_with_traded": ("dataset", "system", "config", "market_match", "prior"),
    "rescale_to_no_arbitrage": ("betas", "weights"),
    "resolve_relative": ("code", "quote_date"),
    "shape_curve": ("parent_price", "casc", "depth", "override"),
    "split_from_config": ("config",),
    "synthesize_market": ("config",),
    "verify_consistency": ("parent_price", "child_prices", "weights"),
}


# Every option of each CLI subcommand, pinned for the same reason; --help aside.
FIT_FLAGS = ("--quotes", "--split", "--out", "--alpha", "--weight-fn")
CLI_OPTIONS = {
    "fit": ("--method", *FIT_FLAGS),
    "predict": ("--coeffs", "--cascade", "--parent-price", "--target", "--override-arbitrage", "--out"),
    "backtest": ("--train", "--test", "--methods", "--refit", *FIT_FLAGS),
    "outliers": ("--threshold", *FIT_FLAGS),
    "check-arbitrage": ("--coeffs", "--split"),
    "simulate": (
        "--out", "--labels-out", "--gamma", "--seed", "--n-dates", "--start-date", "--year", "--level",
        "--amplitude", "--path-noise", "--noise", "--fraction", "--magnitude", "--contamination-type",
    ),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_public_dataclass_fields_are_pinned(name):
    assert tuple(f.name for f in dataclasses.fields(getattr(cs, name))) == FIELDS[name]


def test_public_function_parameters_are_pinned():
    functions = {name: getattr(cs, name) for name in cs.__all__ if inspect.isfunction(getattr(cs, name))}
    assert {name: tuple(inspect.signature(fn).parameters) for name, fn in functions.items()} == PARAMETERS


def test_cli_options_are_pinned():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: tuple(s for action in parser._actions if action.dest != "help" for s in action.option_strings)
        for name, parser in commands.choices.items()
    }
    assert options == CLI_OPTIONS


def test_all_is_the_public_surface():
    assert len(cs.__all__) == len(set(cs.__all__))
    assert set(cs.__all__) == PUBLIC
    assert [name for name in cs.__all__ if not hasattr(cs, name)] == []


def test_readme_python_names_are_public():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    names = set(re.findall(r"\bcs\.(\w+)", "".join(blocks)))
    assert names
    assert sorted(names - set(cs.__all__)) == []
