"""Arbitrage-free shaping of electricity forward curves.

Estimates affine shaping coefficients that map low-granularity forward
prices (calendar years) onto finer delivery periods (quarters, months,
day types, hours) with the non-arbitrage equalities built into a robust,
iteratively reweighted fit.
"""

from .backtest import (
    ComparisonTable,
    SyntheticMarketConfig,
    XPathParams,
    backtest,
    compute_metrics,
    synthesize_market,
)
from .constraints import (
    ConstraintSystem,
    GranularitySplit,
    arbitrage_gap,
    build_split,
    constraints_for_weights,
    split_from_config,
)
from .estimator import (
    Dataset,
    FitConfig,
    FitResult,
    classical_fit,
    irls_fit,
    outlier_report,
    penalized_wls_solve,
    ratio_average_fit,
    rescale_to_no_arbitrage,
)
from .exceptions import CurveShapeError, DataError, DegenerateScaleWarning, NumericalError
from .market import QuoteTable, build_regression_dataset, load_quotes
from .periods import Period, parse_period_label, resolve_relative
from .robust import WeightFunctionSpec, bisquare_loss, hampel_weight, qn_scale
from .shaping import (
    MarketMatch,
    ShapingCascade,
    ShapingLevel,
    apply_level,
    cascade,
    cascade_from_config,
    cascade_to_config,
    recalibrate_with_traded,
    shape_curve,
    verify_consistency,
)

__version__ = "0.1.0"

__all__ = [
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
]
