"""The error boundary: the package raises only its own errors, and the CLI catches nothing else.

The ``ast`` checks read the source, so a builtin exception that a later
change raises, a builtin type added to ``cli.main``'s handlers, or a public
parameter read by numpy's own conversion rule, which takes numeric text,
fails here before a probe input finds it, as does a module other than
``exceptions`` that decides for itself what counts as a number.  The rest
run the integer parameters whose floats and bools used to reach ``range``
or numpy, every public float-array parameter with text, ragged lists and an
object, every public number parameter with text, a bool, ``None``, NaN,
a 0-d array and a value past its bounds, and every public bool parameter
with text, numbers and ``None``.
"""

import ast
import inspect
import math
import re
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest

import curveshape
from conftest import arbitrage_free_gamma, synthetic_dataset
from curveshape import (
    Dataset,
    FitConfig,
    FitResult,
    MarketMatch,
    QuoteTable,
    SyntheticMarketConfig,
    XPathParams,
    apply_level,
    arbitrage_gap,
    backtest,
    cascade,
    cascade_from_config,
    cli,
    compute_metrics,
    constraints_for_weights,
    exceptions,
    irls_fit,
    outlier_report,
    penalized_wls_solve,
    qn_scale,
    recalibrate_with_traded,
    rescale_to_no_arbitrage,
    shape_curve,
    synthesize_market,
    verify_consistency,
)
from curveshape.robust import bisquare_loss, bisquare_weight, hampel_weight, mad_scale

PACKAGE_ERRORS = {
    name for name, obj in vars(exceptions).items()
    if isinstance(obj, type) and issubclass(obj, exceptions.CurveShapeError)
}


def test_every_raise_names_a_package_error_or_re_raises():
    leaks = []
    for path in sorted(Path(curveshape.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(raised, ast.Name) and raised.id in PACKAGE_ERRORS):
                leaks.append(f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}")
    assert PACKAGE_ERRORS == {"CurveShapeError", "DataError", "NumericalError"}
    assert leaks == []


def test_cli_main_maps_only_package_errors_to_exit_codes():
    (main,) = ast.parse(inspect.getsource(cli.main)).body
    handlers = {}
    for node in ast.walk(main):
        if isinstance(node, ast.Try):
            runs_command = "args.func(args)" in ast.unparse(node.body)
            handlers[runs_command] = [ast.unparse(handler.type) for handler in node.handlers]
    # argparse exits through SystemExit; the command's own errors are the package's.
    assert handlers == {False: ["SystemExit"], True: ["NumericalError", "CurveShapeError"]}


def _converts_a_parameter(call: ast.Call, params: set[str]) -> bool:
    """Whether ``call`` is ``np.asarray(p, ...)`` or ``np.array(p, dtype=float)`` of a parameter, or a field of one."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and ast.unparse(func.value) == "np" and call.args):
        return False
    root = call.args[0]
    while isinstance(root, (ast.Attribute, ast.Subscript)):  # self.x, config.noise_scale
        root = root.value
    if not (isinstance(root, ast.Name) and root.id in params):
        return False
    dtype = next((k.value for k in call.keywords if k.arg == "dtype"), call.args[1] if call.args[1:] else None)
    floats = dtype is not None and ast.unparse(dtype) in ("float", "np.float64")
    return func.attr == "asarray" or (func.attr == "array" and floats)


def test_public_float_arrays_are_read_by_floats_alone():
    # _floats refuses numeric text, ragged lists and objects with a DataError; numpy takes the text.
    leaks = []
    for path in sorted(Path(curveshape.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_") and node.name not in ("__init__", "__post_init__"):
                continue
            params = {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _converts_a_parameter(call, params):
                    leaks.append(f"{path.name}:{call.lineno}: {node.name}: {ast.unparse(call)}")
    assert leaks == []


_W = np.full(2, 0.5)
_SYSTEM = constraints_for_weights(_W)
_X, _Y = np.arange(3.0), np.ones((3, 2))
_FIT = FitResult(
    gamma=np.array([1.0, 0.0, 1.0, 0.0]), case_weights=np.ones(3), iterations=1, arbitrage_gap_maxabs=0.0,
    residual_scales=np.ones(2), alpha_used=1.0, case_ids=["a", "b", "c"],
)


@pytest.mark.parametrize(
    "read, name",
    [
        pytest.param(lambda v: Dataset(x=v, y=_Y), "x", id="Dataset-x"),
        pytest.param(lambda v: Dataset(x=_X, y=v), "y", id="Dataset-y"),
        pytest.param(_FIT.predict, "x", id="FitResult.predict-x"),
        pytest.param(lambda v: penalized_wls_solve(v, _Y, np.ones(3), _SYSTEM, 1.0), "x", id="penalized_wls_solve-x"),
        pytest.param(lambda v: penalized_wls_solve(_X, v, np.ones(3), _SYSTEM, 1.0), "y", id="penalized_wls_solve-y"),
        pytest.param(lambda v: penalized_wls_solve(_X, _Y, v, _SYSTEM, 1.0), "case_weights", id="penalized_wls_solve-w"),
        pytest.param(lambda v: rescale_to_no_arbitrage(v, _W), "betas", id="rescale_to_no_arbitrage-betas"),
        pytest.param(lambda v: rescale_to_no_arbitrage(_W, v), "weights", id="rescale_to_no_arbitrage-weights"),
        pytest.param(mad_scale, "values", id="mad_scale"),
        pytest.param(qn_scale, "values", id="qn_scale"),
        pytest.param(hampel_weight, "x", id="hampel_weight"),
        pytest.param(bisquare_loss, "x", id="bisquare_loss"),
        pytest.param(bisquare_weight, "x", id="bisquare_weight"),
        pytest.param(lambda v: arbitrage_gap(_SYSTEM, v), "gamma", id="arbitrage_gap"),
        pytest.param(lambda v: compute_metrics(v, _Y), "actual", id="compute_metrics-actual"),
        pytest.param(lambda v: compute_metrics(_Y, v), "predicted", id="compute_metrics-predicted"),
        pytest.param(
            lambda v: SyntheticMarketConfig(true_gamma=[1.0, 0.0, 1.0, 0.0], weights=_W, noise_scale=v),
            "noise_scale",
            id="SyntheticMarketConfig-noise_scale",
        ),
        pytest.param(lambda v: verify_consistency(1.0, v, _W), "child_prices", id="verify_consistency-prices"),
        pytest.param(lambda v: verify_consistency(1.0, _W, v), "weights", id="verify_consistency-weights"),
        pytest.param(lambda v: QuoteTable([1], [0], v, ["CAL-2014"]), "prices", id="QuoteTable-prices"),
        pytest.param(lambda v: QuoteTable(v, [0], [50.0], ["CAL-2014"]), "days", id="QuoteTable-days"),
        pytest.param(lambda v: QuoteTable([735000], v, [50.0], ["CAL-2014"]), "codes", id="QuoteTable-codes"),
    ],
)
@pytest.mark.parametrize(
    "bad", [["0.25", "0.5"], [[1.0], [1.0, 2.0]], object(), [True, False]], ids=["text", "ragged", "object", "bools"]
)
def test_float_array_parameters_refuse_text_ragged_lists_and_objects(read, name, bad):
    with pytest.raises(exceptions.DataError, match=f"^{name} must be numbers in a regular array$"):
        read(bad)


def test_bools_are_refused_unless_mixed_with_numbers():
    # numpy reads True as 1.0, so a bool noise_scale was a noise of 1.0
    for bad in (True, np.array([False])):
        with pytest.raises(exceptions.DataError, match="^noise_scale must be numbers in a regular array$"):
            _market(noise_scale=bad)
    # numpy reads a bool among None (JSON null) as an object, which float() took as 1.0
    with pytest.raises(exceptions.DataError, match="^x must be numbers in a regular array$"):
        exceptions._floats([True, None], "x")
    # a list with a float in it is a float array before _floats sees it
    assert exceptions._floats([0.5, True], "weights").tolist() == [0.5, 1.0]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: penalized_wls_solve(np.arange(3.0), np.ones((4, 2)), np.ones(4), _SYSTEM, 1.0),
            r"x \(3,\), y \(4, 2\) and case_weights \(4,\) must be \(N,\), \(N, K\) and \(N,\)",
        ),
        (
            lambda: penalized_wls_solve(np.arange(4.0), np.ones((4, 2)), np.ones(3), _SYSTEM, 1.0),
            r"x \(4,\), y \(4, 2\) and case_weights \(3,\) must be",
        ),
        (lambda: rescale_to_no_arbitrage([1.0, 1.0, 1.0], [0.5, 0.5]), r"betas \(3,\) and weights \(2,\) must be one per"),
        (lambda: mad_scale(np.ones((3, 3)), axis=3), "^axis must be an integer >= -2 and < 2, not 3$"),
        (lambda: mad_scale(np.ones((3, 3)), axis=1.0), "^axis must be an integer >= -2 and < 2, not 1.0$"),
        (lambda: mad_scale(np.ones((0, 3)), axis=1), "degenerate sample"),
        (
            lambda: SyntheticMarketConfig(true_gamma=[1.0, 0.0, 1.0, 0.0], weights=_W, noise_scale=[1.0, 2.0, 3.0]),
            r"noise_scale must be one number or one per weight, not of shape \(3,\)",
        ),
    ],
    ids=["solve-x", "solve-case_weights", "rescale", "mad_scale-axis", "mad_scale-float-axis", "mad_scale-empty", "noise"],
)
def test_mismatched_shapes_are_data_errors(call, message):
    with pytest.raises(exceptions.DataError, match=message):
        call()


def _synthesize(**params):
    weights = np.full(4, 0.25)
    gamma = arbitrage_free_gamma(np.random.default_rng(0), 4, weights)
    return synthesize_market(SyntheticMarketConfig(true_gamma=gamma, weights=weights, **params))


def _recalibrate(child_index):
    rng = np.random.default_rng(2)
    system = constraints_for_weights(np.full(4, 0.25))
    dataset = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=40)
    match = MarketMatch(child_index=child_index, traded_price=50.0, parent_quote=49.0)
    return recalibrate_with_traded(dataset, system, market_match=match, prior=irls_fit(dataset, system))


@pytest.mark.parametrize(
    "run, field, good",
    [
        (_synthesize, "n_dates", 5),
        (_synthesize, "seed", 1),
        (_synthesize, "delivery_year", 2014),
        (_recalibrate, "child_index", 1),
    ],
    ids=["n_dates", "seed", "delivery_year", "child_index"],
)
@pytest.mark.parametrize("bad", [2.5, True, 1.0])
def test_integer_parameters_refuse_floats_and_bools(run, field, good, bad):
    # a Python or numpy int passes; a float, whole or not, or a bool is a DataError
    run(**{field: np.int64(good)})
    with pytest.raises(exceptions.DataError, match="must be an integer|market match child"):
        run(**{field: bad})


def test_only_exceptions_decides_what_counts_as_a_number():
    # _number in exceptions.py owns the rule; a numbers.Real test elsewhere would be a second one.
    leaks = []
    for path in sorted(Path(curveshape.__file__).parent.glob("*.py")):
        if path.name == "exceptions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            imported = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                imported = ["numbers"]
            tested = isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2
            if "numbers" in imported or (tested and "numbers." in ast.unparse(node.args[1])):
                leaks.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert leaks == []


_CASCADE = cascade_from_config(
    {"root": "P", "levels": [{"splits": [{"parent": "P", "children": ["a", "b"], "weights": [0.5, 0.5],
                                          "coefficients": [[1.0, 0.0], [1.0, 0.0]]}]}]}
)


def _market(**params):
    return SyntheticMarketConfig(true_gamma=[1.0, 0.0, 1.0, 0.0], weights=_W, **params)


def _solve_pinned(a=1.0, b=0.0):
    return penalized_wls_solve(_X, _Y, np.ones(3), _SYSTEM, 1.0, {0: (a, b)})


# Each public number parameter: how to pass it, the name its error gives, whether None has a
# meaning there, and values past its bounds.
_NUMBERS = {
    "FitConfig-alpha_multiplier": (lambda v: FitConfig(alpha_multiplier=v), "alpha_multiplier", False, [-1.0]),
    "penalized_wls_solve-alpha": (
        lambda v: penalized_wls_solve(_X, _Y, np.ones(3), _SYSTEM, v), "alpha", False, [-1.0, -math.inf],
    ),
    "penalized_wls_solve-fixed-A": (lambda v: _solve_pinned(a=v), "pinned child 0's A", False, [math.inf]),
    "penalized_wls_solve-fixed-B": (lambda v: _solve_pinned(b=v), "pinned child 0's B", False, [-math.inf]),
    "outlier_report-threshold": (lambda v: outlier_report(_FIT, v), "threshold", False, [math.inf]),
    "mad_scale-axis": (lambda v: mad_scale(np.ones((3, 3)), axis=v), "axis", True, [2, -3]),
    "bisquare_loss-k": (lambda v: bisquare_loss(1.0, v), "k", False, [0.0, math.inf]),
    "MarketMatch-traded_price": (lambda v: MarketMatch(0, v, 50.0), "traded_price", False, [math.inf]),
    "MarketMatch-parent_quote": (lambda v: MarketMatch(0, 50.0, v), "parent_quote", False, [-math.inf]),
    "recalibrate_with_traded-child_index": (
        lambda v: _recalibrate(v), "market match child_index", False, [4, -1],
    ),
    "shape_curve-depth": (lambda v: shape_curve(50.0, _CASCADE, v), "depth", True, [2, -1]),
    "shape_curve-parent_price": (lambda v: shape_curve(v, _CASCADE), "parent_price", False, [math.inf]),
    "cascade-parent_price": (lambda v: cascade(v, _CASCADE, "a"), "parent_price", False, [math.inf]),
    "verify_consistency-parent_price": (lambda v: verify_consistency(v, _W, _W), "parent_price", False, [math.inf]),
    **{
        f"SyntheticMarketConfig-x_path.{name}": (
            lambda v, name=name: _market(x_path=XPathParams(**{name: v})), f"x_path.{name}", False, [math.inf],
        )
        for name in ("level", "seasonal_amplitude", "period_days", "noise")
    },
    "SyntheticMarketConfig-outlier_magnitude": (
        lambda v: _market(outlier_magnitude=v), "outlier_magnitude", False, [math.inf],
    ),
    "SyntheticMarketConfig-seed": (lambda v: _market(seed=v), "seed", False, [-1]),
    "SyntheticMarketConfig-delivery_year": (lambda v: _market(delivery_year=v), "delivery_year", False, [0, 9999]),
    "SyntheticMarketConfig-n_dates": (
        lambda v: _market(n_dates=v), "n_dates", False, [-1, (date.max - date(2013, 1, 2)).days + 2],
    ),
    "SyntheticMarketConfig-contamination_fraction": (
        lambda v: _market(contamination_fraction=v), "contamination_fraction", False, [-0.1, 0.5],
    ),
    "SyntheticMarketConfig-contamination_column": (
        lambda v: _market(contamination_column=v), "contamination_column", True, [2, -1],
    ),
    "QuoteTable-days": (lambda v: QuoteTable(v, [0], [50.0], ["CAL-2014"]), "days", False, [[0], [735000.7]]),
    "QuoteTable-codes": (lambda v: QuoteTable([735000], v, [50.0], ["CAL-2014"]), "codes", False, [[1], [0.5]]),
}
_BAD = {"text": "1", "bool": True, "None": None, "nan": math.nan, "0-d-array": np.array(1.0)}


@pytest.mark.parametrize(
    "read, name, bad",
    [
        pytest.param(read, name, bad, id=f"{key}-{label}")
        for key, (read, name, none_means, past) in _NUMBERS.items()
        for label, bad in [*((k, v) for k, v in _BAD.items() if not (k == "None" and none_means)),
                           *((f"past-{v!r}", v) for v in past)]
    ],
)
def test_number_parameters_refuse_text_bools_none_nan_arrays_and_values_past_their_bounds(read, name, bad):
    with pytest.raises(exceptions.DataError) as caught:
        read(bad)
    named, _, rest = str(caught.value).partition(" must be ")
    assert re.search(rf"(^|, ){re.escape(name)}( from 2013-01-02|,| and |$)", named), named
    if name not in ("days", "codes"):  # a column's message names the column, not each value
        assert rest.endswith(f", not {bad!r}")


def test_number_parameters_take_their_edge_values():
    # the edges of each range, numpy's scalars and an infinite alpha pass
    FitConfig(alpha_multiplier=np.float64(1e-300))
    FitConfig(alpha_multiplier=math.inf)
    assert np.isfinite(penalized_wls_solve(_X, _Y, np.ones(3), _SYSTEM, math.inf)).all()
    assert mad_scale(np.ones((3, 3)), axis=np.int64(-2)).shape == (3,)
    _market(contamination_fraction=0.4999, contamination_column=np.int64(1), delivery_year=9998, seed=0, n_dates=0)
    assert [label for label, _, _ in shape_curve(np.float32(50.0), _CASCADE, np.int64(0))] == ["P"]


@pytest.mark.parametrize("key", ["1", True, 0.0, None])
def test_pinned_child_index_is_an_integer(key):
    with pytest.raises(exceptions.DataError, match=f"^pinned child must be an integer >= 0 and < 2, not {key!r}$"):
        penalized_wls_solve(_X, _Y, np.ones(3), _SYSTEM, 1.0, {key: (1.0, 0.0)})


@pytest.mark.parametrize("pair", [1.0, (1.0,), (1.0, 0.0, 0.0), None])
def test_a_pin_is_one_a_b_pair(pair):
    # numpy once spread 1.0 or (1.0,) over both A and B
    with pytest.raises(exceptions.DataError, match=re.escape(f"pinned child 0 needs an (A, B) pair, not {pair!r}")):
        penalized_wls_solve(_X, _Y, np.ones(3), _SYSTEM, 1.0, {0: pair})


@pytest.mark.parametrize("bad", ["2013-01-02", datetime(2013, 1, 2), 735000, None])
def test_date_bounds_are_dates(bad):
    table = QuoteTable([735000], [0], [50.0], ["CAL-2014"])
    good = (date(2013, 1, 2), date(2013, 6, 30))
    with pytest.raises(exceptions.DataError, match=re.escape(f"start must be a date, not {bad!r}")):
        table.filter_dates(bad, good[1])
    with pytest.raises(exceptions.DataError, match="^end must be a date, not "):
        table.filter_dates(good[0], bad)
    for train, test, name in [((bad, good[1]), good, "train_range start"), (good, (good[0], bad), "test_range end")]:
        with pytest.raises(exceptions.DataError, match=f"^{name} must be a date, not "):
            backtest(table, train, test, ["mcrm"], _SYSTEM)
    with pytest.raises(exceptions.DataError, match="^start must be a date, not "):
        _market(start=bad)


@pytest.mark.parametrize(
    "bad",
    [(date(2013, 1, 2),), (date(2013, 1, 2), date(2013, 3, 1), date(2013, 6, 30)), "2013-01-02:2013-06-30", None],
    ids=["one-date", "three-dates", "text", "None"],
)
def test_backtest_ranges_are_start_end_pairs(bad):
    table = QuoteTable([735000], [0], [50.0], ["CAL-2014"])
    good = (date(2013, 1, 2), date(2013, 6, 30))
    for train, test, name in [(bad, good, "train_range"), (good, bad, "test_range")]:
        with pytest.raises(exceptions.DataError, match=re.escape(f"{name} must be a (start, end) pair of dates, not ")):
            backtest(table, train, test, ["mcrm"], _SYSTEM)


@pytest.mark.parametrize("bad", [None, {"level": 50.0}], ids=["None", "dict"])
def test_x_path_is_an_xpathparams(bad):
    with pytest.raises(exceptions.DataError, match=re.escape(f"x_path must be an XPathParams, not {bad!r}")):
        _market(x_path=bad)


@pytest.mark.parametrize("bad", ["bisquare", None], ids=["text", "None"])
def test_weight_spec_is_a_weightfunctionspec(bad):
    # a kind's name built a config whose first weighting raised AttributeError
    with pytest.raises(exceptions.DataError, match=re.escape(f"weight_spec must be a WeightFunctionSpec, not {bad!r}")):
        FitConfig(weight_spec=bad)


_VIOLATING = cascade_from_config(
    {"root": "P", "levels": [{"splits": [{"parent": "P", "children": ["a", "b"], "weights": [0.5, 0.5],
                                          "coefficients": [[1.1, 0.0], [1.0, 0.0]]}]}]}
)


@pytest.mark.parametrize(
    "read, name",
    [
        pytest.param(lambda v: shape_curve(50.0, _VIOLATING, override=v), "override", id="shape_curve-override"),
        pytest.param(lambda v: cascade(50.0, _VIOLATING, "a", override=v), "override", id="cascade-override"),
        pytest.param(
            lambda v: apply_level(50.0, _VIOLATING.levels[0]["P"], override=v), "override", id="apply_level-override",
        ),
        pytest.param(
            lambda v: backtest(QuoteTable([735000], [0], [50.0], ["CAL-2014"]), (date(2013, 1, 2),) * 2,
                               (date(2013, 1, 3),) * 2, ["mcrm"], _SYSTEM, refit_out_of_sample=v),
            "refit_out_of_sample",
            id="backtest-refit_out_of_sample",
        ),
    ],
)
@pytest.mark.parametrize("bad", ["no", 0, 1.0, None])
def test_flag_parameters_refuse_anything_but_a_bool(read, name, bad):
    # "no" is truthy: the violating level was applied, and the backtest refitted
    with pytest.raises(exceptions.DataError, match=f"^{name} must be a bool, not {re.escape(repr(bad))}$"):
        read(bad)
    if name == "override":  # numpy's bool applies the violating level
        read(np.bool_(True))
