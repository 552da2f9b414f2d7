"""The error boundary: the package raises only its own errors, and the CLI catches nothing else.

The ``ast`` checks read the source, so a builtin exception that a later
change raises, a builtin type added to ``cli.main``'s handlers, or a public
parameter read by numpy's own conversion rule, which takes numeric text,
fails here before a probe input finds it.  The rest run the integer
parameters whose floats and bools used to reach ``range`` or numpy, and
every public float-array parameter with text, ragged lists and an object.
"""

import ast
import inspect
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
    arbitrage_gap,
    cli,
    compute_metrics,
    constraints_for_weights,
    exceptions,
    irls_fit,
    penalized_wls_solve,
    qn_scale,
    recalibrate_with_traded,
    rescale_to_no_arbitrage,
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
    ],
)
@pytest.mark.parametrize("bad", [["0.25", "0.5"], [[1.0], [1.0, 2.0]], object()], ids=["text", "ragged", "object"])
def test_float_array_parameters_refuse_text_ragged_lists_and_objects(read, name, bad):
    with pytest.raises(exceptions.DataError, match=f"^{name} must be numbers in a regular array$"):
        read(bad)


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
        (lambda: mad_scale(np.ones((3, 3)), axis=3), "axis 3 is not an axis of 2-d values"),
        (lambda: mad_scale(np.ones((3, 3)), axis=1.0), "axis 1.0 is not an axis of 2-d values"),
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


def _fit(**params):
    rng = np.random.default_rng(1)
    system = constraints_for_weights(np.full(4, 0.25))
    return irls_fit(synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=40), system, FitConfig(**params))


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
        (_fit, "max_iterations", 5),
        (_recalibrate, "child_index", 1),
    ],
    ids=["n_dates", "seed", "delivery_year", "max_iterations", "child_index"],
)
@pytest.mark.parametrize("bad", [2.5, True, 1.0])
def test_integer_parameters_refuse_floats_and_bools(run, field, good, bad):
    # a Python or numpy int passes; a float, whole or not, or a bool is a DataError
    run(**{field: np.int64(good)})
    with pytest.raises(exceptions.DataError, match="must be an integer|market match child"):
        run(**{field: bad})
