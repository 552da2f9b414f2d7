"""The error boundary: the package raises only its own errors, and the CLI catches nothing else.

The first two checks read the source with ``ast``, so a builtin exception that
a later change raises, or a builtin type added to ``cli.main``'s handlers,
fails here before a probe input finds it.  The last runs the integer
parameters whose floats and bools used to reach ``range`` or numpy.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import curveshape
from conftest import arbitrage_free_gamma, synthetic_dataset
from curveshape import (
    FitConfig,
    MarketMatch,
    SyntheticMarketConfig,
    cli,
    constraints_for_weights,
    exceptions,
    irls_fit,
    recalibrate_with_traded,
    synthesize_market,
)

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
