"""The error boundary: the package raises only its own errors, and the CLI catches nothing else.

Both checks read the source with ``ast``, so a builtin exception that a later
change raises, or a builtin type added to ``cli.main``'s handlers, fails here
before a probe input finds it.
"""

import ast
import inspect
from pathlib import Path

import curveshape
from curveshape import cli, exceptions

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
