"""Exception hierarchy shared across the package, and the readers of outside values that raise it."""

import numbers

import numpy as np


class CurveShapeError(Exception):
    """Base class for all package errors."""


class DataError(CurveShapeError):
    """Malformed input data, configs, or infeasible model setups."""


class NumericalError(CurveShapeError):
    """Numerical failure inside a solver (rank deficiency, singularity)."""


class DegenerateScaleWarning(UserWarning):
    """A robust scale collapsed to zero and a fallback was applied."""


def _floats(value, what: str) -> np.ndarray:
    """A new float array of ``value``, which a config or caller supplied; ``what`` names it in the error.

    Text is refused even where it spells a number; ``None`` (JSON null) becomes NaN.
    """
    message = f"{what} must be numbers in a regular array"
    try:
        array = np.asarray(value)
        if not (array.dtype.kind in "OU" and any(isinstance(v, str) for v in array.flat)):
            return np.array(array, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an object, ragged lists or an int past a float
        raise DataError(message) from exc
    raise DataError(message)


def _integral(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool or a whole float is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
