"""Exception hierarchy shared across the package, and the readers of outside values that raise it."""

import math
import numbers
from datetime import date, datetime

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

    Text is refused even where it spells a number, and so are bools, in a bool array (``[True]``, a JSON ``true``)
    or an object one (``[True, None]``); ``None`` (JSON null) becomes NaN.
    """
    message = f"{what} must be numbers in a regular array"
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if not (kind == "b" or kind in "OU" and any(isinstance(v, (str, bool, np.bool_)) for v in array.flat)):
            return np.array(array, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an object, ragged lists or an int past a float
        raise DataError(message) from exc
    raise DataError(message)


def _number(value, what: str, *, ge=None, gt=None, le=None, lt=None, integer: bool = False):
    """``value``, one real (with ``integer``, integral) number a config or caller supplied, returned as given.

    ``what`` names it in the error; the bounds are pydantic's ``ge`` >=, ``gt`` >, ``le`` <= and ``lt`` <.  Text, even
    numeric, bools, ``None``, NaN, arrays (0-d too), ints past a float and infinities, bar ``le=inf``, are refused.
    """
    if isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(value, bool):
        try:
            finite = integer or math.isfinite(value) or value == le == math.inf
        except OverflowError:  # an int past the largest float
            finite = False
        above = (ge is None or value >= ge) and (gt is None or value > gt)
        if finite and above and (le is None or value <= le) and (lt is None or value < lt):
            return value
    kind = "an integer" if integer else "a number" if le == math.inf else "a finite number"
    limits = " and".join(f" {op} {b}" for op, b in zip((">=", ">", "<=", "<"), (ge, gt, le, lt)) if b is not None)
    raise DataError(f"{what} must be {kind}{limits}, not {value!r}")


def _flag(value, what: str) -> bool:
    """``value`` if it is a bool, numpy's included; ``what`` names it in the error, since ``"no"`` is truthy."""
    if isinstance(value, (bool, np.bool_)):
        return value
    raise DataError(f"{what} must be a bool, not {value!r}")


def _date(value, what: str) -> date:
    """``value`` if it is a ``datetime.date`` but not a ``datetime``; ``what`` names it in the error."""
    if isinstance(value, date) and not isinstance(value, datetime):
        return value
    raise DataError(f"{what} must be a date, not {value!r}")
