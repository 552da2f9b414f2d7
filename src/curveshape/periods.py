"""Delivery periods, contract codes, and calendar arithmetic.

A delivery period is a half-open window ``[start, end)`` labeled by one of
the traded granularities (year, quarter, month, week, weekend, day, hour).
Relative contract codes such as ``Q+1`` resolve against a quote date into
absolute periods.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from functools import cached_property, partial

from .exceptions import DataError

GRANULARITIES = ("year", "quarter", "month", "week", "weekend", "day", "hour")

_RELATIVE_RE = re.compile(r"^(WE|[DWMQY])\+(\d+)$")
_CODE_KINDS = {"Y": "year", "Q": "quarter", "M": "month", "W": "week", "WE": "weekend", "D": "day"}

# The month family by months per period; the day family by days per period and
# start weekday (Monday is 0; None starts on any day).
_MONTHS = {"year": 12, "quarter": 3, "month": 1}
_DAYS = {"week": (7, 0), "weekend": (2, 5), "day": (1, None)}
_WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


@dataclass(frozen=True, order=True)
class Period:
    """Half-open delivery window ``[start, end)`` of a named granularity."""

    start: datetime
    end: datetime
    kind: str = field(compare=False)

    def __post_init__(self) -> None:
        if self.kind not in GRANULARITIES:
            raise DataError(f"unknown granularity: {self.kind!r}")
        if self.end <= self.start:
            raise DataError("invalid delivery window")

    @cached_property
    def label(self) -> str:
        """Absolute label, computed once per period; equality, hashing and
        ordering still compare ``start`` and ``end`` only.  Years take four
        digits, as in ISO dates, so that every label parses back."""
        s = self.start
        if self.kind == "year":
            return f"CAL-{s.year:04d}"
        if self.kind == "quarter":
            return f"Q{(s.month - 1) // 3 + 1}-{s.year:04d}"
        if self.kind == "month":
            return f"M-{s.year:04d}-{s.month:02d}"
        if self.kind == "week":
            return f"W-{s.date().isoformat()}"
        if self.kind == "weekend":
            return f"WE-{s.date().isoformat()}"
        if self.kind == "day":
            return f"D-{s.date().isoformat()}"
        return f"H-{s.date().isoformat()}-{s.hour:02d}"


def _add_months(year: int, month: int, n: int) -> tuple[int, int]:
    m = (month - 1) + n
    return year + m // 12, m % 12 + 1


def _month_family_period(kind: str, year: int, month: int) -> Period:
    ey, em = _add_months(year, month, _MONTHS[kind])
    return Period(datetime(year, month, 1), datetime(ey, em, 1), kind)


def _day_family_period(kind: str, d: date) -> Period:
    days, weekday = _DAYS[kind]
    if weekday is not None and d.weekday() != weekday:
        raise DataError(f"{kind} must start on a {_WEEKDAYS[weekday]}: {d.isoformat()}")
    s = datetime(d.year, d.month, d.day)
    return Period(s, s + timedelta(days=days), kind)


def year_period(year: int) -> Period:
    return _month_family_period("year", year, 1)


def quarter_period(year: int, quarter: int) -> Period:
    if quarter not in (1, 2, 3, 4):
        raise DataError(f"invalid quarter number: {quarter}")
    return _month_family_period("quarter", year, 3 * quarter - 2)


def month_period(year: int, month: int) -> Period:
    return _month_family_period("month", year, month)


def hour_period(d: date, hour: int) -> Period:
    if not 0 <= hour <= 23:
        raise DataError(f"invalid hour: {hour}")
    s = datetime(d.year, d.month, d.day, hour)
    return Period(s, s + timedelta(hours=1), "hour")


def parse_period_label(label: str) -> Period:
    """Parse an absolute period label (CAL-2014, Q3-2012, M-2012-07, ...)."""
    if not isinstance(label, str):
        raise DataError(f"malformed period label: {label!r}")
    try:
        if label.startswith("CAL-"):
            return year_period(int(label[4:]))
        m = re.fullmatch(r"Q([1-4])-(\d{4})", label)
        if m:
            return quarter_period(int(m.group(2)), int(m.group(1)))
        m = re.fullmatch(r"M-(\d{4})-(\d{2})", label)
        if m:
            return month_period(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"(WE|W|D)-(\d{4}-\d{2}-\d{2})", label)
        if m:
            return _day_family_period(_CODE_KINDS[m.group(1)], date.fromisoformat(m.group(2)))
        m = re.fullmatch(r"H-(\d{4}-\d{2}-\d{2})-(\d{2})", label)
        if m:
            return hour_period(date.fromisoformat(m.group(1)), int(m.group(2)))
    except (ValueError, OverflowError) as exc:  # a bad field, or a window past 9999-12-31
        raise DataError(f"malformed period label {label!r}: {exc}") from exc
    raise DataError(f"malformed period label: {label!r}")


def delivery_hours(period: Period) -> int:
    """Number of delivery hours in a period: 24 per calendar day, no DST adjustment."""
    return int(round((period.end - period.start).total_seconds() / 3600.0))


def period_children(parent: Period, child_kind: str) -> list[Period]:
    """Child periods of ``parent`` at the requested granularity.

    Supported: year->quarter, year->month, quarter->month, day->hour.
    """
    if child_kind in _MONTHS and _MONTHS[child_kind] < _MONTHS.get(parent.kind, 0):
        y, m0 = parent.start.year, parent.start.month
        return [
            _month_family_period(child_kind, *_add_months(y, m0, i))
            for i in range(0, _MONTHS[parent.kind], _MONTHS[child_kind])
        ]
    if (parent.kind, child_kind) == ("day", "hour"):
        return [hour_period(parent.start.date(), h) for h in range(24)]
    raise DataError(f"unsupported split {parent.kind!r} -> {child_kind!r}")


def parse_contract(code: str) -> Callable[[date], Period]:
    """Parse a contract code, relative (``Q+1``) or absolute (``Q3-2012``),
    into the function that resolves it against a quote date."""
    code = code.strip()
    m = _RELATIVE_RE.fullmatch(code)
    if m is None:
        period = parse_period_label(code)
        return lambda quote_date: period
    try:
        offset = int(m.group(2))
    except ValueError as exc:  # more digits than int() converts
        raise DataError(f"relative offset out of range: {code!r}") from exc
    if offset < 1:
        raise DataError(f"relative offset must be >= 1: {code!r}")
    return partial(_relative_period, m.group(1), offset)


def _relative_period(code: str, n: int, quote_date: date) -> Period:
    """The ``n``-th delivery period of ``code`` (D, WE, W, M, Q or Y) after ``quote_date``.

    A month-family period counts from the one holding the quote date; a
    day-family period counts from the first one starting after it.
    """
    kind = _CODE_KINDS[code]
    try:
        if kind in _MONTHS:
            step = _MONTHS[kind]
            first = quote_date.month - (quote_date.month - 1) % step
            return _month_family_period(kind, *_add_months(quote_date.year, first, step * n))
        weekday = _DAYS[kind][1]
        if weekday is None:
            return _day_family_period(kind, quote_date + timedelta(days=n))
        ahead = (weekday - quote_date.weekday()) % 7 or 7
        return _day_family_period(kind, quote_date + timedelta(days=ahead + 7 * (n - 1)))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"{code}+{n} from {quote_date.isoformat()} is out of range: {exc}") from exc


def resolve_relative(code: str, quote_date: date) -> Period:
    """Resolve a contract code to its absolute delivery period.

    Relative month/quarter/year codes skip the period containing the quote
    date (a quote cannot reference an already-started delivery).  Weeks
    start Monday, weekends are Saturday-Sunday.  Resolving an absolute code
    returns its period unchanged.
    """
    return parse_contract(code)(quote_date)
