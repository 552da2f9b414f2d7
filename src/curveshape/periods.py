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

_QUARTER_START_MONTH = {1: 1, 2: 4, 3: 7, 4: 10}


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
        ordering still compare ``start`` and ``end`` only."""
        s = self.start
        if self.kind == "year":
            return f"CAL-{s.year}"
        if self.kind == "quarter":
            return f"Q{(s.month - 1) // 3 + 1}-{s.year}"
        if self.kind == "month":
            return f"M-{s.year}-{s.month:02d}"
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


def year_period(year: int) -> Period:
    return Period(datetime(year, 1, 1), datetime(year + 1, 1, 1), "year")


def quarter_period(year: int, quarter: int) -> Period:
    if quarter not in _QUARTER_START_MONTH:
        raise DataError(f"invalid quarter number: {quarter}")
    m = _QUARTER_START_MONTH[quarter]
    ey, em = _add_months(year, m, 3)
    return Period(datetime(year, m, 1), datetime(ey, em, 1), "quarter")


def month_period(year: int, month: int) -> Period:
    ey, em = _add_months(year, month, 1)
    return Period(datetime(year, month, 1), datetime(ey, em, 1), "month")


def week_period(monday: date) -> Period:
    if monday.weekday() != 0:
        raise DataError(f"week must start on a Monday: {monday.isoformat()}")
    s = datetime(monday.year, monday.month, monday.day)
    return Period(s, s + timedelta(days=7), "week")


def weekend_period(saturday: date) -> Period:
    if saturday.weekday() != 5:
        raise DataError(f"weekend must start on a Saturday: {saturday.isoformat()}")
    s = datetime(saturday.year, saturday.month, saturday.day)
    return Period(s, s + timedelta(days=2), "weekend")


def day_period(d: date) -> Period:
    s = datetime(d.year, d.month, d.day)
    return Period(s, s + timedelta(days=1), "day")


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
        m = re.fullmatch(r"W-(\d{4}-\d{2}-\d{2})", label)
        if m:
            return week_period(date.fromisoformat(m.group(1)))
        m = re.fullmatch(r"WE-(\d{4}-\d{2}-\d{2})", label)
        if m:
            return weekend_period(date.fromisoformat(m.group(1)))
        m = re.fullmatch(r"D-(\d{4}-\d{2}-\d{2})", label)
        if m:
            return day_period(date.fromisoformat(m.group(1)))
        m = re.fullmatch(r"H-(\d{4}-\d{2}-\d{2})-(\d{2})", label)
        if m:
            return hour_period(date.fromisoformat(m.group(1)), int(m.group(2)))
    except ValueError as exc:
        raise DataError(f"malformed period label {label!r}: {exc}") from exc
    raise DataError(f"malformed period label: {label!r}")


def delivery_hours(period: Period) -> int:
    """Number of delivery hours in a period: 24 per calendar day, no DST adjustment."""
    return int(round((period.end - period.start).total_seconds() / 3600.0))


def period_children(parent: Period, child_kind: str) -> list[Period]:
    """Child periods of ``parent`` at the requested granularity.

    Supported: year->quarter, year->month, quarter->month, day->hour.
    """
    pair = (parent.kind, child_kind)
    if pair == ("year", "quarter"):
        return [quarter_period(parent.start.year, q) for q in range(1, 5)]
    if pair == ("year", "month"):
        return [month_period(parent.start.year, m) for m in range(1, 13)]
    if pair == ("quarter", "month"):
        y, m0 = parent.start.year, parent.start.month
        return [month_period(*_add_months(y, m0, i)) for i in range(3)]
    if pair == ("day", "hour"):
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
    offset = int(m.group(2))
    if offset < 1:
        raise DataError(f"relative offset must be >= 1: {code!r}")
    return partial(_relative_period, m.group(1), offset)


def _relative_period(kind: str, n: int, quote_date: date) -> Period:
    """The ``n``-th delivery period of ``kind`` (D, WE, W, M, Q or Y) after ``quote_date``."""
    if kind == "D":
        return day_period(quote_date + timedelta(days=n))
    if kind == "WE":
        days_to_sat = (5 - quote_date.weekday()) % 7
        first_sat = quote_date + timedelta(days=days_to_sat or 7)
        return weekend_period(first_sat + timedelta(days=7 * (n - 1)))
    if kind == "W":
        monday = quote_date - timedelta(days=quote_date.weekday())
        return week_period(monday + timedelta(days=7 * n))
    if kind == "M":
        y, m = _add_months(quote_date.year, quote_date.month, n)
        return month_period(y, m)
    if kind == "Q":
        q0 = (quote_date.month - 1) // 3
        y, m = _add_months(quote_date.year, 3 * q0 + 1, 3 * n)
        return quarter_period(y, (m - 1) // 3 + 1)
    return year_period(quote_date.year + n)


def resolve_relative(code: str, quote_date: date) -> Period:
    """Resolve a contract code to its absolute delivery period.

    Relative month/quarter/year codes skip the period containing the quote
    date (a quote cannot reference an already-started delivery).  Weeks
    start Monday, weekends are Saturday-Sunday.  Resolving an absolute code
    returns its period unchanged.
    """
    return parse_contract(code)(quote_date)
