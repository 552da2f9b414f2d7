"""Quote ingestion and regression-dataset assembly.

Input CSV format: a header ``quote_date,contract,price`` followed by one
quote per line.  Dates are ISO-8601; contracts are relative codes (D+1,
WE+2, W+1, M+3, Q+5, Y+2) or absolute labels (CAL-2014, Q3-2012,
M-2012-07, D-2012-05-04, ...).  Relative codes are resolved against each
row's quote date and stored absolutely.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import date
from itertools import compress
from pathlib import Path

import numpy as np

from .estimator import Dataset
from .exceptions import DataError, _floats
from .periods import Period, parse_contract, parse_period_label, period_children

CSV_HEADER = "quote_date,contract,price"
_EPOCH = date(1970, 1, 1).toordinal()  # day 0 of numpy's datetime64


class QuoteTable:
    """Each quote once, held as three read-only columns that line up row for row.

    ``days`` holds quote-date ordinals (``date.toordinal()``) and ``codes``
    indexes ``labels``, both as int32; ``prices`` holds float64 prices.
    That is 16 bytes per quote.  Any label ``parse_period_label`` accepts
    may be passed: the table stores each as its period's canonical label,
    ``labels`` holds the quoted ones sorted and each once, and a second
    quote for the same quote date and period is a ``DataError``.
    """

    def __init__(self, days, codes, prices, labels) -> None:
        days = np.array(days, dtype=np.int64)
        codes = np.array(codes, dtype=np.intp)
        prices = _floats(prices, "prices")
        if not (days.ndim == codes.ndim == prices.ndim == 1 and days.size == codes.size == prices.size):
            raise DataError("quote columns must be 1-D and of one length")
        if days.size and not (1 <= days.min() and days.max() <= date.max.toordinal()):
            raise DataError("quote date ordinal out of range")
        parsed = [parse_period_label(label) for label in labels]
        if codes.size and not (0 <= codes.min() and codes.max() < len(parsed)):
            raise DataError("label code out of range")
        periods = {period.label: period for period in parsed}
        canonical = sorted(periods)
        position = {label: i for i, label in enumerate(canonical)}
        codes = np.array([position[period.label] for period in parsed], dtype=np.intp)[codes]  # canonical codes
        quoted = np.bincount(codes, minlength=len(canonical)) > 0
        codes = (np.cumsum(quoted) - 1)[codes]  # leave out the labels no row quotes
        self.labels: tuple[str, ...] = tuple(compress(canonical, quoted))
        self._periods: tuple[Period, ...] = tuple(periods[label] for label in self.labels)
        self.days, self.codes, self.prices = days.astype(np.int32), codes.astype(np.int32), prices
        for column in (self.days, self.codes, self.prices):
            column.flags.writeable = False
        keys = np.sort(self._keys())
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if repeated.size:  # the first by quote date, then label
            day, code = divmod(int(repeated[0]), len(self.labels))
            raise DataError(f"duplicate quote for {self.labels[code]} on {date.fromordinal(day).isoformat()}")

    def _keys(self) -> np.ndarray:
        """One int64 per quote, in (quote date, label) order."""
        return self.days.astype(np.int64) * len(self.labels) + self.codes

    def __len__(self) -> int:
        return self.prices.size

    def dates(self) -> list[date]:
        return [date.fromordinal(day) for day in np.unique(self.days).tolist()]

    def filter_dates(self, start: date, end: date) -> "QuoteTable":
        """Quotes with start <= quote_date <= end."""
        keep = (self.days >= start.toordinal()) & (self.days <= end.toordinal())
        return QuoteTable(self.days[keep], self.codes[keep], self.prices[keep], self.labels)

    def merged_with(self, other: "QuoteTable") -> "QuoteTable":
        return QuoteTable(
            np.concatenate([self.days, other.days]),
            np.concatenate([self.codes, other.codes + len(self.labels)]),
            np.concatenate([self.prices, other.prices]),
            self.labels + other.labels,
        )

    def to_csv(self) -> str:
        """One line per quote, by quote date, then delivery start, then label."""
        by_start = sorted(range(len(self.labels)), key=lambda c: (self._periods[c].start, self.labels[c]))
        order = np.lexsort((np.argsort(by_start)[self.codes], self.days))  # argsort inverts the permutation
        rows = zip(_isoformat(self.days[order]), self.codes[order].tolist(), self.prices[order].tolist())
        lines = [CSV_HEADER] + [f"{day},{self.labels[code]},{price!r}" for day, code, price in rows]
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def _isoformat(days: np.ndarray) -> list[str]:
    """ISO text of each quote-date ordinal; numpy writes what ``date.isoformat`` does for 0001-9999."""
    return np.datetime_as_string((days - _EPOCH).astype("datetime64[D]")).tolist()


def load_quotes(source) -> QuoteTable:
    """Parse a quote CSV from a path, given as a ``str`` or ``Path``, or from an open text stream.

    Each distinct date text and contract text is parsed once per call;
    relative codes are still resolved against each row's own quote date.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:  # missing, a directory, unreadable or not text
            raise DataError(f"cannot read quotes file: {path}") from exc
    elif hasattr(source, "read"):
        text = source.read()
    else:
        raise DataError(f"quotes source must be a path or an open text stream, not {type(source).__name__}")
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}")
    labels: dict[str, int] = {}  # the code of each label, in order of first quote
    quoted: dict[int, float] = {}  # price by label code << 22 | date ordinal; an ordinal is below 2**22
    dates: dict[str, tuple[date, int]] = {}
    resolvers: dict[str, Callable[[date], Period]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            if not line.strip():  # a blank line holds no comma
                continue
            raise DataError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        raw_date, raw_contract, raw_price = parts
        parsed = dates.get(raw_date)
        if parsed is None:
            try:
                quote_date = date.fromisoformat(raw_date.strip())
            except ValueError as exc:
                raise DataError(f"line {lineno}: bad quote date {raw_date.strip()!r}") from exc
            parsed = dates[raw_date] = quote_date, quote_date.toordinal()
        quote_date, day = parsed
        try:
            price = float(raw_price.strip())  # strip() also drops the "\x1c"-"\x1f" that float() rejects
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad price {raw_price.strip()!r}") from exc
        if not math.isfinite(price):
            raise DataError(f"line {lineno}: non-finite price")
        try:
            resolve = resolvers.get(raw_contract)
            if resolve is None:
                resolve = resolvers[raw_contract] = parse_contract(raw_contract)
            period = resolve(quote_date)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        if period.start.date() < quote_date:
            raise DataError(
                f"line {lineno}: delivery window of {period.label} starts before quote date"
            )
        code = labels.get(period.label)
        if code is None:
            code = labels[period.label] = len(labels)
        key = code << 22 | day
        if key in quoted:
            raise DataError(f"line {lineno}: duplicate quote for {period.label} on {quote_date}")
        quoted[key] = price
    codes, days = np.divmod(np.fromiter(quoted, np.int64, len(quoted)), 1 << 22)
    return QuoteTable(days, codes, np.fromiter(quoted.values(), np.float64, len(quoted)), tuple(labels))


@dataclass
class CompletenessReport:
    """How many candidate rows survived the all-children-quoted requirement."""

    n_rows: int
    n_dropped: int
    missing: list[tuple[str, str, list[str]]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "rows": self.n_rows,
            "dropped": self.n_dropped,
            "missing": [
                {"quote_date": d, "parent": p, "missing_children": m}
                for d, p, m in self.missing
            ],
        }


def build_regression_dataset(
    table: QuoteTable,
    parent_kind: str = "year",
    child_kind: str = "quarter",
) -> tuple[Dataset, CompletenessReport]:
    """Assemble (x, y) rows from joint parent/child quotes.

    One row per (quote date, parent period) where the parent and all K
    children are quoted on that date; anything with a missing child is
    dropped and counted in the completeness report.  Children are found
    by binary search in the table's sorted (quote date, label) keys, so
    no dates x labels grid is built.
    """
    labels, periods = table.labels, table._periods
    # Parents by delivery start; within one kind a start fixes the window.
    parents = sorted((c for c, p in enumerate(periods) if p.kind == parent_kind), key=lambda c: periods[c].start)
    children = [[child.label for child in period_children(periods[c], child_kind)] for c in parents]
    code = {label: c for c, label in enumerate(labels)}
    # Each parent's child codes, -1 for a child quoted on no date; (1, 0) when no label is a parent.
    child_codes = np.array([[code.get(label, -1) for label in row] for row in children], dtype=np.int64, ndmin=2)
    parent_of = np.full(len(labels), -1, dtype=np.intp)
    parent_of[parents] = np.arange(len(parents))
    rows = np.flatnonzero(parent_of[table.codes] >= 0)
    rows = rows[np.lexsort((parent_of[table.codes[rows]], table.days[rows]))]  # by quote date, then start
    wanted = child_codes[parent_of[table.codes[rows]]]
    keys = table._keys()
    order = np.argsort(keys)
    keys = keys[order]
    wanted_keys = table.days[rows, None].astype(np.int64) * len(labels) + wanted
    at = np.minimum(np.searchsorted(keys, wanted_keys), keys.size - 1)
    quoted = (wanted >= 0) & (keys[at] == wanted_keys)
    complete = quoted.all(axis=1)
    dropped = rows[~complete]
    missing = [
        (day, labels[c], [label for label, hit in zip(children[parent_of[c]], hits) if not hit])
        for day, c, hits in zip(
            _isoformat(table.days[dropped]), table.codes[dropped].tolist(), quoted[~complete].tolist()
        )
    ]
    kept = rows[complete]
    if not kept.size:
        raise DataError("no joint observations")
    ids = [f"{day}|{labels[c]}" for day, c in zip(_isoformat(table.days[kept]), table.codes[kept].tolist())]
    dataset = Dataset(x=table.prices[kept], y=table.prices[order[at[complete]]], case_ids=ids)
    return dataset, CompletenessReport(n_rows=kept.size, n_dropped=len(missing), missing=missing)
