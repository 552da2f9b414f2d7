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
from pathlib import Path

import numpy as np

from .estimator import Dataset
from .exceptions import DataError
from .periods import Period, parse_contract, parse_period_label, period_children

CSV_HEADER = "quote_date,contract,price"


@dataclass
class QuoteTable:
    """Each quote once: its price keyed by (quote date, absolute period label)."""

    prices: dict[tuple[date, str], float] = field(default_factory=dict)

    def _periods(self) -> dict[str, Period]:
        """Delivery period of each distinct label, parsed once."""
        return {label: parse_period_label(label) for label in {label for _, label in self.prices}}

    def __len__(self) -> int:
        return len(self.prices)

    def dates(self) -> list[date]:
        return sorted({quote_date for quote_date, _ in self.prices})

    def filter_dates(self, start: date, end: date) -> "QuoteTable":
        """Quotes with start <= quote_date <= end."""
        return QuoteTable({key: p for key, p in self.prices.items() if start <= key[0] <= end})

    def merged_with(self, other: "QuoteTable") -> "QuoteTable":
        overlap = min(self.prices.keys() & other.prices.keys(), default=None)
        if overlap:
            raise DataError(f"duplicate quote for {overlap[1]} on {overlap[0].isoformat()}")
        return QuoteTable({**self.prices, **other.prices})

    def to_csv(self) -> str:
        periods = self._periods()
        keys = sorted(self.prices, key=lambda key: (key[0], periods[key[1]].start, key[1]))
        lines = [CSV_HEADER] + [f"{d.isoformat()},{label},{self.prices[d, label]!r}" for d, label in keys]
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def load_quotes(source) -> QuoteTable:
    """Parse a quote CSV from a path, string, or open text stream.

    Each distinct date text and contract text is parsed once per call;
    relative codes are still resolved against each row's own quote date.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        path = Path(source)
        try:
            text = path.read_text()
        except (OSError, ValueError) as exc:  # missing, a directory, unreadable or not text
            raise DataError(f"cannot read quotes file: {path}") from exc
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}")
    prices: dict[tuple[date, str], float] = {}
    dates: dict[str, date] = {}
    resolvers: dict[str, Callable[[date], Period]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            if not line.strip():  # a blank line holds no comma
                continue
            raise DataError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        raw_date, raw_contract, raw_price = parts
        quote_date = dates.get(raw_date)
        if quote_date is None:
            try:
                quote_date = dates[raw_date] = date.fromisoformat(raw_date.strip())
            except ValueError as exc:
                raise DataError(f"line {lineno}: bad quote date {raw_date.strip()!r}") from exc
        try:
            price = float(raw_price)  # float() ignores surrounding whitespace itself ...
        except ValueError:
            try:  # ... but for "\x1f", which strip() drops
                price = float(raw_price.strip())
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
        key = quote_date, period.label
        if key in prices:
            raise DataError(f"line {lineno}: duplicate quote for {period.label} on {quote_date}")
        prices[key] = price
    return QuoteTable(prices)


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
    dropped and counted in the completeness report.
    """
    prices, periods = table.prices, table._periods()
    children = {
        label: [c.label for c in period_children(period, child_kind)]
        for label, period in periods.items()
        if period.kind == parent_kind
    }
    # By quote date, then parent start; within one kind a start fixes the window.
    rows = sorted((d, periods[label].start, label) for d, label in prices if label in children)
    xs: list[float] = []
    ys: list[list[float]] = []
    ids: list[str] = []
    missing: list[tuple[str, str, list[str]]] = []
    for quote_date, _, parent in rows:
        labels = children[parent]
        child_prices = [prices.get((quote_date, label)) for label in labels]
        if None in child_prices:
            absent = [label for label, p in zip(labels, child_prices) if p is None]
            missing.append((quote_date.isoformat(), parent, absent))
            continue
        xs.append(prices[quote_date, parent])
        ys.append(child_prices)
        ids.append(f"{quote_date.isoformat()}|{parent}")
    if not xs:
        raise DataError("no joint observations")
    dataset = Dataset(x=np.array(xs), y=np.array(ys), case_ids=ids)
    return dataset, CompletenessReport(n_rows=len(xs), n_dropped=len(missing), missing=missing)
