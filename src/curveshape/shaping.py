"""Applying fitted coefficients across granularity levels.

A shaping level maps one parent price to K child prices through affine
pairs (A_k, B_k); a cascade chains levels (year to quarter, quarter to
month, month to day type, day type to hour) so a single calendar quote
propagates down to an hourly curve.  Day-to-hour levels are keyed by day
type (weekday / Saturday / Sunday).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    FEASIBILITY_TOLERANCE,
    ConstraintSystem,
    GranularitySplit,
    arbitrage_gap,
    constraints_for_weights,
    split_from_config,
    split_to_config,
)
from .estimator import Dataset, FitConfig, FitResult, gamma_from_report, irls_fit
from .exceptions import DataError, _floats, _integral
from .periods import Period, parse_period_label

DAY_TYPES = ("WD", "SAT", "SUN")


def _csv_field(label) -> bool:
    """Whether ``label`` is a string with no comma, quote or newline, which ``predict`` writes as one CSV field."""
    return isinstance(label, str) and set(label).isdisjoint(',"\r\n')


@dataclass(frozen=True)
class ShapingLevel:
    """One split with a read-only copy of its finite fitted coefficient pairs.

    ``max_gap``, their ``arbitrage_gap`` under the split's read-only weights, is computed once.
    """

    split: GranularitySplit
    coefficients: np.ndarray  # (K, 2) rows of (A_k, B_k)
    max_gap: float = field(init=False)

    def __post_init__(self) -> None:
        k, label = self.split.n_children, self.split.parent_label
        coeffs = _floats(self.coefficients, f"split {label!r} pairs (A_k, B_k)")
        if coeffs.shape != (k, 2):
            raise DataError(f"split {label!r} needs ({k}, 2) pairs (A_k, B_k), not {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise DataError(f"split {label!r} has non-finite pairs (A_k, B_k)")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        gap = arbitrage_gap(constraints_for_weights(self.split.weights), coeffs.reshape(-1))
        object.__setattr__(self, "max_gap", gap)


def apply_level(parent_price: float, level: ShapingLevel, override: bool = False) -> np.ndarray:
    """Shape one parent price into K child prices: child_k = A_k * p + B_k.

    Unless ``override`` is set, a ``max_gap`` above ``FEASIBILITY_TOLERANCE``, or NaN, raises.
    """
    if not override and not level.max_gap <= FEASIBILITY_TOLERANCE:
        raise DataError(
            f"level for {level.split.parent_label!r} violates non-arbitrage "
            f"(max gap {level.max_gap:.3g}); pass override to force"
        )
    return level.coefficients[:, 0] * parent_price + level.coefficients[:, 1]


@dataclass
class ShapingCascade:
    """Ordered levels, each mapping parent labels to their shaping level.

    Every level is filed under its split's parent label.  Construction
    records each label's owner: the first split, scanning levels in order,
    that lists it as a child.
    """

    root: str
    level_names: list[str]
    levels: list[dict[str, ShapingLevel]]

    def __post_init__(self) -> None:
        if len(self.level_names) != len(self.levels):
            raise DataError("level names and level maps disagree in length")
        self._owners: dict[str, tuple[int, str, int]] = {}
        reachable = {self.root}
        for i, (name, level_map) in enumerate(zip(self.level_names, self.levels)):
            if not reachable.intersection(level_map):
                raise DataError(f"level {name!r} is not chained to the cascade root")
            reachable = set()
            for parent_label, level in level_map.items():
                if level.split.parent_label != parent_label:
                    shapes = level.split.parent_label
                    raise DataError(f"level for {shapes!r} is filed under {parent_label!r}")
                for j, child in enumerate(level.split.child_labels):
                    self._owners.setdefault(child, (i, parent_label, j))
                reachable.update(level.split.child_labels)


def cascade(parent_price: float, casc: ShapingCascade, target: str, override: bool = False) -> float:
    """Price for one target label, composing levels down its chain of owners.

    Each step up from ``target`` goes to its owner's parent label, and every
    owner must sit at a strictly earlier level than the one before, ending at
    the root.  A label with no such chain has no shaping path.
    """
    chain: list[tuple[int, str, int]] = []
    label, level_idx = target, len(casc.levels)
    while label != casc.root:
        owner = casc._owners.get(label)
        if owner is None or owner[0] >= level_idx:
            raise DataError(f"no shaping path to {target!r}")
        chain.append(owner)
        level_idx, label = owner[0], owner[1]
    price = float(parent_price)
    for level_idx, parent_label, child_idx in reversed(chain):
        level = casc.levels[level_idx][parent_label]
        price = float(apply_level(price, level, override)[child_idx])
    return price


def shape_curve(
    parent_price: float, casc: ShapingCascade, depth: int | None = None, override: bool = False
) -> list[tuple[str, float, float]]:
    """All (label, weight, price) leaves at ``depth`` levels below the root.

    Weights are the products of split weights along each path, so they sum
    to one and give the hour share of each leaf in the root period.
    """
    if depth is None:
        depth = len(casc.levels)
    if not 0 <= depth <= len(casc.levels):
        raise DataError(f"cascade has {len(casc.levels)} levels, not {depth}")
    frontier = [(casc.root, 1.0, float(parent_price))]
    for level_map in casc.levels[:depth]:
        nxt = []
        for label, weight, price in frontier:
            level = level_map.get(label)
            if level is None:
                raise DataError(f"no shaping path below {label!r}")
            prices = apply_level(price, level, override)
            nxt += zip(level.split.child_labels, (weight * level.split.weights).tolist(), prices.tolist())
        frontier = nxt
    return frontier


def verify_consistency(parent_price: float, child_prices, weights) -> float:
    """Signed gap between the weighted child average and the parent price."""
    c, w = _floats(child_prices, "child_prices"), _floats(weights, "weights")
    if c.shape != w.shape:
        raise DataError("child prices and weights disagree in shape")
    return float(w @ c - parent_price)


@dataclass(frozen=True)
class MarketMatch:
    """Recalibration instruction: make one shaped child hit a traded price.

    The prior intercept is kept and the slope is solved from the match.
    """

    child_index: int
    traded_price: float
    parent_quote: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.traded_price) and np.isfinite(self.parent_quote)):
            raise DataError("market match prices must be finite")
        if self.parent_quote == 0.0:
            raise DataError("zero parent quote")


def recalibrate_with_traded(
    dataset: Dataset,
    system: ConstraintSystem,
    config: FitConfig | None = None,
    market_match: MarketMatch | None = None,
    prior: FitResult | None = None,
) -> FitResult:
    """Re-fit with one child pinned to a freshly traded price.

    ``market_match`` derives the pinned pair from the traded child price and
    the current parent quote, keeping the intercept from ``prior``.  The
    remaining coefficients are re-estimated robustly by one ``irls_fit``,
    which returns the pinned pair exactly and, when its penalized fit misses
    the feasibility tolerance, falls back to the exact equality-constrained
    limit.
    """
    if market_match is None or prior is None:
        raise DataError("recalibration needs a market match and the prior fit")
    j = market_match.child_index
    if not (_integral(j) and 0 <= j < system.weights.size):
        raise DataError(f"market match child {j!r} is not in [0, {system.weights.size})")
    b_j = float(prior.gamma[2 * j + 1])
    pinned = ((market_match.traded_price - b_j) / market_match.parent_quote, b_j)
    return irls_fit(dataset, system, config, fixed={j: pinned})


def daytype_split(month: Period) -> GranularitySplit:
    """Split a month into weekday / Saturday / Sunday blocks by hour share.

    Every day counts the same hours (``periods.delivery_hours``), so the
    hour share of a day type is its share of the month's days.
    """
    if month.kind != "month":
        raise DataError("day-type split needs a month parent")
    start, end = month.start.date(), month.end.date()
    # Monday-first weekmasks of the weekdays, Saturdays and Sundays, as DAY_TYPES lists them
    days = np.array([np.busday_count(start, end, mask) for mask in ("1111100", "0000010", "0000001")], dtype=float)
    return GranularitySplit(
        parent_label=month.label,
        child_labels=tuple(f"{month.label}:{t}" for t in DAY_TYPES),
        weights=days / days.sum(),
    )


def hour_split(parent_label: str) -> GranularitySplit:
    """Uniform split of a (day-type) block into its 24 hours of day."""
    return GranularitySplit(
        parent_label=parent_label,
        child_labels=tuple(f"{parent_label}:H{h:02d}" for h in range(24)),
        weights=np.full(24, 1.0 / 24),
    )


def cascade_from_config(config: dict, report: dict | None = None) -> ShapingCascade:
    """Build a cascade from its declarative config.

    Schema: ``{"root": label, "levels": [{"name": str, "splits": [
    {"parent": ..., "children": [...], "weights": [...]?,
    "coefficients": [[A, B], ...]}]}]}``.  Children that are not period
    labels (day types, hours) need explicit weights.  A split whose
    coefficients are null takes the pairs of the fit ``report``, where
    ``gamma_from_report`` finds it fitted to that split.  Every level is
    held to ``FEASIBILITY_TOLERANCE`` when applied.
    """
    try:
        root = config["root"]
        level_cfgs = config["levels"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"cascade config needs 'root' and 'levels': {exc}") from exc
    if not _csv_field(root):
        raise DataError(f"cascade config 'root' must be a label string with no comma, quote or newline: {root!r}")
    if not isinstance(level_cfgs, list):
        raise DataError("cascade config 'levels' must be a list")
    names, maps = [], []
    for level_cfg in level_cfgs:
        if not isinstance(level_cfg, dict):
            raise DataError(f"cascade level {len(names)} must be an object")
        name = level_cfg.get("name", f"level-{len(names)}")
        split_cfgs = level_cfg.get("splits", [])
        if not isinstance(split_cfgs, list):
            raise DataError(f"cascade level {len(names)} 'splits' must be a list")
        level_map = {}
        for split_cfg in split_cfgs:
            split = split_from_config(split_cfg)
            for label in (split.parent_label, *split.child_labels):
                if not _csv_field(label):
                    raise DataError(
                        f"cascade level {len(names)} label {label!r} must be a string with no comma, quote or newline"
                    )
            coeffs = split_cfg.get("coefficients")
            if coeffs is None and report is not None:
                gamma = gamma_from_report(report, split.child_labels, split.parent_label)
                coeffs = None if gamma is None else gamma.reshape(-1, 2)
            if coeffs is None:
                raise DataError(f"split {split.parent_label!r} has no coefficients")
            if split.parent_label in level_map:
                raise DataError(f"cascade level {name!r} has two splits for {split.parent_label!r}")
            level_map[split.parent_label] = ShapingLevel(split, coeffs)
        names.append(name)
        maps.append(level_map)
    return ShapingCascade(root=root, level_names=names, levels=maps)


def cascade_to_config(casc: ShapingCascade) -> dict:
    out = {"root": casc.root, "levels": []}
    for name, level_map in zip(casc.level_names, casc.levels):
        splits = [
            {**split_to_config(level.split), "coefficients": level.coefficients.tolist()}
            for level in level_map.values()
        ]
        out["levels"].append({"name": name, "splits": splits})
    return out


def read_leaf_label(label: str) -> tuple[str | None, Period | None]:
    """A leaf label's granularity and the period named before its suffixes.

    The last suffix decides the granularity: ``:H..`` is an hour and a day
    type a day.  A label with no suffix is of its period's kind.  Either is
    None where the label names none.
    """
    base, *suffixes = label.split(":")
    try:
        period = parse_period_label(base)
    except DataError:
        period = None
    if suffixes and suffixes[-1].startswith("H"):
        return "hour", period
    if label.rpartition(":")[2] in DAY_TYPES:
        return "day", period
    return (None if suffixes or period is None else period.kind), period
