"""Applying fitted coefficients across granularity levels.

A shaping level maps one parent price to K child prices through affine
pairs (A_k, B_k); a cascade chains levels (year to quarter, quarter to
month, month to day type, day type to hour) so a single calendar quote
propagates down to an hourly curve.  Day-to-hour levels are keyed by day
type (weekday / Saturday / Sunday).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from datetime import timedelta

import numpy as np

from .constraints import (
    FEASIBILITY_TOLERANCE,
    ConstraintSystem,
    GranularitySplit,
    arbitrage_gap,
    constraints_for_weights,
    split_from_config,
)
from .estimator import Dataset, FitConfig, FitResult, irls_fit
from .exceptions import DataError
from .periods import Period, parse_period_label

DAY_TYPES = ("WD", "SAT", "SUN")


@dataclass(frozen=True)
class ShapingLevel:
    """One split with a read-only copy of its fitted coefficient pairs.

    ``max_gap``, their ``arbitrage_gap`` under the split's read-only weights, is computed once.
    """

    split: GranularitySplit
    coefficients: np.ndarray  # (K, 2) rows of (A_k, B_k)
    max_gap: float = field(init=False)

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (self.split.n_children, 2):
            k, label = self.split.n_children, self.split.parent_label
            raise DataError(f"split {label!r} needs ({k}, 2) pairs (A_k, B_k), not {coeffs.shape}")
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
    """Ordered levels, each mapping parent labels to their shaping level."""

    root: str
    level_names: list[str]
    levels: list[dict[str, ShapingLevel]]

    def __post_init__(self) -> None:
        if len(self.level_names) != len(self.levels):
            raise DataError("level names and level maps disagree in length")
        reachable = {self.root}
        for name, level_map in zip(self.level_names, self.levels):
            parents = set(level_map)
            if not parents & reachable:
                raise DataError(f"level {name!r} is not chained to the cascade root")
            next_reachable = set()
            for parent_label, level in level_map.items():
                next_reachable.update(level.split.child_labels)
            reachable = next_reachable

    def parent_of(self, label: str) -> tuple[int, str, int] | None:
        """(level index, parent label, child position) owning ``label``."""
        for i, level_map in enumerate(self.levels):
            for parent_label, level in level_map.items():
                if label in level.split.child_labels:
                    return i, parent_label, level.split.child_labels.index(label)
        return None


def cascade(parent_price: float, casc: ShapingCascade, target: str, override: bool = False) -> float:
    """Price for one target period, composing levels along its parent chain."""
    if target == casc.root:
        return float(parent_price)
    chain: list[tuple[int, str, int]] = []
    label = target
    while label != casc.root:
        owner = casc.parent_of(label)
        if owner is None:
            raise DataError(f"no shaping path to {target!r}")
        chain.append(owner)
        label = owner[1]
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
            for j, child in enumerate(level.split.child_labels):
                nxt.append((child, weight * float(level.split.weights[j]), float(prices[j])))
        frontier = nxt
    return frontier


def verify_consistency(parent_price: float, child_prices, weights) -> float:
    """Signed gap between the weighted child average and the parent price."""
    c = np.asarray(child_prices, dtype=float)
    w = np.asarray(weights, dtype=float)
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
    fixed: dict[int, tuple[float, float]] | None = None,
    market_match: MarketMatch | None = None,
    prior: FitResult | None = None,
) -> FitResult:
    """Re-fit with some children pinned to traded coefficients.

    ``fixed`` maps child index -> (A, B).  ``market_match`` instead derives
    the pinned pair from a traded child price and the current parent quote,
    keeping the intercept from ``prior``.  The remaining
    coefficients are re-estimated robustly by one ``irls_fit``, which
    returns the pinned pairs exactly and, when its penalized fit misses the
    feasibility tolerance, falls back to the exact equality-constrained
    limit.  A full pinning that breaks the equalities raises ``DataError``.
    """
    pins = {child: (float(a_k), float(b_k)) for child, (a_k, b_k) in (fixed or {}).items()}
    if market_match is not None:
        j = market_match.child_index
        if not (isinstance(j, numbers.Integral) and 0 <= j < system.weights.size):
            raise DataError(f"market match child {j!r} is not in [0, {system.weights.size})")
        if j in pins:
            raise DataError(f"child {j} pinned twice")
        if prior is None:
            raise DataError("market matching needs the prior fit")
        b_j = float(prior.gamma[2 * j + 1])
        pins[j] = ((market_match.traded_price - b_j) / market_match.parent_quote, b_j)
    return irls_fit(dataset, system, config, fixed=pins)


def daytype_split(month: Period) -> GranularitySplit:
    """Split a month into weekday / Saturday / Sunday blocks by hour share.

    Every day counts the same hours (``periods.delivery_hours``), so the
    hour share of a day type is its share of the month's days.
    """
    if month.kind != "month":
        raise DataError("day-type split needs a month parent")
    counts = {t: 0 for t in DAY_TYPES}
    day = month.start.date()
    while day < month.end.date():
        wd = day.weekday()
        counts["SAT" if wd == 5 else "SUN" if wd == 6 else "WD"] += 1
        day += timedelta(days=1)
    days = np.array([counts[t] for t in DAY_TYPES], dtype=float)
    return GranularitySplit(
        parent_label=month.label,
        child_labels=tuple(f"{month.label}:{t}" for t in DAY_TYPES),
        weights=days / days.sum(),
        parent=month,
    )


def hour_split(parent_label: str) -> GranularitySplit:
    """Uniform split of a (day-type) block into its 24 hours of day."""
    return GranularitySplit(
        parent_label=parent_label,
        child_labels=tuple(f"{parent_label}:H{h:02d}" for h in range(24)),
        weights=np.full(24, 1.0 / 24),
    )


def cascade_from_config(config: dict) -> ShapingCascade:
    """Build a cascade from its declarative config.

    Schema: ``{"root": label, "levels": [{"name": str, "splits": [
    {"parent": ..., "children": [...], "weights": [...]?,
    "coefficients": [[A, B], ...]}]}]}``.  Children that are not period
    labels (day types, hours) need explicit weights.  Every level is held to
    ``FEASIBILITY_TOLERANCE`` when applied.
    """
    try:
        root = config["root"]
        level_cfgs = config["levels"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"cascade config needs 'root' and 'levels': {exc}") from exc
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
            coeffs = split_cfg.get("coefficients")
            if coeffs is None:
                raise DataError(f"split {split.parent_label!r} has no coefficients")
            level_map[split.parent_label] = ShapingLevel(split, coeffs)
        names.append(name)
        maps.append(level_map)
    return ShapingCascade(root=root, level_names=names, levels=maps)


def cascade_to_config(casc: ShapingCascade) -> dict:
    out = {"root": casc.root, "levels": []}
    for name, level_map in zip(casc.level_names, casc.levels):
        splits = []
        for parent_label, level in level_map.items():
            splits.append(
                {
                    "parent": parent_label,
                    "children": list(level.split.child_labels),
                    "weights": [float(w) for w in level.split.weights],
                    "coefficients": [[float(a), float(b)] for a, b in level.coefficients],
                }
            )
        out["levels"].append({"name": name, "splits": splits})
    return out


def leaf_window(label: str) -> tuple[str, str]:
    """Best-effort (start, end) ISO stamps for a leaf label in a shaped curve.

    Day-type and hour suffixes fall back to their parent month window.
    """
    base = label.split(":")[0]
    try:
        period = parse_period_label(base)
    except DataError:
        return "", ""
    return period.start.isoformat(), period.end.isoformat()
