"""Non-arbitrage equality systems for granularity splits.

The canonical system for K children with hour weights h ties the
coefficient vector gamma = (A_1, B_1, ..., A_K, B_K) through two rows:
sum_k h_k A_k = 1 (slopes) and sum_k h_k B_k = 0 (intercepts), so the
hour-weighted average of shaped child prices reproduces the parent price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .periods import CalendarConfig, DEFAULT_CALENDAR, Period, delivery_hours, parse_period_label

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GranularitySplit:
    """A parent period subdivided into K ordered children with hour weights."""

    parent_label: str
    child_labels: tuple[str, ...]
    weights: np.ndarray
    parent: Period | None = None
    children: tuple[Period, ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 1:
            raise DataError("split needs at least one child")
        if w.size != len(self.child_labels):
            raise DataError("weights and children disagree in length")
        if not np.all(np.isfinite(w)):
            raise DataError("split weights must be finite")
        if np.any(w <= 0):
            raise DataError("split weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise DataError("split weights must sum to 1")

    @property
    def n_children(self) -> int:
        return len(self.child_labels)


def build_split(
    parent: Period,
    children: list[Period],
    calendar: CalendarConfig = DEFAULT_CALENDAR,
) -> GranularitySplit:
    """Split a parent into children weighted by their delivery-hour share.

    The children must tile the parent window exactly, in order.
    """
    if not children:
        raise DataError("children do not partition parent")
    cursor = parent.start
    for child in children:
        if child.start != cursor:
            raise DataError("children do not partition parent")
        cursor = child.end
    if cursor != parent.end:
        raise DataError("children do not partition parent")
    hours = [delivery_hours(c, calendar) for c in children]
    total = delivery_hours(parent, calendar)
    weights = np.array(hours, dtype=float) / float(total)
    return GranularitySplit(
        parent_label=parent.label,
        child_labels=tuple(c.label for c in children),
        weights=weights,
        parent=parent,
        children=tuple(children),
    )


@dataclass(frozen=True)
class ConstraintSystem:
    """The two non-arbitrage rows ``matrix @ gamma = rhs`` on (A_1, B_1, ..., A_K, B_K).

    Held as the split weights h; ``matrix`` and ``rhs`` are built on demand.
    """

    weights: np.ndarray
    n_rows = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((2, 2 * self.weights.size))
        m[0, 0::2] = self.weights
        m[1, 1::2] = self.weights
        return m

    @property
    def rhs(self) -> np.ndarray:
        return np.array([1.0, 0.0])


def constraints_for_weights(weights) -> ConstraintSystem:
    """Canonical two-row non-arbitrage system for the split weights h."""
    return ConstraintSystem(weights)


def arbitrage_gap(system: ConstraintSystem, gamma) -> np.ndarray:
    """Componentwise residual ``matrix @ gamma - rhs``: (sum h A - 1, sum h B)."""
    g = np.asarray(gamma, dtype=float)
    h = system.weights
    if g.shape != (2 * h.size,):
        raise DataError(f"gamma has {g.shape} entries, expected ({2 * h.size},)")
    return np.array([h @ g[0::2] - 1.0, h @ g[1::2]])


def split_from_config(config: dict, calendar: CalendarConfig = DEFAULT_CALENDAR) -> GranularitySplit:
    """Build a split from a config block.

    Explicit ``weights`` override hour-derived ones; children named by
    period labels have their windows resolved and checked.
    """
    try:
        parent_label = config["parent"]
        child_labels = list(config["children"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"split config needs 'parent' and 'children': {exc}") from exc
    if "weights" in config and config["weights"] is not None:
        weights = np.asarray(config["weights"], dtype=float)
        if weights.size != len(child_labels):
            raise DataError("explicit weights disagree with children count")
        total = float(weights.sum())
        if total <= 0:
            raise DataError("split weights must be strictly positive")
        parent = _try_parse(parent_label)
        children = tuple(_try_parse(c) for c in child_labels)
        return GranularitySplit(
            parent_label=parent_label,
            child_labels=tuple(child_labels),
            weights=weights / total,
            parent=parent,
            children=children if all(c is not None for c in children) else None,
        )
    parent = parse_period_label(parent_label)
    children = [parse_period_label(c) for c in child_labels]
    return build_split(parent, children, calendar)


def _try_parse(label: str) -> Period | None:
    try:
        return parse_period_label(label)
    except DataError:
        return None
