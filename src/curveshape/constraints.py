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
from .periods import Period, delivery_hours, parse_period_label

_WEIGHT_SUM_TOL = 1e-12
FEASIBILITY_TOLERANCE = 1e-6  # largest arbitrage gap that counts as arbitrage-free


@dataclass(frozen=True)
class GranularitySplit:
    """A parent period subdivided into K ordered children with read-only hour weights."""

    parent_label: str
    child_labels: tuple[str, ...]
    weights: np.ndarray
    parent: Period | None = None
    children: tuple[Period, ...] | None = None

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
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


def build_split(parent: Period, children: list[Period]) -> GranularitySplit:
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
    hours = [delivery_hours(c) for c in children]
    total = delivery_hours(parent)
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
        h = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", h)
        # |h|^2 divides the exact-limit solve.  It is finite and positive when
        # the weights are finite and not all zero, and one dot product checks
        # both on the path that rebuilds a system per applied level.
        if not 0.0 < float(np.vdot(h, h)) < np.inf:
            raise DataError("constraint weights must be finite and not all zero")

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


def arbitrage_gap(system: ConstraintSystem, gamma) -> float:
    """max(|sum h A - 1|, |sum h B|), the max-abs residual of ``matrix @ gamma = rhs``.

    At most ``FEASIBILITY_TOLERANCE`` is arbitrage-free; a NaN gap never is.
    """
    g = np.asarray(gamma, dtype=float)
    h = system.weights
    if g.shape != (2 * h.size,):
        raise DataError(f"gamma has {g.shape} entries, expected ({2 * h.size},)")
    return float(np.max(np.abs([h @ g[0::2] - 1.0, h @ g[1::2]])))


def split_from_config(config: dict) -> GranularitySplit:
    """Build a split from a config block.

    Explicit ``weights`` override hour-derived ones; weights that already sum
    to one read back unchanged.  Children named by period labels have their
    windows resolved and checked.
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
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            weights = weights / total
        parent = _try_parse(parent_label)
        children = tuple(_try_parse(c) for c in child_labels)
        return GranularitySplit(
            parent_label=parent_label,
            child_labels=tuple(child_labels),
            weights=weights,
            parent=parent,
            children=children if all(c is not None for c in children) else None,
        )
    parent = parse_period_label(parent_label)
    children = [parse_period_label(c) for c in child_labels]
    return build_split(parent, children)


def _try_parse(label: str) -> Period | None:
    try:
        return parse_period_label(label)
    except DataError:
        return None
