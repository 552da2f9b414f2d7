"""Non-arbitrage equality systems for granularity splits.

The canonical system for K children with hour weights h ties the
coefficient vector gamma = (A_1, B_1, ..., A_K, B_K) through two rows:
sum_k h_k A_k = 1 (slopes) and sum_k h_k B_k = 0 (intercepts), so the
hour-weighted average of shaped child prices reproduces the parent price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, _floats
from .periods import Period, delivery_hours, parse_period_label

_WEIGHT_SUM_TOL = 1e-12
FEASIBILITY_TOLERANCE = 1e-6  # largest arbitrage gap that counts as arbitrage-free


@dataclass(frozen=True)
class GranularitySplit:
    """A parent label subdivided into K ordered child labels with read-only hour weights.

    Labels are plain strings: period labels, or the day-type and hour suffixes
    a cascade uses.  Callers that need the periods parse the labels.
    """

    parent_label: str
    child_labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        labels = self.child_labels  # a string would iterate into one-letter labels
        if not (isinstance(labels, (list, tuple)) and all(isinstance(label, str) for label in labels)):
            raise DataError(f"split child labels must be a list or tuple of strings, not {labels!r}")
        object.__setattr__(self, "child_labels", tuple(labels))
        w = _floats(self.weights, "split weights")
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
    )


@dataclass(frozen=True)
class ConstraintSystem:
    """The two non-arbitrage rows ``matrix @ gamma = rhs`` on (A_1, B_1, ..., A_K, B_K).

    Held as the split weights h; ``matrix`` and ``rhs`` are built on demand.
    """

    weights: np.ndarray
    n_rows = 2

    def __post_init__(self) -> None:
        h = _floats(self.weights, "constraint weights")
        h.setflags(write=False)
        object.__setattr__(self, "weights", h)
        # |h|^2 divides the exact-limit solve: one dot product checks that the
        # weights are finite and not all zero, and the read-only copy keeps the
        # caller from changing them after the check.
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
    g = _floats(gamma, "gamma")
    h = system.weights
    if g.shape != (2 * h.size,):
        raise DataError(f"gamma has {g.shape} entries, expected ({2 * h.size},)")
    return float(np.max(np.abs([h @ g[0::2] - 1.0, h @ g[1::2]])))


def split_from_config(config: dict) -> GranularitySplit:
    """Build a split from a config block.

    Explicit ``weights`` override hour-derived ones.  They are scaled to sum
    to one unless they already do, and ``GranularitySplit`` checks them; the
    labels are kept as given.  Without them every label must be a period
    label, and the children must tile the parent.
    """
    try:
        parent_label = config["parent"]
        child_labels = list(config["children"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"split config needs 'parent' and 'children': {exc}") from exc
    if isinstance(config["children"], str):  # a string iterates into one-letter labels
        raise DataError("split config 'children' must be a list of labels, not a string")
    if "weights" in config and config["weights"] is not None:
        weights = _floats(config["weights"], "split weights")
        total = float(weights.sum())
        if 0.0 < total < np.inf and abs(total - 1.0) > _WEIGHT_SUM_TOL:
            weights = weights / total
        return GranularitySplit(parent_label, tuple(child_labels), weights)
    parent = parse_period_label(parent_label)
    children = [parse_period_label(c) for c in child_labels]
    return build_split(parent, children)


def split_to_config(split: GranularitySplit) -> dict:
    """The config block ``split_from_config`` reads back as ``split``."""
    return {
        "parent": split.parent_label,
        "children": list(split.child_labels),
        "weights": [float(w) for w in split.weights],
    }
