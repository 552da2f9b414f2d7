"""Property tests: ``cascade`` prices one label as ``shape_curve`` prices the whole frontier."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curveshape import ShapingCascade, ShapingLevel, cascade, shape_curve
from curveshape.constraints import GranularitySplit
from curveshape.exceptions import DataError


@st.composite
def split_levels(draw, parent):
    """An arbitrage-free level of 1 to 3 children named ``parent.j``."""
    k = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = raw / raw.sum()
    slopes = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k)))
    intercepts = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    split = GranularitySplit(parent, tuple(f"{parent}.{j}" for j in range(k)), weights)
    pairs = np.column_stack([slopes / (weights @ slopes), intercepts - weights @ intercepts])
    return ShapingLevel(split, pairs)


@st.composite
def trees(draw):
    """Levels of a complete cascade from "R": a split below every label of the level above."""
    levels, frontier = [], ["R"]
    for _ in range(draw(st.integers(1, 4))):
        level_map = {parent: draw(split_levels(parent)) for parent in frontier}
        levels.append(level_map)
        frontier = [c for level in level_map.values() for c in level.split.child_labels]
    return levels


def build(levels):
    return ShapingCascade("R", [f"L{i}" for i in range(len(levels))], levels)


def shaped_prices(price, casc):
    """label -> price over every depth ``shape_curve`` reaches."""
    prices = {}
    for depth in range(len(casc.levels) + 1):
        try:
            leaves = shape_curve(price, casc, depth)
        except DataError as exc:
            assert "no shaping path below" in str(exc)
            break
        prices.update((label, leaf_price) for label, _, leaf_price in leaves)
    return prices


@given(trees(), st.floats(20.0, 90.0))
def test_complete_cascade_walkers_agree(levels, price):
    casc = build(levels)
    shaped = shaped_prices(price, casc)
    labels = {"R"} | {c for level_map in levels for lv in level_map.values() for c in lv.split.child_labels}
    assert set(shaped) == labels
    for label, leaf_price in shaped.items():
        assert cascade(price, casc, label) == leaf_price
    with pytest.raises(DataError, match="no shaping path to 'nowhere'"):
        cascade(price, casc, "nowhere")


@given(trees(), st.floats(20.0, 90.0), st.data())
def test_cascade_with_a_branch_removed(levels, price, data):
    droppable = [(i, p) for i, level_map in enumerate(levels) if len(level_map) > 1 for p in level_map]
    if not droppable:
        return
    full = build(levels)
    i, dropped = data.draw(st.sampled_from(droppable))
    cut = build([{p: lv for p, lv in m.items() if (j, p) != (i, dropped)} for j, m in enumerate(levels)])
    shaped = shaped_prices(price, cut)
    for label, leaf_price in shaped.items():
        assert cascade(price, cut, label) == leaf_price
    for level_map in levels:
        for level in level_map.values():
            for label in level.split.child_labels:
                if label.startswith(f"{dropped}."):
                    # below the removed split: no level reaches it
                    assert label not in shaped
                    with pytest.raises(DataError, match="no shaping path"):
                        cascade(price, cut, label)
                else:
                    assert cascade(price, cut, label) == cascade(price, full, label)
