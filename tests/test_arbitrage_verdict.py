"""Property tests for the one arbitrage verdict: ``arbitrage_gap`` against ``FEASIBILITY_TOLERANCE``."""

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from curveshape import (
    ShapingCascade,
    ShapingLevel,
    apply_level,
    arbitrage_gap,
    cascade_from_config,
    cascade_to_config,
    constraints_for_weights,
    shape_curve,
)
from curveshape.constraints import FEASIBILITY_TOLERANCE, GranularitySplit
from curveshape.exceptions import DataError

# Moves off the non-arbitrage manifold, on both sides of the tolerance.  A
# non-finite move is refused when the level is built (see below).
OFFSETS = st.one_of(
    st.sampled_from([0.0, 1e-9, -3e-7, 9e-7, -1.1e-6, 4e-6, -1e-3]),
    st.floats(-1e-2, 1e-2),
)


@st.composite
def levels(draw, parent="P"):
    """A level of 1 to 8 children with positive weights, its pairs moved off the manifold."""
    k = draw(st.integers(1, 8))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = raw / raw.sum()
    slopes = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=k, max_size=k)))
    intercepts = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    slopes = slopes / (weights @ slopes) + draw(OFFSETS)
    intercepts = intercepts - weights @ intercepts + draw(OFFSETS)
    split = GranularitySplit(parent, tuple(f"{parent}.{j}" for j in range(k)), weights)
    return ShapingLevel(split, np.column_stack([slopes, intercepts]))


@st.composite
def cascades(draw):
    """Two levels: a root split and one split below each of its children."""
    top = draw(levels("ROOT"))
    below = {child: draw(levels(child)) for child in top.split.child_labels}
    return ShapingCascade(root="ROOT", level_names=["L1", "L2"], levels=[{"ROOT": top}, below])


@given(levels())
def test_gap_is_the_dense_residual_and_decides_apply(level):
    system = constraints_for_weights(level.split.weights)
    gamma = level.coefficients.reshape(-1)
    dense = np.max(np.abs(system.matrix @ gamma - system.rhs))
    np.testing.assert_equal(arbitrage_gap(system, gamma), level.max_gap)
    np.testing.assert_allclose(level.max_gap, dense, rtol=1e-12, atol=1e-15)
    # The two sums may round differently; a gap this close to the tolerance decides nothing.
    assume(not abs(dense - FEASIBILITY_TOLERANCE) < 1e-12)
    if dense <= FEASIBILITY_TOLERANCE:
        apply_level(50.0, level)
    else:
        with pytest.raises(DataError, match="non-arbitrage"):
            apply_level(50.0, level)


@given(cascades(), st.floats(20.0, 90.0))
def test_config_round_trip_keeps_every_level(casc, price):
    clone = cascade_from_config(json.loads(json.dumps(cascade_to_config(casc))))
    for level_map, clone_map in zip(casc.levels, clone.levels):
        assert list(level_map) == list(clone_map)
        for parent, level in level_map.items():
            np.testing.assert_array_equal(clone_map[parent].coefficients, level.coefficients)
            np.testing.assert_array_equal(clone_map[parent].split.weights, level.split.weights)
            np.testing.assert_equal(clone_map[parent].max_gap, level.max_gap)
    leaves = shape_curve(price, casc, override=True)
    np.testing.assert_equal(shape_curve(price, clone, override=True), leaves)


@given(levels())
def test_level_arrays_are_read_only(level):
    for array in (level.coefficients, level.split.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("cell", [(0, 0), (1, 1)])
def test_non_finite_pairs_are_refused_when_built(bad, cell):
    split = GranularitySplit("P", ("P.0", "P.1"), np.array([0.5, 0.5]))
    coefficients = np.array([[1.0, 0.0], [1.0, 0.0]])
    coefficients[cell] = bad
    with pytest.raises(DataError, match="non-finite pairs"):
        ShapingLevel(split, coefficients)
