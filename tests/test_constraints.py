"""Tests for the non-arbitrage constraint builder."""

import warnings

import numpy as np
import pytest

from conftest import (
    CLASSICAL_INTERCEPTS,
    CLASSICAL_SLOPES,
    EQUAL_WEIGHTS,
    MCRM_INTERCEPTS,
    MCRM_SLOPES,
    RATIO_AVERAGE_BETAS,
    arbitrage_free_gamma,
    interleave,
    synthetic_dataset,
)
from curveshape.constraints import (
    arbitrage_gap,
    build_split,
    constraints_for_weights,
    split_from_config,
)
from curveshape.estimator import irls_fit, penalized_wls_solve
from curveshape.exceptions import DataError
from curveshape.periods import parse_period_label, period_children, year_period


class TestBuildSplit:
    def test_year_to_quarters(self):
        year = year_period(2014)
        split = build_split(year, period_children(year, "quarter"))
        np.testing.assert_allclose(
            split.weights, np.array([2160, 2184, 2208, 2208]) / 8760.0, atol=1e-15
        )

    def test_single_child(self):
        year = year_period(2014)
        split = build_split(year, [year])
        np.testing.assert_allclose(split.weights, [1.0])

    def test_day_to_hours(self):
        day = parse_period_label("D-2014-04-05")
        split = build_split(day, period_children(day, "hour"))
        np.testing.assert_allclose(split.weights, np.full(24, 1 / 24), atol=1e-15)

    def test_gap_rejected(self):
        year = year_period(2014)
        quarters = period_children(year, "quarter")
        with pytest.raises(DataError, match="partition"):
            build_split(year, quarters[:3])
        with pytest.raises(DataError, match="partition"):
            build_split(year, [quarters[0], quarters[0], quarters[2], quarters[3]])


class TestBuildConstraints:
    def test_canonical_layout(self):
        year = year_period(2014)
        split = build_split(year, period_children(year, "quarter"))
        system = constraints_for_weights(split.weights)
        assert system.matrix.shape == (2, 8)
        np.testing.assert_allclose(system.matrix[0, 0::2], split.weights)
        np.testing.assert_allclose(system.matrix[0, 1::2], 0.0)
        np.testing.assert_allclose(system.matrix[1, 1::2], split.weights)
        np.testing.assert_allclose(system.matrix[1, 0::2], 0.0)
        np.testing.assert_allclose(system.rhs, [1.0, 0.0])

    def test_unit_gamma_satisfies(self):
        for k in (1, 2, 4, 7):
            w = np.random.default_rng(k).uniform(0.5, 2.0, k)
            system = constraints_for_weights(w / w.sum())
            gamma = interleave(np.ones(k), np.zeros(k))
            np.testing.assert_allclose(arbitrage_gap(system, gamma), 0.0, atol=1e-12)

    def test_published_mcrm_row(self, equal_weight_system):
        gamma = interleave(MCRM_SLOPES, MCRM_INTERCEPTS)
        gap = arbitrage_gap(equal_weight_system, gamma)
        assert np.max(np.abs(gap)) <= 2.5e-3

    def test_published_classical_row(self, equal_weight_system):
        gamma = interleave(CLASSICAL_SLOPES, CLASSICAL_INTERCEPTS)
        rows = equal_weight_system.matrix @ gamma - equal_weight_system.rhs
        assert abs(rows[0]) <= 2.5e-3
        assert abs(rows[1]) == pytest.approx(0.00025, abs=1e-10)
        assert arbitrage_gap(equal_weight_system, gamma) == pytest.approx(0.00025, abs=1e-10)

    @pytest.mark.parametrize(
        "weights", [[np.nan, 0.25, 0.25, 0.25], [np.inf, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 0.0]]
    )
    def test_weights_that_define_no_constraints(self, weights):
        # irls_fit would return NaN coefficients on them instead of failing
        with pytest.raises(DataError, match="constraint weights"):
            constraints_for_weights(weights)

    def test_system_keeps_a_read_only_copy_of_its_weights(self, rng):
        weights = np.full(4, 0.25)
        system = constraints_for_weights(weights)
        weights[:] = 0.0  # would make |h|^2 zero in the exact-limit solve
        np.testing.assert_array_equal(system.weights, EQUAL_WEIGHTS)
        with pytest.raises(ValueError):
            system.weights[0] = 0.0
        gamma = arbitrage_free_gamma(rng, 4)
        result = irls_fit(synthetic_dataset(rng, gamma), system)
        assert np.isfinite(result.gamma).all()
        assert arbitrage_gap(system, result.gamma) <= 1e-6

    def test_single_child_forces_identity(self):
        system = constraints_for_weights([1.0])
        gamma = np.linalg.solve(system.matrix, system.rhs)
        np.testing.assert_allclose(gamma, [1.0, 0.0], atol=1e-14)


class TestArbitrageGap:
    def test_exact_gamma(self, equal_weight_system, rng):
        # with equal weights the rows read mean(A) = 1 and mean(B) = 0
        slopes = rng.uniform(0.5, 1.5, 4)
        slopes /= slopes.mean()
        intercepts = rng.uniform(-2, 2, 4)
        intercepts -= intercepts.mean()
        gamma = interleave(slopes, intercepts)
        np.testing.assert_allclose(arbitrage_gap(equal_weight_system, gamma), 0.0, atol=1e-12)

    def test_ratio_average_slope_gap(self, equal_weight_system):
        gamma = interleave(RATIO_AVERAGE_BETAS, np.zeros(4))
        rows = equal_weight_system.matrix @ gamma - equal_weight_system.rhs
        assert rows[0] == pytest.approx(1.75e-4, abs=1e-10)
        assert rows[1] == 0.0
        assert arbitrage_gap(equal_weight_system, gamma) == pytest.approx(1.75e-4, abs=1e-10)

    def test_matches_dense_multiply(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            w = rng.uniform(0.2, 1.0, k)
            system = constraints_for_weights(w / w.sum())
            gamma = rng.standard_normal(2 * k)
            dense = np.max(np.abs(system.matrix @ gamma - system.rhs))
            assert arbitrage_gap(system, gamma) == pytest.approx(dense, abs=1e-15)

    def test_linearity(self, equal_weight_system, rng):
        g1, g2 = rng.standard_normal(8), rng.standard_normal(8)
        lhs = equal_weight_system.matrix @ (g1 + g2)
        rhs = equal_weight_system.matrix @ g1 + equal_weight_system.matrix @ g2
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self, equal_weight_system):
        with pytest.raises(DataError):
            arbitrage_gap(equal_weight_system, np.ones(6))


class TestFixCoefficients:
    """Pinning children in the solve: child -> (A, B), written back as given."""

    @staticmethod
    def pinned_solve(rng, system, fixed, alpha=np.inf):
        k = system.weights.size
        data = synthetic_dataset(rng, arbitrage_free_gamma(rng, k), n=60, noise=0.5)
        return penalized_wls_solve(data.x, data.y, np.ones(60), system, alpha, fixed)

    def test_substitution_arithmetic(self, rng, equal_weight_system):
        gamma = self.pinned_solve(rng, equal_weight_system, {0: (1.2, 0.0)})
        assert gamma[0] == 1.2 and gamma[1] == 0.0
        # the pinned child shifts the rhs by h_0 * (A_0, B_0)
        assert float(EQUAL_WEIGHTS[1:] @ gamma[2::2]) == pytest.approx(1 - 0.25 * 1.2, abs=1e-12)
        assert float(EQUAL_WEIGHTS[1:] @ gamma[3::2]) == pytest.approx(0.0, abs=1e-12)

    def test_fix_nothing(self, equal_weight_system):
        solves = [
            self.pinned_solve(np.random.default_rng(5), equal_weight_system, fixed, alpha=3.0)
            for fixed in (None, {})
        ]
        np.testing.assert_array_equal(solves[0], solves[1])

    def test_infeasible_full_fix(self, rng, equal_weight_system):
        fixed = {j: (1.5, 1.5) for j in range(4)}  # slope row gives 1.5 != 1
        with pytest.raises(DataError, match="infeasible fixing"):
            self.pinned_solve(rng, equal_weight_system, fixed)

    def test_consistent_full_fix(self, rng, equal_weight_system):
        fixed = {j: (1.0, 0.0) for j in range(4)}
        gamma = self.pinned_solve(rng, equal_weight_system, fixed, alpha=1.0)
        np.testing.assert_array_equal(gamma, interleave(np.ones(4), np.zeros(4)))

    def test_reinsert_solves_original(self, rng):
        # the exact limit with one child pinned satisfies the full system
        for trial in range(10):
            k = int(rng.integers(2, 5))
            w = rng.uniform(0.3, 1.0, k)
            system = constraints_for_weights(w / w.sum())
            pair = (float(rng.uniform(0.8, 1.2)), float(rng.uniform(-1, 1)))
            gamma = self.pinned_solve(rng, system, {0: pair})
            assert (gamma[0], gamma[1]) == pair
            np.testing.assert_allclose(system.matrix @ gamma, system.rhs, atol=1e-10)

    def test_bad_index(self, rng, equal_weight_system):
        for child in (4, -1):
            with pytest.raises(DataError, match="out of range"):
                self.pinned_solve(rng, equal_weight_system, {child: (1.0, 0.0)})


class TestSplitConfig:
    def test_hour_weights_derived_when_missing(self):
        config = {"parent": "CAL-2014", "children": ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"]}
        split = split_from_config(config)
        np.testing.assert_allclose(split.weights, np.array([2160, 2184, 2208, 2208]) / 8760.0)

    def test_explicit_weights_override(self):
        config = {
            "parent": "CAL-2014",
            "children": ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"],
            "weights": [1, 1, 1, 1],
        }
        split = split_from_config(config)
        np.testing.assert_allclose(split.weights, EQUAL_WEIGHTS)

    def test_bad_config(self):
        with pytest.raises(DataError):
            split_from_config({"children": ["Q1-2014"]})

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1, 1, 1], "disagree in length"),
            ([], "at least one child"),
            ([np.inf, 1, 1, 1], "finite"),
            ([np.nan, 1, 1, 1], "finite"),
            ([0, 0, 0, 0], "strictly positive"),
            ([-1, 1, 1, 1], "strictly positive"),
        ],
    )
    def test_explicit_weights_are_checked_by_the_split(self, weights, message):
        config = {"parent": "CAL-2014", "children": ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from scaling them first
            with pytest.raises(DataError, match=message):
                split_from_config(dict(config, weights=weights))


def test_split_validation():
    from curveshape.constraints import GranularitySplit

    with pytest.raises(DataError, match="sum to 1"):
        GranularitySplit("p", ("a", "b"), np.array([0.5, 0.6]))
    with pytest.raises(DataError, match="strictly positive"):
        GranularitySplit("p", ("a", "b"), np.array([1.0001, -0.0001]))
    with pytest.raises(DataError, match="disagree"):
        GranularitySplit("p", ("a",), np.array([0.5, 0.5]))


def test_no_children_do_not_partition_a_parent():
    with pytest.raises(DataError, match="^children do not partition parent$"):
        build_split(year_period(2014), [])
