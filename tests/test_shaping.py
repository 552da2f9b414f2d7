"""Tests for level application, cascades, and recalibration."""

import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    EQUAL_WEIGHTS,
    MCRM_INTERCEPTS,
    MCRM_SLOPES,
    arbitrage_free_gamma,
    synthetic_dataset,
)
from curveshape import (
    MarketMatch,
    ShapingCascade,
    ShapingLevel,
    apply_level,
    cascade,
    cascade_from_config,
    cascade_to_config,
    irls_fit,
    recalibrate_with_traded,
    shape_curve,
    verify_consistency,
)
from curveshape.constraints import GranularitySplit
from curveshape.exceptions import DataError
from curveshape.shaping import daytype_split, hour_split
from curveshape.periods import month_period, year_period


def make_level(parent, children, weights, slopes, intercepts):
    split = GranularitySplit(parent, tuple(children), np.asarray(weights, float))
    return ShapingLevel(split=split, coefficients=np.column_stack([slopes, intercepts]))


def identity_level(parent, child):
    return make_level(parent, [child], [1.0], [1.0], [0.0])


def random_level(rng, parent, children, weights=None):
    k = len(children)
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, float)
    gamma = arbitrage_free_gamma(rng, k, w)
    return make_level(parent, children, w, gamma[0::2], gamma[1::2])


class TestApplyLevel:
    def test_identity(self):
        level = identity_level("CAL-2014", "CAL-2014x")
        np.testing.assert_allclose(apply_level(42.0, level), [42.0])

    def test_published_quarter_example(self):
        level = make_level(
            "CAL-2014",
            ["Q1", "Q2", "Q3", "Q4"],
            EQUAL_WEIGHTS,
            MCRM_SLOPES,
            MCRM_INTERCEPTS,
        )
        prices = apply_level(50.20, level)
        np.testing.assert_allclose(prices, [54.6702, 45.331, 47.1642, 53.6346], atol=1e-10)
        np.testing.assert_allclose(prices, [54.67, 45.33, 47.16, 53.63], atol=5e-3)

    def test_weighted_average_reproduces_parent(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 7))
            w = rng.uniform(0.3, 1.5, k)
            w /= w.sum()
            level = random_level(rng, "P", [f"c{i}" for i in range(k)], w)
            price = float(rng.uniform(10, 90))
            children = apply_level(price, level)
            assert float(w @ children) == pytest.approx(price, abs=1e-10)

    def test_affine_in_parent_price(self, rng):
        level = random_level(rng, "P", ["a", "b", "c"])
        x1, x2 = 37.5, 61.2
        diff = apply_level(x1, level) - apply_level(x2, level)
        np.testing.assert_allclose(diff, level.coefficients[:, 0] * (x1 - x2), atol=1e-12)

    def test_refuses_arbitrage_violation(self):
        level = make_level("P", ["a", "b"], [0.5, 0.5], [1.2, 1.2], [0.0, 0.0])
        assert level.max_gap == pytest.approx(0.2)
        with pytest.raises(DataError, match="non-arbitrage"):
            apply_level(50.0, level)
        np.testing.assert_allclose(apply_level(50.0, level, override=True), [60.0, 60.0])

    def test_gap_is_computed_once_over_read_only_copies(self):
        weights, coeffs = np.array([0.5, 0.5]), np.array([[1.0, 0.0], [1.0, 0.0]])
        level = ShapingLevel(GranularitySplit("P", ("a", "b"), weights), coeffs)
        weights[0], coeffs[0, 0] = 0.7, 1.2  # the caller's arrays were copied
        assert level.max_gap == 0.0
        for array in (level.coefficients, level.split.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        np.testing.assert_allclose(apply_level(50.0, level), [50.0, 50.0])


class TestCascade:
    def build_two_level(self, rng):
        top = random_level(rng, "ROOT", ["m1", "m2"], [0.4, 0.6])
        bottom = {
            "m1": random_level(rng, "m1", ["m1a", "m1b"], [0.5, 0.5]),
            "m2": random_level(rng, "m2", ["m2a", "m2b"], [0.3, 0.7]),
        }
        return ShapingCascade(
            root="ROOT", level_names=["L1", "L2"], levels=[{"ROOT": top}, bottom]
        )

    def test_identity_cascade(self):
        lv1 = identity_level("ROOT", "mid")
        lv2 = identity_level("mid", "leaf")
        casc = ShapingCascade(root="ROOT", level_names=["a", "b"], levels=[{"ROOT": lv1}, {"mid": lv2}])
        assert cascade(33.3, casc, "leaf") == pytest.approx(33.3)
        assert cascade(33.3, casc, "ROOT") == 33.3

    def test_matches_hand_composition(self, rng):
        casc = self.build_two_level(rng)
        top = casc.levels[0]["ROOT"]
        bottom = casc.levels[1]["m2"]
        a1, b1 = top.coefficients[1]
        a2, b2 = bottom.coefficients[0]
        x = 47.0
        assert cascade(x, casc, "m2a") == pytest.approx(a2 * (a1 * x + b1) + b2, abs=1e-12)

    def test_unreachable(self, rng):
        casc = self.build_two_level(rng)
        with pytest.raises(DataError, match="no shaping path"):
            cascade(50.0, casc, "nowhere")

    def test_weighted_leaves_reproduce_root(self, rng):
        casc = self.build_two_level(rng)
        leaves = shape_curve(80.0, casc)
        total = sum(w * p for _, w, p in leaves)
        assert total == pytest.approx(80.0, rel=1e-12)
        assert sum(w for _, w, _ in leaves) == pytest.approx(1.0, rel=1e-12)

    def test_shape_curve_depths(self, rng):
        casc = self.build_two_level(rng)
        assert [label for label, _, _ in shape_curve(50.0, casc, 1)] == ["m1", "m2"]
        assert len(shape_curve(50.0, casc, 2)) == 4
        with pytest.raises(DataError):
            shape_curve(50.0, casc, 3)

    def test_level_filed_under_another_parent_is_refused(self, rng):
        # Written back to config, such a level would name its split's parent, not its key.
        top = random_level(rng, "ROOT", ["m1", "m2"])
        stray = random_level(rng, "m1", ["m1a", "m1b"])
        with pytest.raises(DataError, match="level for 'm1' is filed under 'm2'"):
            ShapingCascade(root="ROOT", level_names=["L1", "L2"], levels=[{"ROOT": top}, {"m2": stray}])


class TestVerifyConsistency:
    def test_arbitrage_free_level(self, rng):
        level = random_level(rng, "P", ["a", "b", "c"])
        children = apply_level(55.0, level)
        gap = verify_consistency(55.0, children, level.split.weights)
        assert abs(gap) < 1e-10

    def test_perturbation(self):
        w = EQUAL_WEIGHTS
        children = np.array([50.0, 50.0, 50.0, 50.0])
        assert verify_consistency(50.0, children, w) == pytest.approx(0.0)
        children[2] += 1.0
        assert verify_consistency(50.0, children, w) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            verify_consistency(1.0, np.ones(3), np.ones(4) / 4)


class TestRecalibration:
    def test_idempotent_fixing(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=200, noise=0.4, null_space_noise=True)
        prior = irls_fit(ds, equal_weight_system)
        assert prior.arbitrage_gap_maxabs <= 1e-6
        again = irls_fit(ds, equal_weight_system, fixed={0: (float(prior.gamma[0]), float(prior.gamma[1]))})
        np.testing.assert_allclose(again.gamma, prior.gamma, atol=1e-8)

    def test_fixed_pair_constraint_arithmetic(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=200, noise=0.4)
        result = irls_fit(ds, equal_weight_system, fixed={0: (1.2, 0.0)})
        assert result.gamma[0] == 1.2 and result.gamma[1] == 0.0
        remaining = float(EQUAL_WEIGHTS[1:] @ result.gamma[2::2])
        assert remaining == pytest.approx(1.0 - 0.25 * 1.2, abs=1e-6)
        assert result.arbitrage_gap_maxabs <= 1e-6

    def test_market_match_slope_mode(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=150, noise=0.5)
        prior = irls_fit(ds, equal_weight_system)
        match = MarketMatch(child_index=2, traded_price=48.75, parent_quote=51.0)
        result = recalibrate_with_traded(
            ds, equal_weight_system, market_match=match, prior=prior
        )
        shaped = result.gamma[4] * 51.0 + result.gamma[5]
        assert shaped == pytest.approx(48.75, rel=1e-9)
        assert result.gamma[5] == prior.gamma[5]  # prior intercept kept
        assert result.arbitrage_gap_maxabs <= 1e-6

    def test_infeasible_fix_propagates(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=100, noise=0.3)
        bad_fix = {j: (1.5, 0.0) for j in range(4)}  # slope row sums to 1.5
        with pytest.raises(DataError, match="infeasible fixing"):
            irls_fit(ds, equal_weight_system, fixed=bad_fix)

    @pytest.mark.parametrize("pinned", [[0], [0, 1, 2, 3]])
    def test_nan_pin_is_rejected(self, rng, equal_weight_system, pinned):
        ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=100, noise=0.3)
        fixed = {j: (float("nan"), 0.0) for j in pinned}
        with pytest.raises(DataError, match="finite"):
            irls_fit(ds, equal_weight_system, fixed=fixed)

    def test_market_match_requires_prior(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=100, noise=0.3)
        with pytest.raises(DataError, match="prior"):
            recalibrate_with_traded(
                ds,
                equal_weight_system,
                market_match=MarketMatch(child_index=0, traded_price=50.0, parent_quote=49.0),
            )

    def test_recalibration_requires_a_market_match(self, rng, equal_weight_system):
        ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=100, noise=0.3)
        prior = irls_fit(ds, equal_weight_system)
        with pytest.raises(DataError, match="market match and the prior"):
            recalibrate_with_traded(ds, equal_weight_system, prior=prior)

    @pytest.mark.parametrize("child", [4, -1, 2.0])
    def test_market_match_child_out_of_range(self, rng, equal_weight_system, child):
        ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=100, noise=0.3)
        prior = irls_fit(ds, equal_weight_system)
        match = MarketMatch(child_index=child, traded_price=50.0, parent_quote=49.0)
        with pytest.raises(DataError, match=f"^market match child_index must be an integer >= 0 and < 4, not {child!r}$"):
            recalibrate_with_traded(ds, equal_weight_system, market_match=match, prior=prior)

    def test_market_match_rejects_nan_traded_price(self):
        with pytest.raises(DataError, match="finite"):
            MarketMatch(child_index=0, traded_price=float("nan"), parent_quote=49.0)

    def test_market_match_rejects_infinite_parent_quote(self):
        with pytest.raises(DataError, match="finite"):
            MarketMatch(child_index=0, traded_price=50.0, parent_quote=float("inf"))


class TestCalendarLevels:
    def test_daytype_split_weights(self):
        month = month_period(2014, 4)  # April 2014: 22 weekdays, 4 Sat, 4 Sun
        split = daytype_split(month)
        assert split.child_labels == ("M-2014-04:WD", "M-2014-04:SAT", "M-2014-04:SUN")
        np.testing.assert_allclose(split.weights, np.array([22, 4, 4]) / 30.0, atol=1e-15)

    @given(st.integers(1, 9998), st.integers(1, 12))
    @settings(max_examples=200)
    def test_daytype_split_weights_are_the_day_shares(self, year, month):
        period = month_period(year, month)
        days = [0, 0, 0]  # the oracle: a walk over every day, Monday-Friday, Saturday, Sunday
        day = period.start.date()
        while day < period.end.date():
            days[max(day.weekday() - 4, 0)] += 1
            day += timedelta(days=1)
        np.testing.assert_array_equal(daytype_split(period).weights, np.array(days, dtype=float) / sum(days))

    def test_hour_split(self):
        split = hour_split("M-2014-04:SAT")
        assert split.n_children == 24
        assert split.child_labels[3] == "M-2014-04:SAT:H03"
        np.testing.assert_allclose(split.weights, 1 / 24, atol=1e-15)


class TestCascadeConfig:
    def test_roundtrip(self, rng):
        top = random_level(rng, "CAL-2014", ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"])
        casc = ShapingCascade(root="CAL-2014", level_names=["YtQ"], levels=[{"CAL-2014": top}])
        config = cascade_to_config(casc)
        clone = cascade_from_config(config)
        assert clone.root == casc.root
        np.testing.assert_allclose(
            clone.levels[0]["CAL-2014"].coefficients, top.coefficients, atol=1e-15
        )

    def test_missing_coefficients_rejected(self):
        config = {
            "root": "CAL-2014",
            "levels": [
                {
                    "name": "YtQ",
                    "splits": [
                        {"parent": "CAL-2014", "children": ["Q1-2014", "Q2-2014", "Q3-2014", "Q4-2014"]}
                    ],
                }
            ],
        }
        with pytest.raises(DataError, match="coefficients"):
            cascade_from_config(config)

    def test_unchained_level_rejected(self, rng):
        lv = random_level(rng, "SOMEWHERE", ["a", "b"])
        with pytest.raises(DataError, match="chained"):
            ShapingCascade(root="ROOT", level_names=["L"], levels=[{"SOMEWHERE": lv}])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ShapingCascade(root="CAL-2014", level_names=["YtQ"], levels=[]), "^level names and level maps disagree"),
        (lambda: MarketMatch(child_index=0, traded_price=50.0, parent_quote=0.0), "^zero parent quote$"),
        (lambda: daytype_split(year_period(2014)), "^day-type split needs a month parent$"),
        (lambda: cascade_from_config({"root": "CAL-2014"}), "^cascade config needs 'root' and 'levels': 'levels'$"),
    ],
    ids=["level-names", "zero-quote", "daytype-parent", "no-levels"],
)
def test_malformed_shaping_inputs_are_data_errors(make, message):
    with pytest.raises(DataError, match=message):
        make()


def _two_child_cascade(children=("base", "offpeak")):
    split = {"parent": "B", "children": list(children), "weights": [0.5, 0.5], "coefficients": [[1.0, 0.0]] * 2}
    return {"root": "B", "levels": [{"name": "L", "splits": [split]}]}


@pytest.mark.parametrize("label", ["base,peak", 'base"peak', "base\rpeak", "base\npeak"])
def test_cascade_labels_must_fit_one_csv_field(label):
    # predict writes each label unquoted as the first field of a CSV row
    cascade_from_config(_two_child_cascade())
    with pytest.raises(DataError, match=f"^cascade level 0 label {re.escape(repr(label))} must be a string with no"):
        cascade_from_config(_two_child_cascade(children=(label, "offpeak")))
    with pytest.raises(DataError, match=f"^cascade config 'root' must be .*: {re.escape(repr(label))}$"):
        cascade_from_config({"root": label, "levels": []})
