"""Tests for the robust scalar kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curveshape.robust import (
    BISQUARE_K,
    HAMPEL_A,
    HAMPEL_B,
    HAMPEL_R,
    WeightFunctionSpec,
    bisquare_loss,
    bisquare_weight,
    hampel_weight,
    mad_scale,
    qn_scale,
)


def qn_factor(n):
    """Consistency times finite-sample correction, as the Qn definition gives them."""
    if n <= 9:
        corr = {2: 0.399, 3: 0.994, 4: 0.512, 5: 0.844, 6: 0.611, 7: 0.857, 8: 0.669, 9: 0.872}[n]
    elif n % 2 == 1:
        corr = n / (n + 1.4)
    else:
        corr = n / (n + 3.8)
    return 2.2219 * corr


def qn_bruteforce(values):
    """Independent pairwise enumeration with the same correction factors."""
    v = np.asarray(values, float)
    n = v.size
    diffs = sorted(abs(v[i] - v[j]) for i in range(n) for j in range(i + 1, n))
    h = n // 2 + 1
    return qn_factor(n) * diffs[h * (h - 1) // 2 - 1]


def qn_partition_oracle(values):
    """The same statistic from all n (n - 1) / 2 pairs, partitioned in numpy."""
    v = np.asarray(values, float)
    n = v.size
    i, j = np.triu_indices(n, k=1)
    h = n // 2 + 1
    k = h * (h - 1) // 2
    return qn_factor(n) * np.partition(np.abs(v[i] - v[j]), k - 1)[k - 1]


class TestMadScale:
    def test_constant(self):
        assert mad_scale([7, 7, 7, 7]) == 0.0

    def test_known_value(self):
        # median 3, absolute deviations {2,1,0,1,2}, median 1, times 1.4826
        assert mad_scale([1, 2, 3, 4, 5]) == pytest.approx(1.4826, abs=1e-12)

    def test_homogeneity(self, rng):
        v = rng.standard_normal(31)
        assert mad_scale(2.0 * v) == pytest.approx(2.0 * mad_scale(v), rel=1e-12)

    def test_translation_and_scale_invariance(self, rng):
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(2, 40)))
            s, t = float(rng.uniform(-3, 3)), float(rng.uniform(-10, 10))
            if s == 0:
                continue
            assert mad_scale(s * v + t) == pytest.approx(abs(s) * mad_scale(v), rel=1e-12, abs=1e-300)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate sample"):
            mad_scale([1.0])
        with pytest.raises(ValueError, match="degenerate sample"):
            mad_scale(np.ones((1, 3)), axis=0)

    def test_axis_matches_per_column(self, rng):
        for n in (2, 3, 10, 11, 250):
            m = 50.0 + rng.standard_normal((n, 5)) * rng.uniform(0.1, 10.0, 5)
            m[:, 0] = 7.5  # a constant column scales to exactly zero
            columns = mad_scale(m, axis=0)
            assert columns.shape == (5,)
            np.testing.assert_array_equal(columns, [mad_scale(m[:, k]) for k in range(5)])
            np.testing.assert_array_equal(mad_scale(m.T, axis=1), columns)


class TestQnScale:
    def test_constant(self):
        assert qn_scale([4.2, 4.2, 4.2, 4.2]) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 10, 17, 50, 101, 200])
    def test_matches_bruteforce(self, n, rng):
        for _ in range(5):
            v = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
            assert qn_scale(v) == qn_bruteforce(v)

    def test_invariance(self, rng):
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(2, 60)))
            s, t = float(rng.uniform(0.1, 5)), float(rng.uniform(-20, 20))
            assert qn_scale(s * v + t) == pytest.approx(s * qn_scale(v), rel=1e-12, abs=1e-300)

    def test_normal_consistency(self):
        # desk-scale version of the large-sample consistency check
        values = []
        for seed in range(40):
            sample = np.random.default_rng(seed).standard_normal(2000)
            values.append(qn_scale(sample))
        assert abs(np.mean(values) - 1.0) < 0.05

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate sample"):
            qn_scale([3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite sample"):
            qn_scale(np.r_[np.arange(20.0), bad])

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 2000),
        kind=st.sampled_from(["normal", "ties", "ticks", "runs", "magnitudes", "constant"]),
    )
    def test_matches_partition_oracle_and_ignores_order(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            v = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        elif kind == "ties":
            v = rng.integers(0, 6, n).astype(float)
        elif kind == "ticks":  # prices on a 0.01 grid around the desk level
            v = np.round(50.0 + 5.0 * rng.standard_normal(n), 2)
        elif kind == "runs":
            v = np.repeat(rng.standard_normal(n), rng.integers(1, 40, n))[:n]
        elif kind == "magnitudes":
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        else:
            v = np.full(n, rng.uniform(-100.0, 100.0))
        expected = qn_partition_oracle(v)
        assert qn_scale(v) == expected
        assert qn_scale(rng.permutation(v)) == expected
        if kind == "constant":
            assert expected == 0.0

    @settings(max_examples=150)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=80))
    def test_matches_partition_oracle_on_any_finite_floats(self, values):
        # covers signed zeros, subnormals and differences that overflow to inf
        with np.errstate(over="ignore"):
            assert qn_scale(values) == qn_partition_oracle(values)

    def test_memory_is_linear(self):
        values = np.round(50.0 + 5.0 * np.random.default_rng(6).standard_normal(6000), 2)
        tracemalloc.start()
        try:
            qn_scale(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # all 17,997,000 pairs as float64 alone take 137 MB


class TestHampelWeight:
    def test_flat_region(self):
        assert hampel_weight(0.0) == 1.0
        assert hampel_weight(1.6449) == 1.0

    def test_third_branch_value(self):
        expected = ((2.3263 - 2.0) / (2.3263 - 1.9600)) * (1.6449 / 2.0)
        assert hampel_weight(2.0) == pytest.approx(expected, abs=1e-12)
        assert hampel_weight(2.0) == pytest.approx(0.7326, abs=1e-3)

    def test_beyond_r(self):
        assert hampel_weight(3.0) == 0.0

    def test_continuity_at_cutoffs(self):
        for c in (HAMPEL_A, HAMPEL_B, HAMPEL_R):
            below = hampel_weight(c - 1e-9)
            above = hampel_weight(c + 1e-9)
            assert abs(below - above) < 1e-6

    def test_even_and_bounded(self, rng):
        x = rng.uniform(-6, 6, 200)
        w = hampel_weight(x)
        assert np.all((0.0 <= w) & (w <= 1.0))
        np.testing.assert_allclose(w, hampel_weight(-x), atol=1e-15)


def hampel_weight_select(x):
    """Reference: the three-branch ``np.select`` form of the Hampel weight."""
    a, b, r = HAMPEL_A, HAMPEL_B, HAMPEL_R
    ax = np.abs(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):
        hyperbolic = np.where(ax > 0, a / np.where(ax > 0, ax, 1.0), 1.0)
        return np.select(
            [ax <= a, ax <= b, ax <= r],
            [1.0, hyperbolic, (r - ax) / (r - b) * hyperbolic],
            default=0.0,
        )


def bisquare_weight_where(x):
    """Reference: the ``np.where`` form of the bisquare weight."""
    xa = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return np.where(np.abs(xa) <= BISQUARE_K, (1.0 - (xa / BISQUARE_K) ** 2) ** 2, 0.0)


def _edges(*cutoffs):
    points = [0.0, np.inf]
    for c in cutoffs:
        points += [c, np.nextafter(c, 0.0), np.nextafter(c, np.inf)]
    return np.array(points + [-p for p in points])


class TestSelectFreeWeights:
    """The clipped forms equal the branch-selecting references exactly."""

    CASES = [
        (hampel_weight, hampel_weight_select, (HAMPEL_A, HAMPEL_B, HAMPEL_R)),
        (bisquare_weight, bisquare_weight_where, (BISQUARE_K,)),
    ]

    @pytest.mark.parametrize("weight,reference,cutoffs", CASES)
    def test_cutoffs_and_their_neighbours(self, weight, reference, cutoffs):
        x = _edges(*cutoffs)
        np.testing.assert_array_equal(weight(x), reference(x))
        assert [weight(float(v)) for v in x] == list(reference(x))

    @pytest.mark.parametrize("weight,reference,cutoffs", CASES)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_floats(self, weight, reference, cutoffs, x):
        assert weight(x) == reference(x)


class TestBisquare:
    def test_loss_at_zero(self):
        assert bisquare_loss(0.0, 2.0) == 0.0

    def test_loss_plateau(self):
        k = 2.0
        assert bisquare_loss(k, k) == pytest.approx(k * k / 6.0)
        assert bisquare_loss(5.0, k) == k * k / 6.0
        assert bisquare_loss(-17.0, k) == k * k / 6.0

    def test_loss_known_value(self):
        # x = k/2, k = 2: (4/6)(1 - (1 - 0.25)^3)
        assert bisquare_loss(1.0, 2.0) == pytest.approx((4 / 6) * (1 - 0.75**3), abs=1e-12)

    def test_loss_even_nondecreasing(self, rng):
        k = 3.0
        x = np.sort(rng.uniform(0, 6, 100))
        losses = bisquare_loss(x, k)
        assert np.all(np.diff(losses) >= -1e-15)
        np.testing.assert_allclose(bisquare_loss(-x, k), losses, atol=1e-15)

    def test_weight_boundaries(self):
        assert bisquare_weight(0.0) == 1.0
        assert bisquare_weight(BISQUARE_K) == 0.0
        assert bisquare_weight(5.0) == 0.0

    def test_weight_is_rescaled_loss_derivative(self):
        # psi = d/dx loss, weight = psi / x, checked by central differences
        k = BISQUARE_K
        h = 1e-6
        for x in np.linspace(0.2, k - 0.2, 25):
            psi = (bisquare_loss(x + h, k) - bisquare_loss(x - h, k)) / (2 * h)
            assert x * bisquare_weight(x) == pytest.approx(psi, rel=1e-6)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            bisquare_loss(1.0, 0.0)


class TestWeightFunctionSpec:
    def test_invalid_cutoffs(self):
        with pytest.raises(ValueError):
            WeightFunctionSpec("huber")

    def test_dispatch(self):
        assert WeightFunctionSpec("hampel").weight(0.0) == 1.0
        assert WeightFunctionSpec("bisquare").weight(0.0) == 1.0
        assert WeightFunctionSpec("bisquare").weight(5.0) == 0.0
