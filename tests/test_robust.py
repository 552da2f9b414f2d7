"""Tests for the robust scalar kernels."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curveshape import robust
from curveshape.exceptions import DataError
from curveshape.robust import (
    BISQUARE_K,
    HAMPEL_A,
    HAMPEL_B,
    HAMPEL_R,
    MAD_CONSISTENCY,
    WeightFunctionSpec,
    _first_column,
    _median,
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


def tick_sample(n, seed=6):
    """Desk-level prices on a 0.01 grid."""
    return np.round(50.0 + 5.0 * np.random.default_rng(seed).standard_normal(n), 2)


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
        with pytest.raises(DataError, match="degenerate sample"):
            mad_scale([1.0])
        with pytest.raises(DataError, match="degenerate sample"):
            mad_scale(np.ones((1, 3)), axis=0)

    def test_axis_matches_per_column(self, rng):
        for n in (2, 3, 10, 11, 250):
            m = 50.0 + rng.standard_normal((n, 5)) * rng.uniform(0.1, 10.0, 5)
            m[:, 0] = 7.5  # a constant column scales to exactly zero
            columns = mad_scale(m, axis=0)
            assert columns.shape == (5,)
            np.testing.assert_array_equal(columns, [mad_scale(m[:, k]) for k in range(5)])
            np.testing.assert_array_equal(mad_scale(m.T, axis=1), columns)


# Ties, signed zeros, values whose pair sums stay finite and a subnormal.
MEDIAN_POOL = np.array([0.0, -0.0, 1.0, 1.0, -1.0, 2.5, 1e300, -1e300, 5e-324, -3.75])


class TestMedianKernel:
    """The partition kernel equals ``np.median`` by ``==``: a zero median may
    differ in sign only, and every use subtracts it before ``|.|`` or a norm."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_numpy_1d_and_along_axis_0(self, n, rng):
        pooled = (rng.choice(MEDIAN_POOL, n), rng.choice(MEDIAN_POOL, (n, 6)))
        for v in (*pooled, rng.standard_normal((n, 3))):
            np.testing.assert_array_equal(_median(v), np.median(v, axis=0))

    @given(arrays(np.float64, st.integers(1, 60),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_matches_numpy_on_any_finite_floats(self, v):
        m = np.column_stack([v, v[::-1]])
        with np.errstate(over="ignore"):  # two middle values may sum past the largest float
            assert _median(v) == np.median(v)
            np.testing.assert_array_equal(_median(m), np.median(m, axis=0))

    @staticmethod
    def fit_size(n, rng):
        """An (n, 24) array like a fit's residual columns: normal, 0.01 ticks at 50 and
        ``MEDIAN_POOL`` draws, the last three holding 1, n // 2 and n NaNs."""
        m = np.column_stack([
            rng.standard_normal((n, 8)),
            np.round(50.0 + 5.0 * rng.standard_normal((n, 6)), 2),
            rng.choice(MEDIAN_POOL, (n, 10)),
        ])
        for col, count in zip((21, 22, 23), (1, n // 2, n)):
            m[rng.choice(n, count, replace=False), col] = np.nan
        return m

    @pytest.mark.parametrize("n", [364, 365, 999, 1000])
    def test_fit_sizes_match_numpy(self, n, rng):
        m = self.fit_size(n, rng)
        median = np.median(m, axis=0)
        np.testing.assert_array_equal(_median(m), median)
        assert np.isnan(median[21:]).all() and not np.isnan(median[:21]).any()
        mad = MAD_CONSISTENCY * np.median(np.abs(m - median), axis=0)
        np.testing.assert_array_equal(mad_scale(m, axis=0), mad)

    def test_nan_gives_nan_like_numpy(self):
        m = np.array([[1.0, 2.0], [np.nan, 3.0], [0.5, 4.0], [2.0, 5.0]])
        np.testing.assert_array_equal(_median(m), np.median(m, axis=0))
        assert np.isnan(_median(m[:, 0])) and np.isnan(mad_scale(m[:, 0]))


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

    @pytest.mark.parametrize("values", [
        [0.0, -0.0],
        [-0.0, 0.0, -0.0],
        np.r_[np.zeros(600), -np.zeros(600)],  # returned from a round, not the gather
    ])
    def test_zero_scale_is_positive_zero(self, values):
        # np.sort may leave -0.0 after 0.0, and -0.0 - 0.0 keeps the sign; == cannot tell
        qn = qn_scale(values)
        assert qn == 0.0 and not np.signbit(qn)

    def test_degenerate(self):
        with pytest.raises(DataError, match="degenerate sample"):
            qn_scale([3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(DataError, match="non-finite sample"):
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
            qn, expected = qn_scale(values), qn_partition_oracle(values)
        assert qn == expected and np.signbit(qn) == np.signbit(expected)

    def test_memory_is_linear(self):
        values = tick_sample(6000)
        tracemalloc.start()
        try:
            qn_scale(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # all 17,997,000 pairs as float64 alone take 137 MB


def first_column_scan(y, rows, lo, hi, trial, strict):
    """Reference: per row, a linear scan of the window for the first difference not below
    (``strict``) or not at most ``trial``."""
    out = hi.copy()
    for t, (i, a, b) in enumerate(zip(rows, lo, hi)):
        diffs = y[a:b] - y[i]
        past = np.flatnonzero(diffs >= trial if strict else diffs > trial)
        if past.size:
            out[t] = a + past[0]
    return out


class TestFirstColumn:
    """The checked ``searchsorted`` counts equal a linear scan of each row."""

    FAMILIES = {
        "grid": lambda rng, n: np.round(50.0 + 5.0 * rng.standard_normal(n), 1),
        "magnitudes": lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n),
        "ties": lambda rng, n: rng.integers(0, 6, n).astype(float),
        "extremes": lambda rng, n: rng.choice([-1e308, -3e307, -1.0, 0.0, 1e-300, 2.5, 1e308], n),
    }

    def check(self, family, rng):
        n = 120
        y = np.sort(self.FAMILIES[family](rng, n))
        rows = np.arange(n - 1)
        lo = rows + 1 + (rng.integers(0, n, n - 1) % (n - rows))
        hi = lo + (rng.integers(0, n, n - 1) % (n - lo + 1))
        for a, b in rng.integers(0, n, (8, 2)):
            diff = y[max(a, b)] - y[min(a, b)]
            for trial in (diff, np.nextafter(diff, -np.inf), np.nextafter(diff, np.inf)):
                for strict in (True, False):
                    np.testing.assert_array_equal(
                        _first_column(y, rows, lo, hi, trial, strict),
                        first_column_scan(y, rows, lo, hi, trial, strict),
                    )

    @pytest.mark.parametrize("family", ["magnitudes", "ties"])
    def test_matches_linear_scan(self, family, rng):
        for _ in range(10):
            self.check(family, rng)

    def test_extremes_match_linear_scan(self, rng):
        with np.errstate(over="ignore"):  # differences of +-1e308 overflow to inf
            for _ in range(10):
                self.check("extremes", rng)

    def test_rejected_guesses_are_bisected(self, rng, monkeypatch):
        # on a 0.1 grid, y[i] + trial rounds across ties often enough to misplace guesses
        bisected = []
        bisect = robust._bisect_columns

        def spy(y, rows, *args):
            bisected.append(rows.size)
            return bisect(y, rows, *args)

        monkeypatch.setattr(robust, "_bisect_columns", spy)
        for _ in range(10):
            self.check("grid", rng)
        assert sum(bisected) > 0


def sorted_differences(values):
    """Every ``y[j] - y[i]``, ``j > i``, of the sorted sample, computed as the kernel computes
    them, in ascending order, with the rank k that Qn selects."""
    y = np.sort(np.asarray(values, float))
    i, j = np.triu_indices(y.size, k=1)
    h = y.size // 2 + 1
    return np.sort(y[j] - y[i]), h * (h - 1) // 2


def branch(diffs, k, low, high):
    """Where a round's two trials land, from the full set of differences: on either side
    of rank k (``"hit"``), both below it (``"low"``, the high trial missed), both above it
    (``"high"``, the low trial missed), or on the k-th value itself (``"tie"``)."""
    if np.searchsorted(diffs, low, side="right") < k:  # count(<= low) < k
        return "hit" if np.searchsorted(diffs, high, side="left") >= k else "low"
    return "high" if np.searchsorted(diffs, low, side="left") >= k else "tie"


class TestSubsampleBracket:
    """Each branch of a round, whose two trials bracket rank k from an evenly spaced
    sample of the candidates, and the Qn it leads to, equal to the partition oracle."""

    CASES = [
        # at most C(10, 2) = 45 pairs, under the gather threshold: no round
        ("none", np.arange(9.0)),
        ("none", np.arange(10.0)),
        ("none", np.array([0.0, 0, 0, 1, 1, 1, 2, 2, 2, 2])),
        ("none", np.r_[np.zeros(5), np.ones(5)]),
        ("hit", np.random.default_rng(3).standard_normal(1000)),
        # the k-th difference, 1, sits 750 ranks above the 124,500 zeros, inside the
        # sample's spread, so the high trial is 1 too and removes only the zeros
        ("low", np.arange(1000.0) // 250),
        # the k-th difference is one of 35,200 equal to 3, and so is the low trial
        ("tie", np.arange(1000.0) // 40),
        # every difference is 0: the first count removes nothing, the second returns
        ("tie", np.full(1000, 3.7)),
    ]

    @staticmethod
    def rounds(values, monkeypatch):
        """Qn of ``values`` with each pass's ``(low, high)`` trials and whether the
        weighted median of the row medians gave them."""
        passes = []
        sampled, weighted = robust._sampled_trials, robust._row_median_trial

        def sampled_spy(*args):
            low, high = sampled(*args)
            passes.append((low, high, False))
            return low, high

        def weighted_spy(*args):
            trial = weighted(*args)
            passes.append((trial, trial, True))
            return trial

        monkeypatch.setattr(robust, "_sampled_trials", sampled_spy)
        monkeypatch.setattr(robust, "_row_median_trial", weighted_spy)
        return qn_scale(values), passes

    @pytest.mark.parametrize("expected,values", CASES)
    def test_branch_and_result(self, expected, values, monkeypatch):
        qn, passes = self.rounds(values, monkeypatch)
        assert qn == qn_partition_oracle(values)
        diffs, k = sorted_differences(values)
        if expected == "none":
            assert passes == []
        else:
            low, high, fallback = passes[0]
            assert not fallback and branch(diffs, k, low, high) == expected

    def test_missed_high_trial_falls_back_to_the_weighted_median(self, monkeypatch):
        # the missed high trial keeps the 75% of candidates at or above 1, so the next pass
        # takes the weighted median of the row medians, which is 1 and returns it
        values = np.arange(1000.0) // 250
        qn, passes = self.rounds(values, monkeypatch)
        diffs, k = sorted_differences(values)
        assert [p[2] for p in passes] == [False, True]
        assert branch(diffs, k, *passes[1][:2]) == "tie"
        assert qn == qn_partition_oracle(values)

    FORCED = {  # 0-based ranks among the m remaining candidates, rank k at r
        "hit": lambda r, m: (r - 5, r + 5),
        "low": lambda r, m: (0, r // 2),
        "high": lambda r, m: ((r + m) // 2, m - 1),
        "tie": lambda r, m: (r, r),
    }

    @pytest.mark.parametrize("forced", list(FORCED))
    def test_any_trials_give_the_exact_value(self, forced, rng, monkeypatch):
        # trials read off the remaining candidates at forced ranks, in every round
        ranks = self.FORCED[forced]

        def trials(y, rows, lo, width, candidates, rank, size):
            cols = np.arange(candidates) - np.repeat(np.cumsum(width) - width - lo, width)
            remaining = np.sort(y[cols] - y[np.repeat(rows, width)])
            low, high = ranks(rank - 1, candidates)
            return remaining[max(low, 0)], remaining[min(high, candidates - 1)]

        monkeypatch.setattr(robust, "_sampled_trials", trials)
        values = rng.standard_normal(300)
        qn, passes = self.rounds(values, monkeypatch)
        diffs, k = sorted_differences(values)
        assert branch(diffs, k, *passes[0][:2]) == forced
        fallbacks = [p[2] for p in passes]
        if forced in ("low", "high"):  # a miss this far keeps over half the candidates
            assert fallbacks[:2] == [False, True]
        else:  # the tie returns; the 9 candidates between k-5 and k+5 go to the gather
            assert fallbacks == [False]
        assert qn == qn_partition_oracle(values)

    def test_small_tied_samples(self, rng):
        for _ in range(500):  # at most 78 pairs: straight to the gather
            v = rng.integers(0, 4, int(rng.integers(10, 14))).astype(float)
            assert qn_scale(v) == qn_partition_oracle(v)
        for _ in range(40):  # rounds run, and trial counts often land on rank k exactly
            v = rng.integers(0, int(rng.integers(2, 8)), int(rng.integers(130, 400))).astype(float)
            assert qn_scale(v) == qn_partition_oracle(v)


def hourly_sample(seed, days=365, hours=24):
    """Pooled day -> hour prices: a diurnal affine shape of a seasonal day price around 50,
    0.5 noise, and one hour spiked by 20 to 60 on a tenth of the days."""
    rng = np.random.default_rng([seed, 21])
    hour = np.arange(hours)
    slopes = 1.0 + rng.uniform(0.2, 0.35) * np.sin(2.0 * np.pi * (hour - 7) / hours)
    intercepts = rng.uniform(2.0, 4.0) * np.cos(2.0 * np.pi * (hour - 18) / hours)
    x = 50.0 + 8.0 * np.sin(2.0 * np.pi * np.arange(days) / 365.0) + 2.0 * rng.standard_normal(days)
    y = x[:, None] * slopes / slopes.mean() + intercepts - intercepts.mean()
    y += 0.5 * rng.standard_normal((days, hours))
    spiked = rng.choice(days, size=days // 10, replace=False)
    y[spiked, rng.integers(0, hours, spiked.size)] += rng.uniform(20.0, 60.0, spiked.size)
    return y.ravel()


def first_round(values):
    """The sorted sample and the first round's arguments: every row's whole window and rank k."""
    y = np.sort(np.asarray(values, float))
    n = y.size
    rows = np.arange(n - 1)
    width = n - 1 - rows
    h = n // 2 + 1
    return y, rows, rows + 1, width, int(width.sum()), h * (h - 1) // 2


class TestCountedBracket:
    """Above 2048 values the first round's trials come from counts over a subsample of rows;
    they never decide the value, and where the counts cannot be trusted the sampled trials
    stand in."""

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2049, 3500),
        kind=st.sampled_from(["normal", "ties", "cauchy", "bimodal", "half-constant", "cents", "hourly"]),
    )
    def test_matches_partition_oracle(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            v = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        elif kind == "ties":
            v = rng.integers(0, int(rng.integers(2, 51)), n).astype(float)
        elif kind == "cauchy":
            v = rng.standard_cauchy(n)
        elif kind == "bimodal":
            v = np.r_[rng.standard_normal(n // 2), rng.uniform(3.0, 30.0) + rng.standard_normal(n - n // 2)]
        elif kind == "half-constant":
            v = np.r_[np.full(n // 2, rng.uniform(-1.0, 1.0)), rng.standard_normal(n - n // 2)]
        elif kind == "cents":
            v = np.round(50.0 + 5.0 * rng.standard_normal(n), 2)
        else:
            v = hourly_sample(seed)[:n]
        assert qn_scale(v) == qn_partition_oracle(v)

    MISSES = {  # the forced first-round trials, from the sorted differences and rank k (1-based)
        "low": lambda diffs, k: (diffs[k // 4], diffs[k // 2]),
        "high": lambda diffs, k: (diffs[(k + diffs.size) // 2], diffs[-1]),
        "nan": lambda diffs, k: (np.nan, np.nan),
        "inf": lambda diffs, k: (np.inf, np.inf),
        "nan-inf": lambda diffs, k: (np.nan, np.inf),
        "finite-inf": lambda diffs, k: (diffs[k // 2], np.inf),
        "narrow": lambda diffs, k: (diffs[k - 500], diffs[k + 500]),  # within n / 2 of rank k
    }

    @pytest.mark.parametrize("miss", list(MISSES))
    def test_missed_trials_give_the_exact_value(self, miss, monkeypatch):
        values = np.random.default_rng(5).standard_normal(2100)
        diffs, k = sorted_differences(values)
        forced = self.MISSES[miss](diffs, k)
        if miss in ("low", "high"):
            assert branch(diffs, k, *forced) == miss
        calls = []

        def counted(*args):
            calls.append(args)
            return forced

        monkeypatch.setattr(robust, "_counted_trials", counted)
        assert qn_scale(values) == qn_partition_oracle(values)
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1e-305, 1e-310, 1e-315, 1e300])
    def test_extreme_scales_give_the_exact_value(self, scale):
        # differences near the subnormal range once made a count density overflow
        values = np.random.default_rng(4).standard_normal(2100) * scale
        assert qn_scale(values) == qn_partition_oracle(values)

    @pytest.mark.parametrize("miss", list(MISSES))
    def test_a_sample_bracket_that_misses_gives_no_trials(self, miss, monkeypatch):
        # the small sample bracket that starts regula falsi, forced; equal ends are the trials
        values = np.random.default_rng(5).standard_normal(2100)
        forced = self.MISSES[miss](*sorted_differences(values))
        sampled = robust._sampled_trials

        def small(*args):
            return forced if args[-1] == robust._ROWS else sampled(*args)

        monkeypatch.setattr(robust, "_sampled_trials", small)
        trials = robust._counted_trials(*first_round(values))
        if forced[0] == forced[1]:
            np.testing.assert_array_equal(trials, forced)
        else:
            assert trials is None

    @pytest.mark.parametrize("values", [
        np.r_[np.full(750, 0.3), np.random.default_rng(1).standard_normal(2250)],  # a run of 750 ties
        np.random.default_rng(1).integers(0, 50, 3000).astype(float),  # runs of about 60 ties
        TestFirstColumn.FAMILIES["magnitudes"](np.random.default_rng(4), 2500),  # rows dominate
    ], ids=["tie-run", "ties", "rows-disagree"])
    def test_untrusted_counts_give_no_trials(self, values):
        assert robust._counted_trials(*first_round(values)) is None

    @pytest.mark.parametrize("values", [
        tick_sample(2500, seed=28),
        tick_sample(3000, seed=35),
        tick_sample(2500, seed=1),
        np.round(hourly_sample(1)[:3000], 2),
    ], ids=["ticks-2500", "ticks-3000", "ticks-2500-1", "hourly-cents"])
    def test_trials_on_a_price_grid_hold_rank_k(self, values):
        # the estimate jumps across rank k at a cluster of differences near one grid value;
        # the trials are entries at and next to the jump, and the k-th value is never the
        # high trial, whose count with < would miss it
        diffs, k = sorted_differences(values)
        low, high = robust._counted_trials(*first_round(values))
        assert branch(diffs, k, low, high) in ("hit", "tie")
        assert np.searchsorted(diffs, high, side="left") >= k


class TestQnWork:
    """A work count, not a timing: row counts of one Qn on desk-level ticks and on the pooled
    hourly sample, raw and in cents, whose one counted round leaves few enough candidates
    to gather."""

    @pytest.mark.parametrize("n,passes", [(1000, 4), (8760, 2), (20000, 2)])
    def test_row_count_passes(self, n, passes, monkeypatch):
        assert self.row_counts(tick_sample(n), monkeypatch) == passes

    @pytest.mark.parametrize("n,seed", [(2223, 49), (3257, 189), (4781, 45)])
    def test_ticks_take_one_round(self, n, seed, monkeypatch):
        # on these grids plain regula falsi keeps landing beside the jump at rank k; Illinois
        # halves the far end's weight until a step crosses it
        assert self.row_counts(tick_sample(n, seed), monkeypatch) == 2

    @pytest.mark.parametrize("cents", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 10])
    def test_hourly_sample_takes_one_round(self, seed, cents, monkeypatch):
        # in cents, seeds 4 and 10 put the k-th value in a run of ties n / 2 or less above
        # the entries' estimate of rank k, so the high trial moves past that run
        values = hourly_sample(seed)
        assert self.row_counts(np.round(values, 2) if cents else values, monkeypatch) == 2

    @staticmethod
    def row_counts(values, monkeypatch):
        calls = []
        count = robust._first_column

        def spy(*args, **kwargs):
            calls.append(1)
            return count(*args, **kwargs)

        monkeypatch.setattr(robust, "_first_column", spy)
        qn_scale(values)
        return len(calls)


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


def hampel_closed_form(v: float) -> float:
    """Hampel's weight one piece at a time, in Python floats."""
    a, b, r = HAMPEL_A, HAMPEL_B, HAMPEL_R
    ax = abs(v)
    if math.isnan(ax):
        return math.nan
    if ax <= a:
        return 1.0
    if ax <= b:
        return a / ax
    if ax <= r:
        return (a / ax) * ((r - ax) / (r - b))
    return 0.0


def bisquare_closed_form(v: float) -> float:
    """(1 - (x/k)^2)^2 inside the cutoff and 0 outside, in Python floats."""
    ax = abs(v)
    if math.isnan(ax):
        return math.nan
    if ax > BISQUARE_K:
        return 0.0
    u = ax / BISQUARE_K
    return (1.0 - u * u) * (1.0 - u * u)


def float_bits(values) -> list[int]:
    """The IEEE bit patterns, signed zeros apart and every NaN as one pattern."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64).tolist()


class TestClosedForms:
    """Bit for bit against the piecewise definitions, and warning-free, at the edges."""

    GRID = [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan] + [
        point
        for c in (HAMPEL_A, -HAMPEL_A, HAMPEL_B, HAMPEL_R, BISQUARE_K)
        for point in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf))
    ]

    @pytest.mark.parametrize(
        "weight,closed_form", [(hampel_weight, hampel_closed_form), (bisquare_weight, bisquare_closed_form)]
    )
    def test_edge_grid(self, weight, closed_form):
        expected = float_bits([closed_form(v) for v in self.GRID])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array_out = weight(np.array(self.GRID))
            scalar_out = [weight(v) for v in self.GRID]
        assert float_bits(array_out) == expected
        assert float_bits(scalar_out) == expected


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
        with pytest.raises(DataError):
            bisquare_loss(1.0, 0.0)


class TestWeightFunctionSpec:
    def test_invalid_cutoffs(self):
        with pytest.raises(DataError):
            WeightFunctionSpec("huber")

    def test_dispatch(self):
        assert WeightFunctionSpec("hampel").weight(0.0) == 1.0
        assert WeightFunctionSpec("bisquare").weight(0.0) == 1.0
        assert WeightFunctionSpec("bisquare").weight(5.0) == 0.0
