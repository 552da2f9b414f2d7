"""Tests for the constrained robust estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EQUAL_WEIGHTS, arbitrage_free_gamma, synthetic_dataset
from curveshape import (
    Dataset,
    FitConfig,
    SyntheticMarketConfig,
    WeightFunctionSpec,
    build_regression_dataset,
    classical_fit,
    constraints_for_weights,
    irls_fit,
    outlier_report,
    penalized_wls_solve,
    synthesize_market,
)
from curveshape import estimator
from curveshape.constraints import arbitrage_gap
from curveshape.estimator import (
    FEASIBILITY_TOLERANCE,
    _initial_weights,
    _residual_distances,
    gamma_from_report,
    ratio_average_result,
)
from curveshape.exceptions import DataError, DegenerateScaleWarning, NumericalError
from curveshape.robust import BISQUARE_K, HAMPEL_A, HAMPEL_B, HAMPEL_R, MAD_CONSISTENCY, mad_scale, qn_scale


def initial_weights(dataset):
    return _initial_weights(dataset, WeightFunctionSpec())[0]


def residual_distances(residuals):
    return _residual_distances(residuals)[0]


def zero_qn_dataset():
    """x = 1..9 with 6 of the 9 response rows at 5.0 in every column: the pooled Qn is 0."""
    x = np.arange(1.0, 10.0)
    y = np.tile(x[:, None], (1, 4))
    y[:6] = 5.0
    return Dataset(x=x, y=y)


def ols_slope_intercept(x, y):
    slope = np.cov(x, y, bias=True)[0, 1] / np.var(x)
    return slope, np.mean(y) - slope * np.mean(x)


class TestDataset:
    def test_validation(self):
        with pytest.raises(DataError, match="at least 3"):
            Dataset(x=np.array([1.0, 2.0]), y=np.ones((2, 2)))
        with pytest.raises(DataError, match="constant"):
            Dataset(x=np.full(5, 3.0), y=np.ones((5, 2)))
        with pytest.raises(DataError, match="non-finite"):
            Dataset(x=np.array([1.0, 2.0, np.nan]), y=np.ones((3, 2)))
        with pytest.raises(DataError, match="case_ids"):
            Dataset(x=np.arange(3.0), y=np.ones((3, 2)), case_ids=["a"])
        # finite prices whose spread, or its square, overflows a float
        with pytest.raises(NumericalError, match="spread too wide"):
            Dataset(x=np.array([-1e308, 0.0, 1e308]), y=np.ones((3, 2)))
        with pytest.raises(NumericalError, match="spread too wide"):
            Dataset(x=np.array([0.0, 1e155, 2e155]), y=np.ones((3, 2)))
        with pytest.raises(NumericalError, match="spread too wide"):
            Dataset(x=np.arange(3.0), y=np.array([[0.0, 1e308], [0.0, -1e308], [1.0, 1.0]]))

    def test_default_ids_and_vector_y(self):
        ds = Dataset(x=np.arange(4.0), y=np.arange(4.0))
        assert ds.n_children == 1
        assert len(ds.case_ids) == 4


class TestInitialWeights:
    def test_identical_cases_fall_back_to_unit(self):
        ds = Dataset(x=np.array([1.0, 1.0, 1.0, 2.0]), y=np.ones((4, 2)))
        with pytest.warns(DegenerateScaleWarning):
            w = initial_weights(ds)
        # zero dispersion in y means no case is an outlier in y
        assert np.all(w[:3] == 1.0)

    def test_extreme_x_gets_zero(self, rng):
        x = np.concatenate([rng.normal(50, 1.0, 40), [50 + 100 * 1.0]])
        y = np.tile(x[:, None], (1, 3)) + rng.normal(0, 0.5, (41, 3))
        w = initial_weights(Dataset(x=x, y=y))
        assert w[-1] == 0.0

    def test_scale_invariance(self, rng):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=80)
        w1 = initial_weights(ds)
        for s in (0.25, 2.0, 128.0):  # power-of-two scalings leave floats untouched
            ds2 = Dataset(x=s * ds.x, y=s * ds.y, case_ids=list(ds.case_ids))
            np.testing.assert_array_equal(initial_weights(ds2), w1)
        for s in (3.0, 117.0):
            ds2 = Dataset(x=s * ds.x, y=s * ds.y, case_ids=list(ds.case_ids))
            np.testing.assert_allclose(initial_weights(ds2), w1, atol=1e-12)


class TestResidualDistances:
    def test_zeros(self):
        with pytest.warns(DegenerateScaleWarning):
            d = residual_distances(np.zeros((5, 3)))
        np.testing.assert_array_equal(d, 0.0)

    def test_k1_reduces_to_univariate(self, rng):
        r = rng.standard_normal((40, 1))
        centered = r[:, 0] - np.median(r[:, 0])
        mad = 1.4826 * np.median(np.abs(centered))
        np.testing.assert_allclose(residual_distances(r), np.abs(centered) / mad, atol=1e-12)

    def test_column_shift_invariance(self, rng):
        r = rng.standard_normal((30, 4))
        shifted = r + np.array([10.0, -3.0, 0.5, 100.0])
        np.testing.assert_allclose(residual_distances(r), residual_distances(shifted), atol=1e-10)

    def test_degenerate_column(self, rng):
        r = rng.standard_normal((20, 2))
        r[:, 1] = 7.7
        with pytest.warns(DegenerateScaleWarning):
            d = residual_distances(r)
        assert np.all(np.isfinite(d))

    @pytest.mark.parametrize("n", [30, 31])
    def test_folded_mad_equals_mad_scale(self, n, rng):
        # one median per column; for even N the MAD must not re-round
        r = 50.0 + rng.standard_normal((n, 4)) * rng.uniform(0.1, 10.0, 4)
        _, scales, degenerate = _residual_distances(r)
        np.testing.assert_array_equal(scales, mad_scale(r, axis=0))
        assert not degenerate


class TestDegenerateScaleWarnings:
    """Degenerate scales warn at the line that called ``irls_fit``."""

    @staticmethod
    def degenerate_start():
        # 6 of 9 response rows equal the column medians, so the y scale of the
        # starting weights is 0; the penalized pass misses the tolerance.
        y = np.tile([4.0, 5.0, 6.0, 5.0], (9, 1))
        y[6:] = [[9.0, 8.0, 7.0, 6.0], [6.0, 9.0, 8.0, 7.0], [7.0, 6.0, 9.0, 8.0]]
        return Dataset(x=np.arange(1.0, 10.0), y=y)

    def test_names_the_caller_and_the_start_warns_once(self, equal_weight_system):
        with pytest.warns(DegenerateScaleWarning) as record:
            result = irls_fit(self.degenerate_start(), equal_weight_system)
        assert np.isinf(result.alpha_used)  # the exact-limit retry ran
        degenerate = [w for w in record if w.category is DegenerateScaleWarning]
        assert [w.filename for w in degenerate] == [__file__]
        assert "initial" in str(degenerate[0].message)

    def test_residual_scale_names_the_caller(self, rng, equal_weight_system):
        ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=40, noise=0.0)
        with pytest.warns(DegenerateScaleWarning, match="residual") as record:
            irls_fit(ds, equal_weight_system)
        assert {w.filename for w in record if w.category is DegenerateScaleWarning} == {__file__}


class TestPenalizedSolve:
    def test_alpha_zero_is_columnwise_ols(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=60)
        solution = penalized_wls_solve(ds.x, ds.y, np.ones(60), equal_weight_system, 0.0)
        for k in range(4):
            slope, intercept = ols_slope_intercept(ds.x, ds.y[:, k])
            assert solution[2 * k] == pytest.approx(slope, abs=1e-8)
            assert solution[2 * k + 1] == pytest.approx(intercept, abs=1e-8)

    def test_exact_recovery_any_alpha(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=50, noise=0.0)
        for alpha in (0.0, 1.0, 1e6):
            solution = penalized_wls_solve(ds.x, ds.y, np.ones(50), equal_weight_system, alpha)
            np.testing.assert_allclose(solution, gamma, atol=1e-10)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-320, 1e-310])
    def test_penalty_below_rounding_is_the_alpha_zero_limit(self, rng, equal_weight_system, alpha):
        # G / alpha overflows a float: the solve returns the alpha = 0 pairs, bit for bit
        ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=60)
        w = rng.uniform(0.2, 1.0, 60)
        ols = penalized_wls_solve(ds.x, ds.y, w, equal_weight_system, 0.0)
        np.testing.assert_array_equal(penalized_wls_solve(ds.x, ds.y, w, equal_weight_system, alpha), ols)

    def test_a_singular_penalized_system_is_a_numerical_error(self, rng, equal_weight_system, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=20)
        with pytest.raises(NumericalError, match="penalized solve failed: Singular matrix"):
            penalized_wls_solve(ds.x, ds.y, np.ones(20), equal_weight_system, 1.0)

    def test_matches_bruteforce_minimizer(self, rng):
        from scipy import optimize

        for _ in range(5):
            k = int(rng.integers(1, 3))
            n = int(rng.integers(5, 20))
            x = rng.standard_normal(n)
            y = rng.standard_normal((n, k))
            w = rng.uniform(0.2, 1.0, n)
            hw = rng.uniform(0.5, 1.5, k)
            system = constraints_for_weights(hw / hw.sum())
            alpha = float(rng.choice([0.0, 1.0, 1e3]))
            gamma = penalized_wls_solve(x, y, w, system, alpha)

            def objective(g):
                resid = w[:, None] * y - g[0::2] * (w * x)[:, None] - g[1::2] * w[:, None]
                pen = system.matrix @ g - system.rhs
                return float(np.sum(resid**2) + alpha * np.sum(pen**2))

            res = optimize.minimize(
                objective,
                gamma + 0.3 * rng.standard_normal(2 * k),
                method="Powell",
                options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 100000, "maxfev": 1000000},
            )
            assert np.max(np.abs(res.x - gamma)) < 1e-6

    def test_row_weighting_semantics(self, rng, equal_weight_system):
        # weighting rows of the intercept-augmented design equals solving the
        # normal equations with squared weights
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=40)
        w = rng.uniform(0.1, 1.0, 40)
        solution = penalized_wls_solve(ds.x, ds.y, w, equal_weight_system, 3.0)
        big = np.zeros((8, 8))
        rhs = np.zeros(8)
        for k in range(4):
            dk = np.column_stack([w * ds.x, w])
            big[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = dk.T @ dk
            rhs[2 * k : 2 * k + 2] = dk.T @ (w * ds.y[:, k])
        big += 3.0 * equal_weight_system.matrix.T @ equal_weight_system.matrix
        rhs += 3.0 * equal_weight_system.matrix.T @ equal_weight_system.rhs
        np.testing.assert_allclose(solution, np.linalg.solve(big, rhs), atol=1e-8)

    def test_rank_deficiency(self, equal_weight_system):
        x = np.array([2.0, 2.0, 2.0, 2.0])
        y = np.ones((4, 4))
        with pytest.raises(NumericalError, match="rank-deficient"):
            penalized_wls_solve(x, y, np.ones(4), equal_weight_system, 0.0)

    def test_negative_alpha(self, equal_weight_system):
        with pytest.raises(DataError):
            penalized_wls_solve(np.arange(4.0), np.ones((4, 4)), np.ones(4), equal_weight_system, -1.0)

    def test_non_canonical_system(self):
        x, y, w = np.arange(6.0), np.ones((6, 4)), np.ones(6)
        with pytest.raises(DataError, match="3 weights, not one per child"):
            penalized_wls_solve(x, y, w, constraints_for_weights(np.full(3, 1 / 3)), 1.0)

    @pytest.mark.parametrize("pair", [(np.nan, 0.0), (1.0, -np.inf)])
    def test_non_finite_pin(self, equal_weight_system, pair):
        x, y, w = np.arange(6.0), np.ones((6, 4)), np.ones(6)
        name, value = ("A", pair[0]) if np.isnan(pair[0]) else ("B", pair[1])
        for fixed in ({0: pair}, {j: pair for j in range(4)}):
            with pytest.raises(DataError, match=f"^pinned child 0's {name} must be a finite number, not {value!r}$"):
                penalized_wls_solve(x, y, w, equal_weight_system, np.inf, fixed)

    def test_full_pinning_with_a_nan_residual_is_infeasible(self):
        # Finite pins whose weighted sums overflow to inf - inf leave a NaN residual.
        system = constraints_for_weights([1e150, 1e150])
        fixed = {0: (-1e160, 0.0), 1: (1e160, 0.0)}
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataError, match="infeasible fixing"):
            penalized_wls_solve(np.arange(4.0), np.ones((4, 2)), np.ones(4), system, np.inf, fixed)

    @pytest.mark.parametrize("gap, feasible", [(5e-7, True), (2e-6, False)])
    def test_full_pinning_is_held_to_the_feasibility_tolerance(self, equal_weight_system, gap, feasible):
        # The B pins sum to h . B = gap: arbitrage-free at most FEASIBILITY_TOLERANCE (1e-6) away.
        fixed = {0: (1.0, 4 * gap), 1: (1.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 0.0)}
        args = (np.arange(6.0), np.ones((6, 4)), np.ones(6), equal_weight_system, np.inf, fixed)
        if feasible:
            np.testing.assert_array_equal(penalized_wls_solve(*args), [1.0, 4 * gap, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        else:
            with pytest.raises(DataError, match="infeasible fixing"):
                penalized_wls_solve(*args)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        n=st.integers(4, 40),
        level=st.sampled_from([0.0, 50.0]),
        pin_bits=st.integers(0, 2**6 - 1),
    )
    def test_exact_limit_matches_kkt_oracle(self, seed, k, n, level, pin_bits):
        # alpha = inf is the equality-constrained weighted LS problem; pins are
        # extra equalities.  Solve its KKT system densely and compare.
        rng = np.random.default_rng(seed)
        x = level + rng.uniform(1.0, 5.0) * rng.standard_normal(n)
        y = x[:, None] * rng.uniform(0.5, 1.5, k) + rng.standard_normal((n, k))
        w = rng.uniform(0.2, 1.0, n)
        hw = rng.uniform(0.5, 1.5, k)
        system = constraints_for_weights(hw / hw.sum())
        pinned = [j for j in range(k) if pin_bits >> j & 1]
        values = arbitrage_free_gamma(rng, k, system.weights)
        if len(pinned) < k:
            values += 0.1 * rng.standard_normal(2 * k)
        fixed = {j: (float(values[2 * j]), float(values[2 * j + 1])) for j in pinned}
        gamma = penalized_wls_solve(x, y, w, system, np.inf, fixed)

        design = np.kron(np.eye(k), np.column_stack([w * x, w]))
        target = (w[:, None] * y).T.ravel()
        pin_idx = [i for j in pinned for i in (2 * j, 2 * j + 1)]
        selectors = np.eye(2 * k)[pin_idx]
        eq = np.vstack([system.matrix, selectors])
        eq_rhs = np.concatenate([system.rhs, values[pin_idx]])
        if len(pinned) == k:
            eq, eq_rhs = selectors, values[pin_idx]  # the pins already imply the equalities
        m = eq.shape[0]
        kkt = np.block([[design.T @ design, eq.T], [eq, np.zeros((m, m))]])
        oracle = np.linalg.solve(kkt, np.concatenate([design.T @ target, eq_rhs]))[: 2 * k]
        np.testing.assert_allclose(gamma, oracle, rtol=1e-7, atol=1e-7)
        for j in pinned:
            assert (gamma[2 * j], gamma[2 * j + 1]) == fixed[j]


class TestIrlsFit:
    def test_exact_recovery(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=100, noise=0.0)
        result = irls_fit(ds, equal_weight_system)
        np.testing.assert_allclose(result.gamma, gamma, atol=1e-10)
        assert result.converged
        assert result.arbitrage_gap_maxabs <= 1e-10

    def test_close_to_truth_with_noise(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=500, noise=0.5, null_space_noise=True)
        result = irls_fit(ds, equal_weight_system)
        se = 0.5 / (np.sqrt(500) * ds.x.std())
        assert np.max(np.abs(result.slopes - gamma[0::2])) < 5 * se * 3
        assert result.arbitrage_gap_maxabs <= 1e-6

    def test_hourly_size_fits(self, rng):
        # N=1000 days x K=24 hours: the pooled penalty scale takes Qn of 24,000
        # responses, whose 288M pairs would not fit in memory if enumerated
        weights = np.full(24, 1 / 24)
        gamma = arbitrage_free_gamma(rng, 24)
        ds = synthetic_dataset(rng, gamma, n=1000, noise=0.5, weights=weights)
        result = irls_fit(ds, constraints_for_weights(weights))
        assert result.arbitrage_gap_maxabs <= FEASIBILITY_TOLERANCE

    def test_robust_beats_classical_under_contamination(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds_clean = synthetic_dataset(rng, gamma, n=400, x_spread=10.0, noise=0.5)
        y = ds_clean.y.copy()
        bad = rng.choice(400, 60, replace=False)
        y[bad, 1] += 10 * 0.5
        ds = Dataset(x=ds_clean.x, y=y)
        robust = irls_fit(ds, equal_weight_system)
        classical = classical_fit(ds, equal_weight_system)
        dev_r = np.linalg.norm(robust.gamma - irls_fit(ds_clean, equal_weight_system).gamma)
        dev_c = np.linalg.norm(classical.gamma - classical_fit(ds_clean, equal_weight_system).gamma)
        assert dev_r < 0.2 * dev_c

    def test_contaminated_cases_flagged(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds_clean = synthetic_dataset(rng, gamma, n=200, noise=0.4)
        y = ds_clean.y.copy()
        bad = rng.choice(200, 30, replace=False)
        y[bad, 2] += 12 * 0.4
        ds = Dataset(x=ds_clean.x, y=y)
        result = irls_fit(ds, equal_weight_system)
        assert np.all(result.case_weights[bad] < 0.6)
        clean_mask = np.ones(200, bool)
        clean_mask[bad] = False
        assert np.mean(result.case_weights[clean_mask] >= 0.6) > 0.9

    def test_permutation_invariance(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=60, noise=0.5)
        perm = rng.permutation(60)
        ds_perm = Dataset(
            x=ds.x[perm], y=ds.y[perm], case_ids=[ds.case_ids[i] for i in perm]
        )
        a = irls_fit(ds, equal_weight_system)
        b = irls_fit(ds_perm, equal_weight_system)
        np.testing.assert_allclose(a.gamma, b.gamma, atol=1e-9)
        np.testing.assert_allclose(a.case_weights[perm], b.case_weights, atol=1e-9)

    def test_auto_alpha_policy(self, rng, equal_weight_system):
        from curveshape.robust import qn_scale

        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=120, noise=0.3, null_space_noise=True)
        result = irls_fit(ds, equal_weight_system)
        assert result.alpha_used == pytest.approx(120 * qn_scale(ds.y.ravel()), rel=1e-12)
        scaled = irls_fit(ds, equal_weight_system, FitConfig(alpha_multiplier=2.5))
        assert scaled.alpha_used == pytest.approx(2.5 * 120 * qn_scale(ds.y.ravel()), rel=1e-12)

    def test_feasibility_fallback_is_exact_limit(self, rng, equal_weight_system):
        # generic noise at price level 50 leaves the penalized gap above 1e-6,
        # so the one fallback re-runs at alpha = inf
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=200, noise=1.0)
        base = irls_fit(ds, equal_weight_system, FitConfig(feasibility_retry=False))
        assert base.arbitrage_gap_maxabs > 1e-6
        retried = irls_fit(ds, equal_weight_system)
        assert retried.alpha_used == np.inf
        assert retried.arbitrage_gap_maxabs <= FEASIBILITY_TOLERANCE
        assert retried.to_report()["diagnostics"]["alpha_used"] is None

    def test_zero_pooled_scale_fits_at_the_exact_limit(self, equal_weight_system):
        # identical children leave the exact limit one feasible pair each: (1, 0)
        with pytest.warns(DegenerateScaleWarning) as record:
            result = irls_fit(zero_qn_dataset(), equal_weight_system)
        np.testing.assert_array_equal(result.gamma, np.tile([1.0, 0.0], 4))
        assert result.alpha_used == np.inf
        assert result.arbitrage_gap_maxabs == 0.0
        assert result.converged
        assert [w.category for w in record] == [DegenerateScaleWarning]

    def test_non_convergence_flag(self, rng, equal_weight_system, monkeypatch):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=100, noise=0.8)
        monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
        result = irls_fit(ds, equal_weight_system)
        assert not result.converged
        assert result.iterations == 1

    def test_feasibility_for_multipliers_beyond_recommendation(self, rng, equal_weight_system):
        # with the constraint-null-space noise fixtures any multiplier at or
        # above the recommended 2.5 leaves a machine-level gap
        gamma = arbitrage_free_gamma(rng, 4)
        for mult in (2.5, 5.0, 10.0):
            ds = synthetic_dataset(rng, gamma, n=150, noise=0.5, null_space_noise=True)
            result = irls_fit(ds, equal_weight_system, FitConfig(alpha_multiplier=mult))
            assert result.arbitrage_gap_maxabs <= 1e-6

    def test_gap_diagnostic_matches_recomputation(self, rng, equal_weight_system):
        from curveshape.constraints import arbitrage_gap

        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=90, noise=0.4)
        result = irls_fit(ds, equal_weight_system)
        recomputed = float(np.max(np.abs(arbitrage_gap(equal_weight_system, result.gamma))))
        assert result.arbitrage_gap_maxabs == pytest.approx(recomputed, abs=1e-12)


class TestClassicalFit:
    def test_alpha_zero_decouples(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=80, noise=0.6)
        result = classical_fit(ds, equal_weight_system, alpha=0.0)
        for k in range(4):
            slope, intercept = ols_slope_intercept(ds.x, ds.y[:, k])
            assert result.gamma[2 * k] == pytest.approx(slope, abs=1e-8)
            assert result.gamma[2 * k + 1] == pytest.approx(intercept, abs=1e-8)
        assert result.iterations == 1
        np.testing.assert_array_equal(result.case_weights, 1.0)

    def test_zero_pooled_scale_is_the_exact_limit(self, equal_weight_system):
        result = classical_fit(zero_qn_dataset(), equal_weight_system)
        np.testing.assert_array_equal(result.gamma, np.tile([1.0, 0.0], 4))
        assert result.alpha_used == np.inf
        assert result.arbitrage_gap_maxabs == 0.0
        assert classical_fit(zero_qn_dataset(), equal_weight_system, alpha=0.0).alpha_used == 0.0

    def test_equals_irls_with_flat_weight_function(self, rng, equal_weight_system, monkeypatch):
        # cutoffs far beyond any distance make the downweighting constant 1
        for name, cutoff in (("HAMPEL_A", 1e9), ("HAMPEL_B", 2e9), ("HAMPEL_R", 3e9)):
            monkeypatch.setattr(f"curveshape.robust.{name}", cutoff)
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=70, noise=0.5)
        robust = irls_fit(ds, equal_weight_system, FitConfig(feasibility_retry=False))
        classical = classical_fit(ds, equal_weight_system)
        np.testing.assert_allclose(robust.gamma, classical.gamma, atol=1e-9)
        np.testing.assert_array_equal(robust.case_weights, 1.0)

    def test_agrees_with_robust_on_clean_data(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=400, noise=0.3)
        robust = irls_fit(ds, equal_weight_system)
        classical = classical_fit(ds, equal_weight_system)
        rel = np.abs(robust.slopes - classical.slopes) / np.abs(classical.slopes)
        assert np.max(rel) < 0.02

    def test_exact_recovery_noise_free(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=60, noise=0.0)
        result = classical_fit(ds, equal_weight_system)
        np.testing.assert_allclose(result.gamma, gamma, atol=1e-10)

    def test_penalty_monotonicity(self, rng, equal_weight_system):
        from curveshape.constraints import arbitrage_gap

        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=100, noise=0.8)
        gaps = []
        for mult in (0.01, 0.1, 1.0, 10.0, 100.0):
            res = classical_fit(ds, equal_weight_system, alpha=mult)
            gaps.append(np.max(np.abs(arbitrage_gap(equal_weight_system, res.gamma))))
        for lo, hi in zip(gaps[:-1], gaps[1:]):
            assert hi <= lo + 1e-9


class TestOutlierReport:
    def test_empty_when_all_unit(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=40, noise=0.0)
        result = irls_fit(ds, equal_weight_system)
        assert outlier_report(result) == []

    def test_threshold_one_returns_all_downweighted(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds = synthetic_dataset(rng, gamma, n=80, noise=0.5)
        result = irls_fit(ds, equal_weight_system)
        report = outlier_report(result, threshold=1.0)
        assert len(report) == int(np.sum(result.case_weights < 1.0))
        weights = [w for _, w in report]
        assert weights == sorted(weights)

    def test_exact_indices(self, rng, equal_weight_system):
        gamma = arbitrage_free_gamma(rng, 4)
        ds_clean = synthetic_dataset(rng, gamma, n=150, noise=0.3)
        y = ds_clean.y.copy()
        bad = sorted(rng.choice(150, 20, replace=False))
        for i in bad:
            y[i, 0] += 15 * 0.3
        ds = Dataset(x=ds_clean.x, y=y)
        result = irls_fit(ds, equal_weight_system)
        flagged = {cid for cid, _ in outlier_report(result)}
        expected = {ds.case_ids[i] for i in bad}
        assert expected <= flagged
        assert len(flagged - expected) <= int(0.05 * 130)


def test_report_roundtrip(rng, equal_weight_system):
    gamma = arbitrage_free_gamma(rng, 4)
    ds = synthetic_dataset(rng, gamma, n=50, noise=0.2)
    result = irls_fit(ds, equal_weight_system)
    report = result.to_report()
    np.testing.assert_allclose(gamma_from_report(report), result.gamma, atol=0)
    assert set(report["case_weights"]) == set(ds.case_ids)
    assert report["diagnostics"]["iterations"] == result.iterations


def test_fit_config_validation():
    for bad in ("sometimes", None, True, -1.0, float("nan")):
        with pytest.raises(DataError, match="alpha_multiplier"):
            FitConfig(alpha_multiplier=bad)
    for good in ("auto", 0, 2.5, np.float64(1.0), float("inf")):
        FitConfig(alpha_multiplier=good)
    for bad in ("no", 0, 1.0, None):  # "no" is truthy: the fit retried
        with pytest.raises(DataError, match=f"^feasibility_retry must be a bool, not {bad!r}$"):
            FitConfig(feasibility_retry=bad)
    FitConfig(feasibility_retry=np.bool_(False))


def test_baseline_residual_scales_are_column_mad(rng, equal_weight_system):
    gamma = arbitrage_free_gamma(rng, 4)
    ds = synthetic_dataset(rng, gamma, n=75, noise=0.6)
    for result in (classical_fit(ds, equal_weight_system), ratio_average_result(ds, equal_weight_system)):
        residuals = ds.y - ds.x[:, None] * result.slopes - result.intercepts
        expected = [mad_scale(residuals[:, k]) for k in range(4)]
        np.testing.assert_array_equal(result.residual_scales, expected)
        assert not result.degenerate_scale


def test_baselines_flag_zero_residual_scales():
    # Children at 1.1x and 0.9x the parent: both baselines fit every case exactly.
    x = np.linspace(40.0, 60.0, 20)
    ds = Dataset(x, np.column_stack([1.1 * x, 0.9 * x]))
    system = constraints_for_weights([0.5, 0.5])
    for result in (classical_fit(ds, system), ratio_average_result(ds, system)):
        np.testing.assert_array_equal(result.residual_scales, [0.0, 0.0])
        assert result.degenerate_scale, result.method
        assert result.to_report()["diagnostics"]["degenerate_scale"] is True


def reference_weight(kind: str, x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    if kind == "bisquare":
        return (1.0 - np.minimum(ax / BISQUARE_K, 1.0) ** 2) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(1.0, HAMPEL_A / ax) * np.clip((HAMPEL_R - ax) / (HAMPEL_R - HAMPEL_B), 0.0, 1.0)


def reference_solve(x, y, w, h, alpha, fixed):
    """The closed-form solve written plainly: free columns by list index, column_stack, np.outer."""
    k = y.shape[1]
    gamma, r = np.empty((k, 2)), np.array([1.0, 0.0])
    for j, pair in fixed.items():
        gamma[j] = pair
        r -= h[j] * gamma[j]
    free = [j for j in range(k) if j not in fixed]
    w2 = w**2
    sw = float(w2.sum())
    xbar = float(w2 @ x) / sw
    xc = x - xbar
    sxx = float(w2 @ xc**2)
    yf = y[:, free]
    ybar = (w2 @ yf) / sw
    slopes = (w2 * xc) @ (yf - ybar) / sxx
    beta = np.column_stack([slopes, ybar - slopes * xbar])
    hf = h[free]
    s0 = hf @ beta - r
    if alpha == 0.0:
        correction = np.zeros(2)
    elif np.isinf(alpha):
        correction = s0 / (hf @ hf)
    else:
        gram = np.array([[sxx + sw * xbar**2, sw * xbar], [sw * xbar, sw]])
        correction = np.linalg.solve(gram / alpha + (hf @ hf) * np.eye(2), s0)
    gamma[free] = beta - np.outer(hf, correction)
    return gamma.reshape(-1)


def reference_distances(r):
    centered = r - np.median(r, axis=0)
    scales = MAD_CONSISTENCY * np.median(np.abs(centered), axis=0)
    z = np.divide(centered, scales, out=np.zeros_like(centered), where=scales > 0.0)
    return np.linalg.norm(z, axis=1) / np.sqrt(r.shape[1]), scales


def reference_fit(dataset, system, config, fixed=None):
    """The IRLS iteration written out plainly, with numpy's median and norm: irls_fit's oracle.

    Returns (gamma, weights, scales, iterations, gap, alpha) of the pass the fit keeps.
    """
    x, y, h, kind = dataset.x, dataset.y, system.weights, config.weight_spec.kind
    c = 1.0 if config.alpha_multiplier == "auto" else float(config.alpha_multiplier)
    alpha = c * dataset.n_cases * qn_scale(y.ravel())
    row_norms = np.linalg.norm(y - np.median(y, axis=0), axis=1)
    dev_x = np.abs(x - np.median(x))
    w_x = reference_weight(kind, dev_x / (MAD_CONSISTENCY * np.median(dev_x)))
    start = np.sqrt(w_x * reference_weight(kind, row_norms / np.median(row_norms)))

    def one_pass(alpha):
        weights, previous = start, None
        for iterations in range(1, estimator.MAX_ITERATIONS + 1):
            gamma = reference_solve(x, y, weights, h, alpha, fixed or {})
            d, scales = reference_distances(y - x[:, None] * gamma[0::2] - gamma[1::2])
            weights = np.sqrt(w_x * reference_weight(kind, d))
            if previous is not None and float(np.max(np.abs(gamma[1::2] - previous))) < estimator.STOP_TOLERANCE:
                break
            previous = gamma[1::2]
        return gamma, weights, scales, iterations, arbitrage_gap(system, gamma), alpha

    kept = one_pass(alpha)
    if config.feasibility_retry and not kept[4] <= FEASIBILITY_TOLERANCE:
        kept = one_pass(np.inf)
    return kept


def desk_dataset(seed: int) -> Dataset:
    """CAL -> 4 quarters at price level 50 with 20% vertical outliers of size 10."""
    truth = arbitrage_free_gamma(np.random.default_rng(seed), 4)
    config = SyntheticMarketConfig(
        true_gamma=truth,
        weights=EQUAL_WEIGHTS,
        contamination_fraction=0.2,
        outlier_magnitude=10.0,
        seed=seed,
    )
    return build_regression_dataset(synthesize_market(config).table)[0]


def centered_dataset(seed: int) -> Dataset:
    """Prices centered on 0 with noise in the constraints' null space: the penalized pass is kept."""
    rng = np.random.default_rng(seed)
    return synthetic_dataset(rng, arbitrage_free_gamma(rng, 4), n=150, x_level=0.0, null_space_noise=True)


def hourly_dataset(seed: int, n_days: int = 200) -> Dataset:
    """Day -> 24 hours around 50, one hour of every tenth day spiked by 20 to 60."""
    rng = np.random.default_rng(seed)
    ds = synthetic_dataset(rng, arbitrage_free_gamma(rng, 24), n=n_days, weights=np.full(24, 1 / 24))
    y = ds.y.copy()
    spiked = rng.choice(n_days, n_days // 10, replace=False)
    y[spiked, rng.integers(0, 24, spiked.size)] += rng.uniform(20.0, 60.0, spiked.size)
    return Dataset(x=ds.x, y=y)


class TestReferenceIteration:
    """irls_fit gives the plainly written iteration's floats, bit for bit."""

    CASES = {
        "desk-fallback": (lambda: desk_dataset(1), 4, FitConfig(), None),
        "centered-penalized": (lambda: centered_dataset(2), 4, FitConfig(), None),
        "hourly-k24": (lambda: hourly_dataset(4), 24, FitConfig(), None),
        "pinned-child": (lambda: desk_dataset(5), 4, FitConfig(), {1: (0.9, 1.25)}),
        "bisquare": (lambda: desk_dataset(6), 4, FitConfig(weight_spec=WeightFunctionSpec("bisquare")), None),
        "finite-c-no-retry": (
            lambda: desk_dataset(8), 4, FitConfig(alpha_multiplier=1e6, feasibility_retry=False), None
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_reference(self, case):
        make, k, config, fixed = self.CASES[case]
        ds = make()
        system = constraints_for_weights(np.full(k, 1.0 / k))
        result = irls_fit(ds, system, config, fixed)
        gamma, weights, scales, iterations, gap, alpha = reference_fit(ds, system, config, fixed)
        assert np.array_equal(result.gamma, gamma)
        assert np.array_equal(result.case_weights, weights)
        assert np.array_equal(result.residual_scales, scales)
        assert (result.iterations, result.arbitrage_gap_maxabs, result.alpha_used) == (iterations, gap, alpha)
        # each case runs the pass it names
        if case in ("desk-fallback", "hourly-k24"):
            assert np.isinf(result.alpha_used)
        if case in ("centered-penalized", "finite-c-no-retry"):
            assert np.isfinite(result.alpha_used) and result.alpha_used > 0
        if fixed:
            assert tuple(result.gamma[2:4]) == fixed[1]

    @pytest.mark.parametrize("shape", [(300, 4), (301, 4), (365, 24)])
    def test_distances_match_reference(self, shape):
        # Most hourly distances sit where Hampel's weight is flat, so a fit
        # alone would not show a distance one rounding off.
        rng = np.random.default_rng(shape[0])
        r = rng.standard_normal(shape) * rng.uniform(0.1, 10.0, shape[1]) + 50.0
        r[rng.random(shape) < 0.1] += 30.0
        d, scales, degenerate = _residual_distances(r)
        expected_d, expected_scales = reference_distances(r)
        assert np.array_equal(d, expected_d) and np.array_equal(scales, expected_scales) and not degenerate

    def test_zero_and_nan_scales_standardize_to_zero(self):
        r = np.random.default_rng(14).standard_normal((40, 3))
        r[5, 2] = np.nan  # a NaN residual gives a NaN scale, which is not flagged
        d, scales, degenerate = _residual_distances(r)
        assert np.isnan(scales[2]) and not degenerate
        assert np.array_equal(d, reference_distances(r)[0]) and np.isfinite(d).all()
        r[:, 1] = 7.0  # a zero scale is
        with pytest.warns(DegenerateScaleWarning):
            d, scales, degenerate = _residual_distances(r)
        assert scales[1] == 0.0 and degenerate
        assert np.array_equal(d, reference_distances(r)[0]) and np.isfinite(d).all()

    @pytest.mark.parametrize("alpha", [0.0, 250.0, np.inf])
    @pytest.mark.parametrize("fixed", [None, {}])
    def test_solve_floats_do_not_depend_on_the_layout_of_y(self, alpha, fixed):
        ds = desk_dataset(9)
        system = constraints_for_weights(EQUAL_WEIGHTS)
        w = np.random.default_rng(10).uniform(0.0, 1.0, ds.n_cases)
        c_order = penalized_wls_solve(ds.x, ds.y, w, system, alpha, fixed)
        f_order = penalized_wls_solve(ds.x, np.asfortranarray(ds.y), w, system, alpha, fixed)
        assert ds.y.flags.c_contiguous and not ds.y.flags.f_contiguous
        assert np.array_equal(c_order, f_order)
        assert np.array_equal(c_order, reference_solve(ds.x, ds.y, w, system.weights, alpha, {}))


class TestOneSolvePerIteration:
    """Each IRLS iteration calls the module's solve and the weight function once.

    The benchmark's tracer wraps both at these names and reads its
    useful-solve ratio off the counts.
    """

    @pytest.mark.parametrize(
        "make,config",
        [(lambda: centered_dataset(11), FitConfig()), (lambda: desk_dataset(13), FitConfig(feasibility_retry=False))],
        ids=["centered", "no-retry"],
    )
    def test_counts(self, monkeypatch, equal_weight_system, make, config):
        solves, weights = [], []
        solve, weight = estimator.penalized_wls_solve, WeightFunctionSpec.weight

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        def counting_weight(spec, x):
            weights.append(1)
            return weight(spec, x)

        monkeypatch.setattr(estimator, "penalized_wls_solve", counting_solve)
        monkeypatch.setattr(WeightFunctionSpec, "weight", counting_weight)
        result = irls_fit(make(), equal_weight_system, config)
        assert np.isfinite(result.alpha_used) and result.iterations > 1  # one pass of several iterations
        assert len(solves) == result.iterations
        assert len(weights) == result.iterations + 2  # and once each for the x and y start weights


class TestRelabelingInvariance:
    """Relabeling children or cases relabels the fit and changes nothing else
    (Maronna, Martin & Yohai 2006, ch. 4-5)."""

    @staticmethod
    def desk_market(seed):
        """A CAL -> 4Q market at price level 50 with 20% vertical outliers, and its hour weights."""
        weights = np.array([2160.0, 2184.0, 2208.0, 2208.0]) / 8760.0
        gamma = arbitrage_free_gamma(np.random.default_rng(seed), 4, weights)
        config = SyntheticMarketConfig(
            true_gamma=gamma, weights=weights, contamination_fraction=0.2, outlier_magnitude=10.0, seed=seed
        )
        dataset, _ = build_regression_dataset(synthesize_market(config).table)
        return dataset, weights

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(4)))
    def test_permuting_children_permutes_the_pairs(self, seed, order):
        dataset, weights = self.desk_market(seed)
        order = list(order)
        fit = irls_fit(dataset, constraints_for_weights(weights))
        permuted = irls_fit(Dataset(x=dataset.x, y=dataset.y[:, order]), constraints_for_weights(weights[order]))
        np.testing.assert_allclose(
            permuted.gamma.reshape(-1, 2), fit.gamma.reshape(-1, 2)[order], rtol=0, atol=1e-6
        )
        np.testing.assert_allclose(permuted.case_weights, fit.case_weights, rtol=0, atol=1e-6)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), shuffle_seed=st.integers(0, 2**32 - 1))
    def test_reordering_cases_permutes_the_case_weights(self, seed, shuffle_seed):
        dataset, weights = self.desk_market(seed)
        order = np.random.default_rng(shuffle_seed).permutation(dataset.n_cases)
        system = constraints_for_weights(weights)
        fit = irls_fit(dataset, system)
        shuffled = irls_fit(Dataset(x=dataset.x[order], y=dataset.y[order]), system)
        np.testing.assert_allclose(shuffled.gamma, fit.gamma, rtol=0, atol=1e-6)
        np.testing.assert_allclose(shuffled.case_weights, fit.case_weights[order], rtol=0, atol=1e-6)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.01, 1000.0))
    def test_rescaling_prices_rescales_the_intercepts(self, seed, s):
        # (s x, s y) = A (s x) + s B: the slopes and weights stay, the intercepts scale
        dataset, weights = self.desk_market(seed)
        system = constraints_for_weights(weights)
        fit = irls_fit(dataset, system)
        scaled = irls_fit(Dataset(x=s * dataset.x, y=s * dataset.y), system)
        np.testing.assert_allclose(scaled.slopes, fit.slopes, rtol=0, atol=1e-6)
        np.testing.assert_allclose(scaled.intercepts / s, fit.intercepts, rtol=0, atol=1e-6)
        np.testing.assert_allclose(scaled.case_weights, fit.case_weights, rtol=0, atol=1e-6)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(-40.0, 500.0))
    def test_shifting_prices_shifts_the_intercepts(self, seed, c):
        # y + c = A (x + c) + B + c (1 - A): the slopes and weights stay
        dataset, weights = self.desk_market(seed)
        system = constraints_for_weights(weights)
        fit = irls_fit(dataset, system)
        shifted = irls_fit(Dataset(x=dataset.x + c, y=dataset.y + c), system)
        np.testing.assert_allclose(shifted.slopes, fit.slopes, rtol=0, atol=1e-6)
        np.testing.assert_allclose(shifted.intercepts, fit.intercepts + c * (1.0 - fit.slopes), rtol=0, atol=1e-6)
        np.testing.assert_allclose(shifted.case_weights, fit.case_weights, rtol=0, atol=1e-6)


def test_dataset_x_of_two_dimensions_is_a_data_error():
    with pytest.raises(DataError, match=r"^x must be \(N,\) and y \(N, K\) with matching N$"):
        Dataset(x=np.ones((3, 1)), y=np.ones((3, 2)))


def test_report_coefficients_given_as_lists_are_a_data_error():
    with pytest.raises(DataError, match="^fit report coefficients must be numbers, not lists$"):
        gamma_from_report({"coefficients": {"A1": [1.0], "B1": [0.0]}})
