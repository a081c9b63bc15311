import numpy as np
import pytest

from survmrl import (
    EstimationError,
    SurvivalSample,
    fit_hybrid_mrl,
    km_fit,
    mrl_difference,
    permutation_envelope,
    survival_difference,
    survival_ratio,
)
from survmrl.compare import _replicate_values


def make_sample(pairs):
    times, statuses = zip(*pairs)
    return SurvivalSample(times, statuses)


def exponential_sample(seed, n=100, mean=2.0, censor_mean=8.0):
    rng = np.random.default_rng(seed)
    t = rng.exponential(mean, n)
    c = rng.exponential(censor_mean, n)
    observed = np.minimum(t, c)
    status = (t <= c).astype(int)
    return SurvivalSample(observed, status)


SAMPLE_A = make_sample([(2, 1), (3, 0), (4, 1), (5, 1)])
SAMPLE_B = make_sample([(1, 1), (2, 1), (3, 1)])


class TestSurvivalDifference:
    def test_identical_samples_give_zero(self):
        curve = survival_difference(km_fit(SAMPLE_A), km_fit(SAMPLE_A))
        assert set(curve.values) == {0.0}

    def test_extreme_difference_is_minus_one(self):
        all_die_at_one = km_fit(make_sample([(1, 1), (1, 1)]))
        none_die = km_fit(make_sample([(2, 0), (2, 0)]))
        curve = survival_difference(all_die_at_one, none_die, grid=(1.5,))
        assert curve.values == (-1.0,)

    def test_hand_computed_values(self):
        curve = survival_difference(km_fit(SAMPLE_A), km_fit(SAMPLE_B), grid=(2.5,))
        assert curve.values[0] == pytest.approx(0.75 - 1 / 3, rel=1e-12)

    def test_default_grid_union_truncated(self):
        curve = survival_difference(km_fit(SAMPLE_A), km_fit(SAMPLE_B))
        # A event times {2,4,5}, B {1,2,3}; B follow-up ends at 3
        assert curve.grid == (1.0, 2.0, 3.0)

    def test_empty_window_is_error(self):
        early = km_fit(make_sample([(1, 1), (1, 1)]))
        late = km_fit(make_sample([(5, 1), (6, 1)]))
        with pytest.raises(EstimationError, match="no common follow-up"):
            survival_difference(early, late, grid=())

    def test_antisymmetry_exact(self):
        for seed in range(5):
            a, b = exponential_sample(seed), exponential_sample(seed + 50)
            ab = survival_difference(km_fit(a), km_fit(b))
            ba = survival_difference(km_fit(b), km_fit(a))
            assert ab.grid == ba.grid
            assert all(x == -y for x, y in zip(ab.values, ba.values))

    def test_values_within_unit_bounds(self):
        a, b = exponential_sample(1), exponential_sample(2)
        curve = survival_difference(km_fit(a), km_fit(b))
        assert all(-1.0 <= v <= 1.0 for v in curve.values)


class TestSurvivalRatio:
    def test_identical_samples_give_one(self):
        curve = survival_ratio(km_fit(SAMPLE_A), km_fit(SAMPLE_A))
        assert all(v == 1.0 for v in curve.values)

    def test_grid_drops_zero_denominator_region(self):
        curve = survival_ratio(km_fit(SAMPLE_A), km_fit(SAMPLE_B))
        # B hits zero at time 3, so no grid point at or past 3
        assert all(t < 3.0 for t in curve.grid)

    def test_hand_computed_ratio(self):
        curve = survival_ratio(km_fit(SAMPLE_A), km_fit(SAMPLE_B), grid=(2.5,))
        assert curve.values[0] == pytest.approx(2.25, rel=1e-12)

    def test_whole_grid_zero_denominator_is_error(self):
        dead_early = km_fit(make_sample([(1, 1), (1, 1)]))
        alive = km_fit(make_sample([(9, 1), (9, 1)]))
        with pytest.raises(EstimationError, match="ratio undefined"):
            survival_ratio(alive, dead_early, grid=(2.0, 3.0))

    def test_reciprocity(self):
        a, b = exponential_sample(3), exponential_sample(4)
        ab = survival_ratio(km_fit(a), km_fit(b))
        ba = survival_ratio(km_fit(b), km_fit(a))
        shared = set(ab.grid) & set(ba.grid)
        ab_at = dict(zip(ab.grid, ab.values))
        ba_at = dict(zip(ba.grid, ba.values))
        assert shared
        for t in shared:
            assert ab_at[t] * ba_at[t] == pytest.approx(1.0, abs=1e-12)

    def test_values_nonnegative(self):
        a, b = exponential_sample(5), exponential_sample(6)
        curve = survival_ratio(km_fit(a), km_fit(b))
        assert min(curve.values) >= 0.0


class TestMrlDifference:
    def test_same_sample_gives_exact_zero(self):
        sample = exponential_sample(0, n=400)
        fit = fit_hybrid_mrl(sample)
        curve = mrl_difference(fit, fit)
        assert set(curve.values) == {0.0}

    def test_disjoint_windows_is_error(self):
        a = fit_hybrid_mrl(exponential_sample(1, n=400))
        # slower group whose (custom) grid starts above A's whole domain
        slow = exponential_sample(2, n=400, mean=20.0, censor_mean=80.0)
        b = fit_hybrid_mrl(slow, grid=(a.threshold * 1.5,))
        assert b.grid[0] > a.threshold
        with pytest.raises(EstimationError, match="no overlapping MRL domain"):
            mrl_difference(a, b)

    def test_exponential_rate_gap_recovered(self):
        rng_ids = range(3)
        for seed in rng_ids:
            a = fit_hybrid_mrl(exponential_sample(seed, n=1500, mean=1.0, censor_mean=4.0))
            b = fit_hybrid_mrl(exponential_sample(seed + 30, n=1500, mean=2.0, censor_mean=8.0))
            curve = mrl_difference(a, b)
            half = [v for t, v in zip(curve.grid, curve.values) if t <= curve.grid[-1] / 2]
            for v in half:
                assert v == pytest.approx(-1.0, abs=0.25)

    def test_grid_is_union_restricted_to_overlap(self):
        a = fit_hybrid_mrl(exponential_sample(7, n=400))
        b = fit_hybrid_mrl(exponential_sample(8, n=400))
        curve = mrl_difference(a, b)
        hi = min(a.threshold, b.threshold)
        assert curve.grid[-1] <= hi
        union = set(a.grid) | set(b.grid)
        assert set(curve.grid) <= union


class TestPermutationEnvelope:
    def test_zero_replicates_rejected(self):
        a, b = exponential_sample(0), exponential_sample(1)
        with pytest.raises(EstimationError, match="at least one permutation"):
            permutation_envelope(a, b, "surv_diff", n_permutations=0, seed=1)

    def test_tiny_pool_rejected(self):
        a = make_sample([(1, 1)])
        b = make_sample([(2, 1), (3, 1)])
        with pytest.raises(EstimationError, match="pooled sample too small"):
            permutation_envelope(a, b, "surv_diff", n_permutations=10, seed=1)

    def test_mrl_diff_kind_rejected(self):
        a, b = exponential_sample(0), exponential_sample(1)
        with pytest.raises(EstimationError, match="no envelope defined"):
            permutation_envelope(a, b, "mrl_diff", n_permutations=10, seed=1)

    def test_same_seed_bitwise_identical(self):
        a, b = exponential_sample(2), exponential_sample(3)
        one = permutation_envelope(a, b, "surv_diff", n_permutations=100, seed=9)
        two = permutation_envelope(a, b, "surv_diff", n_permutations=100, seed=9)
        assert one == two

    def test_different_seeds_differ(self):
        a, b = exponential_sample(2), exponential_sample(3)
        one = permutation_envelope(a, b, "surv_diff", n_permutations=100, seed=9)
        two = permutation_envelope(a, b, "surv_diff", n_permutations=100, seed=10)
        assert one != two

    def test_lower_never_exceeds_upper(self):
        a, b = exponential_sample(4), exponential_sample(5)
        env = permutation_envelope(a, b, "surv_diff", n_permutations=200, seed=3)
        for lo, hi in zip(env.lower, env.upper):
            assert lo <= hi

    def test_band_widening_never_narrows(self):
        a, b = exponential_sample(6), exponential_sample(7)
        narrow = permutation_envelope(
            a, b, "surv_diff", n_permutations=400, seed=5, band_quantiles=(0.025, 0.975)
        )
        wide = permutation_envelope(
            a, b, "surv_diff", n_permutations=400, seed=5, band_quantiles=(0.005, 0.995)
        )
        for n_lo, n_hi, w_lo, w_hi in zip(narrow.lower, narrow.upper, wide.lower, wide.upper):
            assert w_lo <= n_lo and n_hi <= w_hi

    def test_order_independence_of_replicates(self):
        a, b = exponential_sample(8), exponential_sample(9)
        env = permutation_envelope(a, b, "surv_diff", n_permutations=50, seed=11)
        grid = np.array(env.grid)
        times = np.concatenate((a.times, b.times))
        statuses = np.concatenate((a.statuses, b.statuses))
        rows = [
            _replicate_values(times, statuses, a.n, grid, "surv_diff", 11, r)
            for r in reversed(range(50))
        ]
        stacked = np.stack(rows)
        assert np.quantile(stacked, 0.025, axis=0) == pytest.approx(env.lower, abs=0.0)
        assert np.quantile(stacked, 0.975, axis=0) == pytest.approx(env.upper, abs=0.0)

    def test_ratio_reports_degraded_defined_counts(self):
        # all-event groups: permuted denominators hit zero at the top of the grid
        a = make_sample([(float(t), 1) for t in (1, 2, 3, 4, 5)])
        b = make_sample([(float(t), 1) for t in (1.5, 2.5, 3.5, 4.5, 5.5)])
        env = permutation_envelope(a, b, "surv_ratio", n_permutations=300, seed=2)
        assert env.defined_counts[-1] < 300
        assert min(env.defined_counts) >= 0
        assert env.kind == "surv_ratio"

    def test_observed_curve_mostly_inside_under_null(self):
        a, b = exponential_sample(20), exponential_sample(21)
        observed = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(a, b, "surv_diff", n_permutations=400, seed=7)
        assert env.grid == observed.grid
        inside = [
            lo <= v <= hi for v, lo, hi in zip(observed.values, env.lower, env.upper)
        ]
        assert np.mean(inside) >= 0.85
