import re

import numpy as np
import pytest
from scipy import integrate

from survmrl import (
    EstimationError,
    GpdFit,
    MrlCurve,
    StepFunction,
    SurvivalSample,
    ThresholdConfig,
    evaluate_mrl,
    fit_hybrid_mrl,
    gpd_mrl_at_threshold,
    select_threshold,
)


def make_sample(pairs):
    times, statuses = zip(*pairs)
    return SurvivalSample(times, statuses)


def exponential_sample(seed, n=1000, mean=2.0, censor_mean=6.0):
    rng = np.random.default_rng(seed)
    t = rng.exponential(mean, n)
    c = rng.exponential(censor_mean, n)
    observed = np.minimum(t, c)
    status = (t <= c).astype(int)
    return SurvivalSample(observed, status)


def true_mrl_by_quadrature(survival, t, upper):
    """Eq.-style oracle: area under the true survival beyond t over S(t)."""
    area, _ = integrate.quad(survival, t, upper, limit=200)
    return area / survival(t)


class TestSelectThreshold:
    def test_quantile_interpolation_by_hand(self):
        sample = make_sample([(float(i), 1) for i in range(1, 11)] + [(11.0, 0), (12.0, 0)])
        config = ThresholdConfig(quantile=0.8, min_exceedances=2)
        # rank h = 9 * 0.8 = 7.2 between order stats 8 and 9
        assert select_threshold(sample, config) == pytest.approx(8.2)

    def test_all_ties_cannot_yield_exceedances(self):
        sample = make_sample([(3.0, 1)] * 6)
        with pytest.raises(EstimationError, match="threshold too high"):
            select_threshold(sample, ThresholdConfig(min_exceedances=2))

    def test_explicit_at_max_time_rejected(self):
        sample = make_sample([(float(i), 1) for i in range(1, 8)])
        config = ThresholdConfig(explicit_value=7.0, min_exceedances=2)
        with pytest.raises(EstimationError, match="threshold too high"):
            select_threshold(sample, config)

    def test_no_events_rejected_in_quantile_mode(self):
        sample = make_sample([(1.0, 0), (2.0, 0), (3.0, 0)])
        with pytest.raises(EstimationError, match="no events"):
            select_threshold(sample, ThresholdConfig(min_exceedances=2))

    def test_explicit_mode_counts_exceedances(self):
        sample = make_sample([(float(i), 1) for i in range(1, 21)])
        config = ThresholdConfig(explicit_value=5.0, min_exceedances=10)
        assert select_threshold(sample, config) == 5.0
        too_high = ThresholdConfig(explicit_value=15.0, min_exceedances=10)
        with pytest.raises(EstimationError, match="threshold too high"):
            select_threshold(sample, too_high)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ThresholdConfig(quantile=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(quantile=1.0)
        with pytest.raises(ValueError):
            ThresholdConfig(min_exceedances=1)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="explicit_value must be finite and >= 0"):
                ThresholdConfig(explicit_value=bad)


class TestFitHybridMrl:
    def test_value_at_threshold_is_tail_mean_exactly(self):
        curve = fit_hybrid_mrl(exponential_sample(0))
        assert curve.grid[-1] == curve.threshold
        assert curve.values[-1] == gpd_mrl_at_threshold(curve.gpd)
        assert curve.km_component[-1] == 0.0

    def test_decomposition_identity_zero_tolerance(self):
        curve = fit_hybrid_mrl(exponential_sample(1))
        for v, k, g in zip(curve.values, curve.km_component, curve.tail_component):
            assert v == k + g

    def test_default_grid_contents(self):
        sample = exponential_sample(2, n=200)
        curve = fit_hybrid_mrl(sample)
        assert curve.grid[0] == 0.0
        assert curve.grid[-1] == curve.threshold
        assert all(a < b for a, b in zip(curve.grid, curve.grid[1:]))
        inside = set(sample.times[sample.times <= curve.threshold].tolist())
        assert inside <= set(curve.grid)

    def test_custom_grid_is_clamped_and_closed_with_threshold(self):
        sample = exponential_sample(3, n=400)
        curve = fit_hybrid_mrl(sample, grid=(0.5, 1.0, 99.0))
        assert curve.grid[0] == 0.5
        assert curve.grid[-1] == curve.threshold
        assert 99.0 not in curve.grid

    def test_determinism_bitwise(self):
        sample = exponential_sample(4)
        assert fit_hybrid_mrl(sample) == fit_hybrid_mrl(sample)

    def test_tail_component_nondecreasing(self):
        curve = fit_hybrid_mrl(exponential_sample(6))
        assert all(a <= b for a, b in zip(curve.tail_component, curve.tail_component[1:]))

    def test_all_values_nonnegative(self):
        curve = fit_hybrid_mrl(exponential_sample(7))
        assert min(curve.values) >= 0.0

    def test_evaluate_matches_grid_bitwise(self):
        curve = fit_hybrid_mrl(exponential_sample(8, n=400))
        for t, v in list(zip(curve.grid, curve.values))[::25]:
            assert evaluate_mrl(curve, t) == v

    def test_evaluate_whole_grid_equals_values_exactly(self):
        curve = fit_hybrid_mrl(exponential_sample(8, n=400))
        assert evaluate_mrl(curve, np.array(curve.grid)).tolist() == list(curve.values)

    def test_evaluate_scalar_and_array_agree_in_any_batch_order(self):
        curve = fit_hybrid_mrl(exponential_sample(10, n=400))
        rng = np.random.default_rng(10)
        points = np.concatenate((rng.uniform(0.0, curve.threshold, 50), curve.grid[::7]))
        batch = evaluate_mrl(curve, points)
        order = rng.permutation(points.size)
        assert evaluate_mrl(curve, points[order]).tolist() == batch[order].tolist()
        for t, v in zip(points.tolist(), batch.tolist()):
            scalar = evaluate_mrl(curve, t)
            assert type(scalar) is float and scalar == v

    def test_evaluate_outside_domain_rejected(self):
        curve = fit_hybrid_mrl(exponential_sample(9, n=400))
        with pytest.raises(EstimationError, match="outside the fitted MRL domain"):
            evaluate_mrl(curve, curve.threshold * 1.5)
        beyond = curve.threshold * 1.5
        with pytest.raises(EstimationError, match=f"^t={re.escape(repr(beyond))} outside"):
            evaluate_mrl(curve, np.array([0.0, beyond, -1.0]))

    def test_evaluate_where_survival_is_zero_rejected(self):
        # the survival reaches 0 at t = 1, below the threshold 2
        curve = MrlCurve(
            grid=[0.0],
            values=[1.0],
            km_component=[0.0],
            tail_component=[1.0],
            threshold=2.0,
            gpd=GpdFit(0.0, 1.0, 10, 10, 0.0, True),
            survival=StepFunction([1.0], [0.0], 1.0),
        )
        with pytest.raises(EstimationError, match=r"^MRL undefined at t=1\.5: zero survival$"):
            evaluate_mrl(curve, 1.5)

    def test_km_component_bounded_by_window_length(self):
        for seed in range(20):
            curve = fit_hybrid_mrl(exponential_sample(100 + seed, n=200))
            for t, k in zip(curve.grid, curve.km_component):
                assert 0.0 <= k <= (curve.threshold - t) + 1e-12

    def test_propagates_threshold_errors(self):
        sample = make_sample([(1.0, 1), (2.0, 1)])
        with pytest.raises(EstimationError, match="threshold too high"):
            fit_hybrid_mrl(sample)


class TestRecoveryAgainstQuadratureOracle:
    def test_exponential_matches_integral_of_true_survival(self):
        mean = 2.0
        errors = []
        for seed in range(20):
            curve = fit_hybrid_mrl(exponential_sample(seed, n=2000))
            survival = lambda s: np.exp(-s / mean)
            for t, v in list(zip(curve.grid, curve.values))[::40]:
                if t >= curve.threshold:
                    continue
                truth = true_mrl_by_quadrature(survival, t, 60.0 * mean)
                errors.append(abs(v - truth) / truth)
        assert np.median(errors) < 0.10

    def test_uniform_matches_integral_of_true_survival(self):
        b = 10.0
        errors = []
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            sample = make_sample([(float(x), 1) for x in rng.uniform(0.0, b, 2000)])
            curve = fit_hybrid_mrl(sample)
            survival = lambda s: max(0.0, 1.0 - s / b)
            for t, v in list(zip(curve.grid, curve.values))[::40]:
                if t >= curve.threshold:
                    continue
                truth = true_mrl_by_quadrature(survival, t, b)
                errors.append(abs(v - truth) / truth)
        assert np.median(errors) < 0.10

    def test_uniform_curve_decreasing_and_close_on_lower_half(self):
        b = 10.0
        rng = np.random.default_rng(77)
        sample = make_sample([(float(x), 1) for x in rng.uniform(0.0, b, 2000)])
        curve = fit_hybrid_mrl(sample)
        lower_half = [(t, v) for t, v in zip(curve.grid, curve.values) if t <= b / 2]
        for t, v in lower_half:
            truth = (b - t) / 2.0
            assert abs(v - truth) / truth < 0.15
        values = [v for _, v in lower_half]
        assert values[-1] < values[0]
        slope = np.polyfit([t for t, _ in lower_half], values, 1)[0]
        assert slope < 0
