import math
import warnings

import numpy as np
import pytest

from survmrl import (
    EstimationError,
    GpdFit,
    fit_gpd,
    gpd_log_likelihood,
    gpd_mrl_at_threshold,
)


def gpd_draw(rng, shape, scale, n):
    """Inverse-CDF sampler: x = scale/shape * ((1-u)^(-shape) - 1)."""
    u = rng.uniform(size=n)
    if abs(shape) < 1e-12:
        return rng.exponential(scale, n)
    return scale / shape * ((1.0 - u) ** (-shape) - 1.0)


def direct_log_density(t, shape, scale):
    """Straight transcription of the GPD density, log-transformed last."""
    return math.log((1.0 / scale) * (1.0 + shape * t / scale) ** (-1.0 / shape - 1.0))


class TestLogLikelihood:
    def test_exponential_event(self):
        assert gpd_log_likelihood([1.0], [1], 0.0, 1.0) == -1.0

    def test_exponential_censored(self):
        assert gpd_log_likelihood([1.0], [0], 0.0, 1.0) == -1.0

    def test_event_with_positive_shape(self):
        value = gpd_log_likelihood([1.0], [1], 0.5, 2.0)
        assert value == pytest.approx(math.log(0.5 * 1.25**-3), rel=1e-12)

    def test_outside_support_signals_minus_inf(self):
        assert gpd_log_likelihood([5.0], [1], -0.5, 1.0) == -math.inf

    @pytest.mark.parametrize("shape, scale", [(0.5, 1e-10), (0.0, 1e-10), (-0.5, 1e-10), (10.0, 1e-8)])
    @pytest.mark.parametrize("flags", [[1, 0], [1, 1]])
    def test_overflowing_excess_over_scale_is_minus_inf(self, shape, scale, flags):
        # 1e300 / 1e-10, or 10 * 1e300 / 1e-8, overflows: zero density and
        # zero survival, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gpd_log_likelihood([1.0, 1e300], flags, shape, scale) == -math.inf

    def test_nonpositive_scale_signals_minus_inf(self):
        assert gpd_log_likelihood([1.0], [1], 0.1, 0.0) == -math.inf

    def test_matches_direct_density_sum_uncensored(self):
        rng = np.random.default_rng(2)
        for shape in (-0.4, -0.1, 0.1, 0.3, 0.7):
            for scale in (0.5, 1.0, 3.0):
                x = gpd_draw(rng, shape, scale, 40)
                expected = sum(direct_log_density(float(v), shape, scale) for v in x)
                got = gpd_log_likelihood(x, np.ones(x.size), shape, scale)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_censored_terms_are_log_survival(self):
        # survival of GPD: (1 + shape*t/scale)^(-1/shape)
        t, shape, scale = 2.0, 0.3, 1.5
        expected = (-1.0 / shape) * math.log(1.0 + shape * t / scale)
        assert gpd_log_likelihood([t], [0], shape, scale) == pytest.approx(
            expected, rel=1e-14
        )

    def test_continuity_at_small_shape_cutoff(self):
        from survmrl.gpd import SMALL_SHAPE_CUTOFF

        for t in (0.0, 0.5, 1.0, 10.0, 100.0):
            for scale in (0.1, 1.0, 10.0):
                for status in (0, 1):
                    at_zero = gpd_log_likelihood([t], [status], 0.0, scale)
                    for eps in (SMALL_SHAPE_CUTOFF, -SMALL_SHAPE_CUTOFF):
                        near = gpd_log_likelihood([t], [status], eps, scale)
                        assert abs(near - at_zero) < 1e-8


class TestFitGpd:
    def test_single_exceedance_rejected(self):
        with pytest.raises(EstimationError, match="insufficient tail data"):
            fit_gpd([1.0], [1])

    def test_all_censored_rejected(self):
        with pytest.raises(EstimationError, match="all tail observations censored"):
            fit_gpd([1.0, 2.0], [0, 0])

    def test_exponential_sample_recovers_rate(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, 2000)
        fit = fit_gpd(x, np.ones(x.size))
        assert abs(fit.shape) < 0.1
        assert abs(fit.scale - x.mean()) < 0.05
        assert fit.converged
        assert fit.n_exceedances == 2000
        assert fit.n_tail_events == 2000

    def test_log_likelihood_field_matches_function(self):
        rng = np.random.default_rng(8)
        x = rng.exponential(2.0, 200)
        fit = fit_gpd(x, np.ones(x.size), threshold=3.0)
        assert fit.threshold == 3.0
        assert fit.log_likelihood == gpd_log_likelihood(x, np.ones(x.size), fit.shape, fit.scale)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(17)
        x = gpd_draw(rng, 0.25, 2.0, 400)
        status = np.ones(x.size)
        fit = fit_gpd(x, status)
        mean = x.mean()
        best = -math.inf
        for shape in np.linspace(-0.9, 0.9, 120):
            for scale in np.linspace(0.1 * mean, 10 * mean, 120):
                best = max(best, gpd_log_likelihood(x, status, float(shape), float(scale)))
        assert fit.log_likelihood >= best - 1e-6

    def test_censored_fit_beats_grid_search(self):
        rng = np.random.default_rng(23)
        x = gpd_draw(rng, 0.1, 2.0, 300)
        c = rng.exponential(6.0, 300)
        excess = np.minimum(x, c)
        status = (x <= c).astype(int)
        fit = fit_gpd(excess, status)
        mean = excess.mean()
        best = -math.inf
        for shape in np.linspace(-0.9, 0.9, 120):
            for scale in np.linspace(0.1 * mean, 10 * mean, 120):
                best = max(best, gpd_log_likelihood(excess, status, float(shape), float(scale)))
        assert fit.log_likelihood >= best - 1e-6

    def test_consistency_short_study(self):
        shapes, scales = [], []
        for seed in range(3):
            rng = np.random.default_rng(500 + seed)
            x = gpd_draw(rng, 0.25, 2.0, 5000)
            fit = fit_gpd(x, np.ones(x.size))
            shapes.append(fit.shape)
            scales.append(fit.scale)
        assert np.mean(np.abs(np.array(shapes) - 0.25)) < 0.05
        assert np.mean(np.abs(np.array(scales) - 2.0)) < 0.15

    def test_scaling_data_scales_scale_only(self):
        rng = np.random.default_rng(6)
        x = gpd_draw(rng, 0.2, 1.5, 800)
        fit1 = fit_gpd(x, np.ones(x.size))
        for c in [37.0] + [10.0**k for k in range(-21, 22)]:
            fit2 = fit_gpd(x * c, np.ones(x.size))
            assert fit2.converged
            assert fit2.shape == pytest.approx(fit1.shape, abs=1e-4)
            assert fit2.scale == pytest.approx(fit1.scale * c, rel=1e-4)

    @pytest.mark.parametrize("c", [1e-25, 1e25, 1e299])
    def test_data_scale_outside_the_scale_range_is_an_error(self, c):
        rng = np.random.default_rng(6)
        x = gpd_draw(rng, 0.2, 1.5, 800)
        with pytest.raises(EstimationError, match=r"mean tail excess .* outside the fitted scale range"):
            fit_gpd(x * c, np.ones(x.size))

    @pytest.mark.parametrize("value, shown", [(0.0, "0.0"), (1e308, "inf")])
    def test_degenerate_mean_excess_is_an_error(self, value, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing mean is no RuntimeWarning
            with pytest.raises(EstimationError, match=rf"mean tail excess {shown} outside the fitted scale range"):
                fit_gpd([value, value], [1, 1])

    def test_fit_on_the_scale_range_edge_is_an_error(self):
        # the mean excess is just inside exp(-50), the fitted scale below it
        rng = np.random.default_rng(6)
        x = gpd_draw(rng, 0.2, 1.5, 800)
        x *= math.exp(-49.9) / x.mean()
        with pytest.raises(EstimationError, match="tail scale fit at the edge of the fitted scale range"):
            fit_gpd(x, np.ones(x.size))

    def test_uniform_tail_rests_near_lower_bound(self):
        # uniform excesses correspond to shape -1; the constrained fit sits
        # near the box edge but stays a usable finite-mean result
        rng = np.random.default_rng(12)
        values = rng.uniform(0.0, 1.0, 400)
        fit = fit_gpd(values, np.ones(values.size))
        assert -0.99 < fit.shape < -0.8
        # tail mean of a uniform excess sample is about half its range
        assert gpd_mrl_at_threshold(fit) == pytest.approx(0.5, abs=0.1)

    def test_very_heavy_tail_is_infinite_mean_error(self):
        rng = np.random.default_rng(13)
        x = gpd_draw(rng, 2.5, 1.0, 500)
        with pytest.raises(EstimationError, match="infinite-mean tail fit"):
            fit_gpd(x, np.ones(x.size))


class TestMrlAtThreshold:
    def test_exponential_mean(self):
        fit = GpdFit(0.0, 1.0, 0.0, 10, 10, 0.0, True)
        assert gpd_mrl_at_threshold(fit) == 1.0

    def test_direct_substitution(self):
        fit = GpdFit(0.5, 2.0, 0.0, 10, 10, 0.0, True)
        assert gpd_mrl_at_threshold(fit) == 4.0

    def test_unit_shape_is_error(self):
        fit = GpdFit(1.0, 2.0, 0.0, 10, 10, 0.0, True)
        with pytest.raises(EstimationError, match="infinite mean residual life"):
            gpd_mrl_at_threshold(fit)


@pytest.mark.parametrize(
    "function",
    [fit_gpd, lambda excess, status: gpd_log_likelihood(excess, status, 0.1, 1.0)],
    ids=["fit_gpd", "gpd_log_likelihood"],
)
def test_invalid_tail_sample_rejected(function):
    with pytest.raises(ValueError, match=r"excess must be finite and >= 0, got -0\.5"):
        function([1.0, -0.5, -2.0], [1, 1, 1])
    with pytest.raises(ValueError, match=r"excess must be finite and >= 0, got nan"):
        function([1.0, float("nan")], [1, 1])
    with pytest.raises(ValueError, match="status must be 0 or 1, got 2"):
        function([1.0, 2.0, 3.0], [1, 2, 3])
    with pytest.raises(ValueError, match="equal length"):
        function([1.0, 2.0], [1])
