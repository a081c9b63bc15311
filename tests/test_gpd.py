import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from survmrl import (
    EstimationError,
    GpdFit,
    SurvivalSample,
    ThresholdConfig,
    fit_gpd,
    fit_hybrid_mrl,
    gpd_log_likelihood,
    gpd_mrl_at_threshold,
    load_dataset,
    select_threshold,
)
from survmrl import gpd

from optimize_reference import score_root_shape
from test_optimize import LOWER_SHAPE_BOUND, TWO_MODES, _censored_tail


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
        fit = fit_gpd(x, np.ones(x.size))
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

    def test_a_decimal_change_of_unit_moves_the_shape_only_by_rounding(self):
        rng = np.random.default_rng(6)
        x = gpd_draw(rng, 0.2, 1.5, 800)
        shape = fit_gpd(x, np.ones(x.size)).shape
        for c in [37.0] + [10.0**k for k in range(-21, 22)]:
            assert fit_gpd(x * c, np.ones(x.size)).shape == pytest.approx(shape, rel=1e-12)

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


@st.composite
def censored_tails(draw):
    """(excess, status) of a tail ``fit_gpd`` accepts: at least two
    exceedances, often tied, with all events, random censoring, or one
    event among censorings."""
    m = draw(st.integers(2, 300))
    distinct = draw(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=m))
    excess = draw(st.lists(st.sampled_from([0.0, *distinct]), min_size=m, max_size=m))
    excess[0] = distinct[0]  # the mean excess stays positive
    status = draw(
        st.one_of(
            st.just([1] * m),
            st.lists(st.integers(0, 1), min_size=m, max_size=m).filter(any),
            st.integers(0, m - 1).map(lambda i: [int(j == i) for j in range(m)]),
        )
    )
    return excess, status


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tail=censored_tails(), block_rows=st.sampled_from([None, 1, 5]))
@example(tail=_censored_tail(*TWO_MODES), block_rows=None)
@example(tail=_censored_tail(*LOWER_SHAPE_BOUND), block_rows=5)
def test_array_scan_matches_the_per_point_profile(tail, block_rows):
    # a tail this short is scanned in one block unless the budget is cut to
    # one row per block, or to five, which leaves a last block of two rows
    excess, status = gpd._tail_sample(*tail)
    profile = gpd._Profile(excess, status, float(np.sum(status)))
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(gpd, "_SCAN_ELEMENTS", block_rows * excess.size)
        points, values = profile.scan()
    assert np.array_equal(values, [profile(s)[0] for s in points])


# The score's rounding noise puts its sign in doubt within about 1e-13
# relative of the root (the fits below land within 2e-14 of the oracle),
# while a search that stops on the profile's flat top, as a maximiser does,
# lands up to 1.7e-7 away on these tails. A fit on the clip has no root;
# most short tied tails drawn by censored_tails() end there, so GPD draws
# join them.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    tail=st.one_of(
        censored_tails(),
        st.builds(
            _censored_tail,
            st.integers(0, 2**32 - 1),
            st.floats(-0.8, 0.8),
            st.floats(-8.0, 8.0),
            st.integers(10, 300),
            st.floats(0.0, 2.0),
        ),
    )
)
def test_fit_gpd_is_at_the_root_of_the_score(tail):
    try:
        shape = fit_gpd(*tail).shape
    except EstimationError:
        return
    if abs(shape) == gpd._OPEN_BOUND:
        return
    assert shape == pytest.approx(score_root_shape(*tail), rel=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tail=censored_tails(), k=st.sampled_from([-7, -1, 1, 3, 20]))
def test_fits_are_bitwise_equivariant_under_a_power_of_two_unit(tail, k):
    # every w = (t / max x) * x, and so the whole search, is bitwise the same
    # in the new unit; the scale and the MRL curve are bitwise 2**k times
    excess, status = np.array(tail[0]), tail[1]
    try:
        fit = fit_gpd(excess, status)
    except EstimationError:
        assume(False)
    scaled = fit_gpd(np.ldexp(excess, k), status)
    assert (scaled.shape, scaled.scale) == (fit.shape, np.ldexp(fit.scale, k))
    config = ThresholdConfig(min_exceedances=2)
    try:
        curve = fit_hybrid_mrl(SurvivalSample(excess, status), config)
    except EstimationError:
        return
    scaled = fit_hybrid_mrl(SurvivalSample(np.ldexp(excess, k), status), config)
    assert scaled.gpd.shape == curve.gpd.shape
    for name in ("grid", "values", "km_component", "tail_component"):
        assert np.array_equal(getattr(scaled, name), np.ldexp(getattr(curve, name), k)), name


def test_the_score_is_the_slope_of_the_profile():
    # a central difference in t, on an interior and a clipped stretch of the
    # profile, and the limit the score takes at t = 0
    h = 1e-6
    for tail in (TWO_MODES, LOWER_SHAPE_BOUND, (5, 0.1, 0.0, 200, 0.3)):
        excess, status = gpd._tail_sample(*_censored_tail(*tail))
        profile = gpd._Profile(excess, status, float(np.sum(status)))
        points, _ = profile.scan()
        for s in [*points[1:-1:3], 0.0]:
            slope = (profile(s + h)[0] - profile(s - h)[0]) / (math.expm1(s + h) - math.expm1(s - h))
            assert profile.score(s) == pytest.approx(slope, rel=1e-5, abs=1e-5)


def test_a_root_at_theta_zero_ends_the_search(monkeypatch):
    # k * sum(y^2) = 2 * sum(y)^2 over all-event excesses puts the root of the
    # score at t = 0, where rounding swamps it; the floor under the search's
    # stop ends it there in a few dozen steps
    x = np.random.default_rng(0).exponential(1.0, 199)
    m, total, squares = 200, x.sum(), (x * x).sum()
    a, b, c = m - 2.0, -4.0 * total, m * squares - 2.0 * total * total
    x = np.append(x, (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a))
    score, calls = gpd._Profile.score, []
    monkeypatch.setattr(gpd._Profile, "score", lambda self, s: calls.append(s) or score(self, s))
    fit = fit_gpd(x, np.ones(m))
    assert abs(fit.shape) < 1e-7
    assert len(calls) < 100


def test_the_profile_at_theta_zero_is_the_exponential_fit():
    # s = 0 is theta = 0, where the shape is 0 and the profile takes the
    # exponential limit's branch; either side of it the general formula
    # must meet that branch. The profile leaves out the constant
    # -k * log(max x), so it is the log likelihood plus k * log(max x).
    x, status, k = [0.4, 1.9, 0.2, 0.7], [1, 0, 1, 1], 3.0
    profile = gpd._Profile(np.array(x), np.array(status, dtype=float), k)
    scale = sum(x) / k
    at_zero = profile(0.0)
    assert at_zero == (-k * math.log(scale / max(x)) - k, 0.0, scale)
    assert at_zero[0] - k * math.log(max(x)) == pytest.approx(gpd_log_likelihood(x, status, 0.0, scale), rel=1e-15)
    for s in (1e-9, -1e-9):
        assert abs(profile(s)[0] - at_zero[0]) < 4e-10


def test_a_long_tail_fit_peaks_below_16_mib():
    # the scan holds one block of rows at a time; as one (32, m) array it
    # made this fit peak at 50.4 MiB
    excess = np.random.default_rng(31).pareto(4.0, 200_000)
    status = np.ones(excess.size)
    # under -X tracemalloc tracing is already on: measure from the memory
    # held now and leave tracing on for the runner
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fit_gpd(excess, status)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("name", ["two_groups.csv", "tail_ties.csv"])
def test_fit_evaluates_at_most_70_profile_points(name, monkeypatch):
    # 32 scan points, the theta_hi doublings, the score at both ends of each
    # scan maximum's bracket, the root search and the final evaluations (50-55
    # points here); Brent's parabolic search took 57-62, golden-section steps 86-88
    log1p, points = np.log1p, []

    def counting_log1p(x, *args, **kwargs):
        points.append(len(x) if np.ndim(x) == 2 else 1)
        return log1p(x, *args, **kwargs)

    monkeypatch.setattr(gpd.np, "log1p", counting_log1p)
    for sample in load_dataset(Path(__file__).resolve().parent.parent / "sample_data" / name).values():
        u = select_threshold(sample, ThresholdConfig())
        above = sample.times > u
        points.clear()
        fit_gpd(sample.times[above] - u, sample.statuses[above])
        assert 32 < sum(points) <= 70


class TestMrlAtThreshold:
    def test_exponential_mean(self):
        fit = GpdFit(0.0, 1.0, 10, 10, 0.0, True)
        assert gpd_mrl_at_threshold(fit) == 1.0

    def test_direct_substitution(self):
        fit = GpdFit(0.5, 2.0, 10, 10, 0.0, True)
        assert gpd_mrl_at_threshold(fit) == 4.0

    def test_unit_shape_is_error(self):
        fit = GpdFit(1.0, 2.0, 10, 10, 0.0, True)
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
