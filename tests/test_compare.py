import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from survmrl import (
    ComparisonCurve,
    EstimationError,
    PlotSeries,
    SurvivalSample,
    SurvmrlError,
    bootstrap_proportion_cis,
    fit_hybrid_mrl,
    km_fit,
    mrl_difference,
    permutation_envelope,
    survival_difference,
    survival_ratio,
)
from survmrl import compare
from survmrl.compare import _band, _pool, _relabelled_values, bootstrap_indices, replicate_streams
from survmrl.km import risk_counts, sorted_grid
from km_reference import event_bins as reference_bins, product_limit


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


def reference_band(replicates, quantiles):
    """``_band`` as one ``np.quantile`` call per column, over that column's
    defined values."""
    defined = np.isfinite(replicates)
    band = np.full((2, replicates.shape[1]), np.nan)
    for i in range(replicates.shape[1]):
        col = replicates[defined[:, i], i]
        if col.size:
            band[:, i] = np.quantile(col, quantiles)
    return band[0], band[1], defined.sum(axis=0)


def reference_envelope(sample_a, sample_b, kind, n_permutations, seed, grid, band_quantiles):
    """The envelope as one product-limit fit per relabelled group and
    ``reference_band``'s per-point ``np.quantile``; returns (lower, upper,
    defined_counts). The relabelling envelope must match it bit for bit."""
    times = np.concatenate((sample_a.times, sample_b.times))
    statuses = np.concatenate((sample_a.statuses, sample_b.statuses))
    replicates = np.empty((n_permutations, grid.size))
    for b in range(n_permutations):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        perm = rng.permutation(len(times))
        curves = []
        for members in (perm[: sample_a.n], perm[sample_a.n :]):
            order = np.argsort(times[members], kind="stable")
            knots, _, _, surv = product_limit(times[members][order], statuses[members][order])
            curves.append(np.concatenate(([1.0], surv))[np.searchsorted(knots, grid, side="right")])
        s_a, s_b = curves
        if kind == "surv_diff":
            replicates[b] = s_a - s_b
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = s_a / s_b
            ratio[s_b == 0.0] = np.nan
            replicates[b] = ratio
    return reference_band(replicates, band_quantiles)


def on_grid(grid):
    """A comparison curve on ``grid``'s distinct points, for an envelope to band."""
    grid = sorted_grid(grid)
    return ComparisonCurve(grid=grid, values=np.zeros(grid.size))


def assert_matches_reference(a, b, kind, n_permutations, seed, curve, band_quantiles):
    env = permutation_envelope(
        a, b, kind, n_permutations=n_permutations, seed=seed, curve=curve, band_quantiles=band_quantiles
    )
    lower, upper, counts = reference_envelope(
        a, b, kind, n_permutations, seed, np.array(env.grid), band_quantiles
    )
    assert np.array(env.lower).tobytes() == lower.tobytes()
    assert np.array(env.upper).tobytes() == upper.tobytes()
    assert np.array_equal(env.defined_counts, counts)
    assert env.n_permutations == n_permutations
    if curve is not None:
        assert env.grid.tobytes() == curve.grid.tobytes() and env.values.tobytes() == curve.values.tobytes()
    return env


SAMPLE_A = make_sample([(2, 1), (3, 0), (4, 1), (5, 1)])
SAMPLE_B = make_sample([(1, 1), (2, 1), (3, 1)])
# A's follow-up ends at 2, before B's only event at 3: no common window.
NO_OVERLAP_A = make_sample([(1, 0), (2, 0)])
NO_OVERLAP_B = make_sample([(3, 1), (4, 0)])


@pytest.mark.parametrize("grid", [[3.0, 1.0, 1.0, -2.0], [0.0, -0.0], [1.0, math.inf], [math.nan]])
def test_a_comparison_curve_refuses_the_grids_a_plot_series_refuses(grid):
    # a band and its CSV rows follow the grid's order, so an unordered grid must not get that far
    values = [0.0] * len(grid)
    for make in (ComparisonCurve, lambda **kwargs: PlotSeries("a", **kwargs)):
        with pytest.raises(ValueError, match="^a grid must be finite and strictly increasing$"):
            make(grid=grid, values=values)


@st.composite
def sample_pairs(draw):
    """Two samples of 1-30 rows each, with times from a few values (0.0 and
    -0.0 among them) or continuous, so that ties fall within and across the
    groups; statuses all events, all censored, or mixed."""
    time = st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 2.0, 1e300]) if draw(st.booleans()) else st.floats(0.0, 10.0)
    samples = []
    for _ in range(2):
        n = draw(st.integers(1, 30))
        status = draw(st.sampled_from([st.just(0), st.just(1), st.integers(0, 1)]))
        pairs = draw(st.lists(st.tuples(time, status), min_size=n, max_size=n))
        samples.append(make_sample(pairs))
    return samples


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sample_pairs(), st.lists(st.floats(0.0, 12.0), min_size=1, max_size=5))
def test_pool_matches_the_unsorted_reference_bitwise(samples, grid):
    a, b = samples
    times = np.concatenate((a.times, b.times))
    event_times, past, death_at = reference_bins(times, np.concatenate((a.statuses, b.statuses)) == 1)
    at_risk, deaths = np.empty((2, event_times.size), dtype=np.int64)
    risk_counts(past, death_at, at_risk, deaths)
    grid = sorted_grid(grid)
    pool = _pool(a, b, grid)
    assert pool.n_a == a.n
    expected = (past, death_at, at_risk, deaths, np.searchsorted(event_times, grid, side="right"))
    for column, reference in zip(pool[1:], expected):
        assert column.dtype == reference.dtype
        assert column.tobytes() == reference.tobytes()


class TestSurvivalDifference:
    def test_identical_samples_give_zero(self):
        curve = survival_difference(km_fit(SAMPLE_A), km_fit(SAMPLE_A))
        assert set(curve.values) == {0.0}

    def test_extreme_difference_is_minus_one(self):
        all_die_at_one = km_fit(make_sample([(1, 1), (1, 1)]))
        none_die = km_fit(make_sample([(2, 0), (2, 0)]))
        curve = survival_difference(all_die_at_one, none_die, grid=(1.5,))
        assert np.array_equal(curve.values, [-1.0])

    def test_hand_computed_values(self):
        curve = survival_difference(km_fit(SAMPLE_A), km_fit(SAMPLE_B), grid=(2.5,))
        assert curve.values[0] == pytest.approx(0.75 - 1 / 3, rel=1e-12)

    def test_default_grid_union_truncated(self):
        curve = survival_difference(km_fit(SAMPLE_A), km_fit(SAMPLE_B))
        # A event times {2,4,5}, B {1,2,3}; B follow-up ends at 3
        assert np.array_equal(curve.grid, [1.0, 2.0, 3.0])

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
            assert np.array_equal(ab.grid, ba.grid)
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

    def test_empty_window_is_error(self):
        with pytest.raises(EstimationError, match="^no common follow-up window$"):
            survival_ratio(km_fit(NO_OVERLAP_A), km_fit(NO_OVERLAP_B))

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

    def test_descending_band_quantiles_rejected(self):
        with pytest.raises(EstimationError, match=r"^invalid band quantiles \(0\.9, 0\.1\)$"):
            permutation_envelope(SAMPLE_A, SAMPLE_B, "surv_diff", n_permutations=10, seed=1, band_quantiles=(0.9, 0.1))

    def test_mrl_diff_kind_rejected(self):
        a, b = exponential_sample(0), exponential_sample(1)
        with pytest.raises(EstimationError, match="no envelope defined"):
            permutation_envelope(a, b, "mrl_diff", n_permutations=10, seed=1)

    @pytest.mark.parametrize("kind", ["surv_diff", "surv_ratio"])
    def test_default_grid_in_empty_window_is_error(self, kind):
        with pytest.raises(EstimationError, match="^no common follow-up window$"):
            permutation_envelope(NO_OVERLAP_A, NO_OVERLAP_B, kind, n_permutations=10, seed=1)

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
        pool = _pool(a, b, np.array(env.grid))
        stacked = np.empty((50, env.grid.size))
        _relabelled_values(pool, "surv_diff", replicate_streams(11, range(49, -1, -1)), stacked)
        assert np.quantile(stacked, 0.025, axis=0) == pytest.approx(env.lower, abs=0.0)
        assert np.quantile(stacked, 0.975, axis=0) == pytest.approx(env.upper, abs=0.0)

    def test_ratio_reports_degraded_defined_counts(self):
        # all-event groups: permuted denominators hit zero at the top of the grid
        a = make_sample([(float(t), 1) for t in (1, 2, 3, 4, 5)])
        b = make_sample([(float(t), 1) for t in (1.5, 2.5, 3.5, 4.5, 5.5)])
        env = permutation_envelope(a, b, "surv_ratio", n_permutations=300, seed=2)
        assert env.defined_counts[-1] < 300
        assert min(env.defined_counts) >= 0

    def test_observed_curve_mostly_inside_under_null(self):
        a, b = exponential_sample(20), exponential_sample(21)
        observed = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(a, b, "surv_diff", n_permutations=400, seed=7)
        assert np.array_equal(env.grid, observed.grid)
        inside = [
            lo <= v <= hi for v, lo, hi in zip(observed.values, env.lower, env.upper)
        ]
        assert np.mean(inside) >= 0.85

    @pytest.mark.parametrize("kind", ["surv_diff", "surv_ratio"])
    def test_many_quantile_blocks_match_reference(self, kind):
        # more than two 256-column blocks, ties, and (ratio, all events)
        # columns whose defined count falls step by step to zero
        rng = np.random.default_rng(13)
        a = SurvivalSample(np.round(rng.exponential(1.0, 300), 2), np.ones(300, dtype=int))
        b = SurvivalSample(np.round(rng.exponential(1.5, 250), 2), rng.random(250) < 0.7)
        grid = np.linspace(0.0, 1.2 * max(a.times[-1], b.times[-1]), 700)
        env = assert_matches_reference(a, b, kind, 40, 17, on_grid(grid), (0.05, 0.9))
        if kind == "surv_ratio":
            assert env.defined_counts[-1] < 40 and len(set(env.defined_counts)) > 3

    def test_no_runtime_warning(self):
        # all-event groups; the grid runs past every subject, where no
        # ratio replicate is defined
        a = make_sample([(float(t), 1) for t in (1, 1, 2, 3, 3, 4)])
        b = make_sample([(float(t), 1) for t in (1, 2, 2, 3, 5)])
        grid = (0.0, 1.0, 2.5, 4.0, 5.0, 9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diff = permutation_envelope(a, b, "surv_diff", n_permutations=30, seed=4, curve=on_grid(grid))
            ratio = permutation_envelope(a, b, "surv_ratio", n_permutations=30, seed=4, curve=on_grid(grid))
        assert np.array_equal(diff.defined_counts, [30] * len(grid))
        assert ratio.defined_counts[-1] == 0
        assert np.isnan(ratio.lower[-1]) and np.isnan(ratio.upper[-1])
        assert ratio.defined_counts[0] == 30


TIES = [0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 3.0, 4.5, 7.0]


@st.composite
def envelope_cases(draw):
    """Two small samples (tie-heavy or continuous times, sometimes every
    subject an event), a kind, B, a seed, band quantiles and maybe a curve
    on a drawn grid."""
    time = st.sampled_from(TIES) if draw(st.booleans()) else st.floats(0.0, 10.0)

    def sample(n):
        times = draw(st.lists(time, min_size=n, max_size=n))
        all_events = draw(st.booleans())
        statuses = [1] * n if all_events else draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        return SurvivalSample(times, statuses)

    n_a = draw(st.integers(1, 15))
    a, b = sample(n_a), sample(draw(st.integers(max(1, 4 - n_a), 15)))
    bound = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    lo, hi = sorted((draw(bound), draw(bound)))
    if lo == hi:
        lo, hi = 0.0, max(hi, 0.5)
    grid = draw(st.none() | st.lists(st.sampled_from(TIES) | st.floats(0.0, 12.0), min_size=1, max_size=15))
    return dict(
        a=a,
        b=b,
        kind=draw(st.sampled_from(["surv_diff", "surv_ratio"])),
        n_permutations=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**63)),
        curve=None if grid is None else on_grid(grid),
        band_quantiles=(lo, hi),
    )


# Pooled event times 1, 1.5, 2, 2.5, 3 and 3.5; A follows up to 4, B to 3.5.
GRID_A = make_sample([(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 0)])
GRID_B = make_sample([(1.5, 1), (2.5, 1), (3.5, 1)])
# Each grid with the pooled event-time bins (``_Pool.at_grid``) it reads:
# the levels are read as a slice only where every step is exactly 1.
GRID_SHAPES = {
    "span of a run, not a run": ([1.0, 1.2, 2.0], [1, 1, 3]),
    "before the first event": ([0.0, 0.5, 1.0], [0, 0, 1]),
    "empty": ([], []),
    "past both follow-ups": ([10.0, 20.0], [6, 6]),
    "default prefix": (None, [1, 2, 3, 4, 5, 6]),
}


def grid_case(kind, shape):
    grid = GRID_SHAPES[shape][0]
    curve = None if grid is None else on_grid(grid)
    return dict(a=GRID_A, b=GRID_B, kind=kind, n_permutations=20, seed=3, curve=curve, band_quantiles=(0.1, 0.9))


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_shape_examples_read_the_bins_they_name(shape):
    grid, bins = GRID_SHAPES[shape]
    if grid is None:
        grid = survival_difference(km_fit(GRID_A), km_fit(GRID_B)).grid
    assert _pool(GRID_A, GRID_B, sorted_grid(grid)).at_grid.tolist() == bins


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=envelope_cases())
@example(case=grid_case("surv_diff", "span of a run, not a run"))
@example(case=grid_case("surv_ratio", "span of a run, not a run"))
@example(case=grid_case("surv_diff", "before the first event"))
@example(case=grid_case("surv_ratio", "before the first event"))
@example(case=grid_case("surv_diff", "empty"))
@example(case=grid_case("surv_ratio", "empty"))
@example(case=grid_case("surv_diff", "past both follow-ups"))
@example(case=grid_case("surv_ratio", "past both follow-ups"))
@example(case=grid_case("surv_diff", "default prefix"))
@example(case=grid_case("surv_ratio", "default prefix"))
def test_envelope_matches_reference_bitwise(case):
    if case["curve"] is None:
        base = survival_difference if case["kind"] == "surv_diff" else survival_ratio
        try:
            base(km_fit(case["a"]), km_fit(case["b"]))
        except EstimationError:
            with pytest.raises(EstimationError):
                permutation_envelope(case["a"], case["b"], case["kind"], case["n_permutations"], case["seed"])
            return
    assert_matches_reference(**case)


@st.composite
def band_cases(draw):
    """A (B x columns) replicate matrix and two quantiles for ``_band``.

    Values are tie-heavy or continuous, with NaN at a drawn rate, and
    sometimes one all-NaN and one single-defined column. No value is
    -0.0: a sort, like numpy's partition, treats -0.0 and 0.0 as equal,
    so which of them a bound takes is not defined in the band or in
    ``np.quantile``. Envelope replicates and bootstrap means never hold
    -0.0.
    """
    n_replicates, n_columns = draw(st.integers(1, 60)), draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(TIES, size=(n_replicates, n_columns))
    else:
        values = rng.standard_normal((n_replicates, n_columns)) * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))] = np.nan
    if draw(st.booleans()):
        values[:, draw(st.integers(0, n_columns - 1))] = np.nan
    if draw(st.booleans()):
        values[1:, draw(st.integers(0, n_columns - 1))] = np.nan
    bound = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return values, (draw(bound), draw(bound))


@pytest.mark.parametrize("block", [1, 3, 256])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=band_cases())
def test_band_matches_np_quantile_bitwise(block, case):
    replicates, quantiles = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compare, "_QUANTILE_BLOCK", block)
        got = _band(replicates, quantiles)
    for column, expected in zip(got, reference_band(replicates, quantiles)):
        assert column.tobytes() == expected.tobytes()


def band_peak_on_the_envelope_shape():
    """tracemalloc's peak inside one ``_band`` call on the envelope
    workload's shape (200 replicates on a 5,547-point grid, 1% undefined),
    and the replicate matrix's bytes."""
    rng = np.random.default_rng(61)
    replicates = rng.standard_normal((200, 5547))
    replicates[rng.random(replicates.shape) < 0.01] = np.nan
    tracemalloc.start()
    try:
        _band(replicates, (0.025, 0.975))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, replicates.nbytes


def test_band_memory_stays_below_a_quarter_of_the_replicates():
    peak, replicate_bytes = band_peak_on_the_envelope_shape()
    assert peak < replicate_bytes / 4


def test_band_counts_without_a_mask_of_the_whole_matrix():
    # Measured 0.70 MB: one reused 256-column block buffer (410 KB) and the
    # band. A (B, G) bool mask of the defined values, B * G bytes, took it
    # to 1.20 MB.
    peak, replicate_bytes = band_peak_on_the_envelope_shape()
    assert peak < replicate_bytes / 8


def test_band_copies_each_block_into_one_buffer():
    # Measured 0.70 MB with one 256-column block buffer (410 KB) reused
    # across the blocks; a fresh copy per block, made while the previous one
    # is still alive, held two and peaked at 0.99 MB.
    peak, replicate_bytes = band_peak_on_the_envelope_shape()
    assert peak < replicate_bytes / 11


def test_envelope_memory_stays_within_the_replicates_and_a_constant():
    # Measured 360-371 KB above the 631 KB replicate matrix (G = 1,577),
    # peaking in the band: its one reused 256-column block buffer (100 KB),
    # its counts and quantile arrays, with the pool and the replicate loop's
    # per-call buffers (about 110 KB) still alive. 512 KiB leaves room for numpy's sort and ufunc
    # buffers yet stays below one more matrix.
    a, b = exponential_sample(71, n=1000), exponential_sample(72, n=1000, mean=2.5)
    limit = 512 * 1024
    for kind in ("surv_diff", "surv_ratio"):
        tracemalloc.start()
        try:
            env = permutation_envelope(a, b, kind, n_permutations=50, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        replicate_bytes = 50 * env.grid.size * 8
        assert limit < replicate_bytes
        assert peak <= replicate_bytes + limit


def test_band_of_empty_and_single_value_columns_warns_nothing():
    replicates = np.array([[np.nan, 2.0, np.nan, 1.0], [np.nan, np.nan, 5.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower, upper, counts = _band(replicates, (0.0, 1.0))
        _band(replicates, (0.025, 0.975))
    assert list(counts) == [0, 1, 1, 2]
    assert np.isnan(lower[0]) and np.isnan(upper[0])
    assert (lower[1], upper[1], lower[2], upper[2], lower[3], upper[3]) == (2.0, 2.0, 5.0, 5.0, 1.0, 3.0)


def numpy_stream(seed, b):
    """Replicate b's stream as numpy builds it from a SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


# 2**127 + 5 fills the 4-word pool; 2**160 + 7 has more entropy words than it.
@pytest.mark.parametrize("block", [1, 3, 1024])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**32, 2**127 + 5, 2**160 + 7]),
    start=st.integers(0, 20) | st.integers(0, 2**40) | st.integers(2**32 - 20, 2**32 + 20),
    length=st.integers(0, 12),
    step=st.sampled_from([1, 2, -1, -5]),
)
@example(seed=1, start=2**32 - 2, length=4, step=1)  # spawn keys of one and two words
@example(seed=2**160 + 7, start=1029, length=1030, step=-1)  # down to 0 across a 1024 block edge
def test_replicate_streams_match_numpy(block, seed, start, length, step):
    replicates = range(start, max(start + length * step, -1), step)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compare, "_STREAM_BLOCK", block)
        for b, rng in zip(replicates, replicate_streams(seed, replicates), strict=True):
            expected = numpy_stream(seed, b)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.integers(0, 2**40) == expected.integers(0, 2**40)
            assert np.array_equal(rng.permutation(25), expected.permutation(25))


def numpy_draw(seed, b, n):
    """Replicate b's bootstrap indices as numpy draws them."""
    return numpy_stream(seed, b).integers(0, n, size=n)


def drawn_rows(seed, replicates, n):
    """The rows ``bootstrap_indices`` yields, as one (len(replicates), n) array."""
    blocks = list(bootstrap_indices(seed, replicates, n))
    assert all(block.dtype == np.int64 and block.shape[1:] == (n,) for block in blocks)
    return np.concatenate(blocks) if blocks else np.empty((0, n), np.int64)


# block_rows=None keeps the module's draw block; otherwise a block holds
# that many rows. Starts from 990 to 1030 straddle the 1,024-replicate
# stream block.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 300) | st.sampled_from([2**k for k in range(10)]) | st.integers(0, 150).map(lambda k: 2 * k + 1),
    start=st.integers(0, 40) | st.integers(990, 1030) | st.integers(0, 2**40),
    length=st.integers(0, 70),
    block_rows=st.none() | st.integers(1, 40),
)
@example(seed=1, n=2000, start=1000, length=70, block_rows=None)  # 32-row blocks across the stream block edge
@example(seed=3, n=1, start=0, length=5, block_rows=2)  # numpy draws nothing for n = 1
def test_bootstrap_indices_match_numpy(seed, n, start, length, block_rows):
    replicates = range(start, start + length)
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(compare, "_DRAW_BLOCK", block_rows * n)
        rows = drawn_rows(seed, replicates, n)
    assert len(rows) == length
    for b, row in zip(replicates, rows):
        assert np.array_equal(row, numpy_draw(seed, b, n))


def test_bootstrap_indices_need_at_least_one_participant():
    with pytest.raises(ValueError, match=r"^bootstrap draws need 1 <= n <= 2\*\*32, got 0$"):
        next(bootstrap_indices(1, range(2), 0))


def test_bootstrap_indices_redraw_rejected_rows_with_numpy(monkeypatch):
    # At n = 100,003, 11 of seed 1's first 20 rows hold a draw that numpy's
    # bounded rule rejects; numpy draws each such row again.
    n = 100_003
    redraws = []
    numpy_row = compare._numpy_draw
    monkeypatch.setattr(compare, "_numpy_draw", lambda seed, b, n: redraws.append(b) or numpy_row(seed, b, n))
    rows = drawn_rows(1, range(20), n)
    assert len(set(redraws)) == 11 and len(redraws) == 12  # and the first row's check
    for b, row in enumerate(rows):
        assert np.array_equal(row, numpy_draw(1, b, n))


def test_bootstrap_draw_that_differs_from_numpy_is_a_one_line_error(monkeypatch):
    numpy_row = compare._numpy_draw
    monkeypatch.setattr(compare, "_numpy_draw", lambda seed, b, n: (numpy_row(seed, b, n) + 1) % n)
    with pytest.raises(SurvmrlError, match=r"^bootstrap draw 3 of seed 1 differs from numpy \S+'s Generator\.integers$"):
        list(bootstrap_indices(1, range(3, 10), 50))


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5])
def test_invalid_seed_raises_numpys_own_error(seed):
    with pytest.raises(Exception) as numpy_error:
        numpy_stream(seed, 0)
    same_error = pytest.raises(numpy_error.type, match=f"^{re.escape(str(numpy_error.value))}$")
    with same_error:
        bootstrap_proportion_cis((np.ones(4),), n_replicates=10, seed=seed)
    with same_error:
        permutation_envelope(SAMPLE_A, SAMPLE_B, "surv_diff", n_permutations=10, seed=seed)
