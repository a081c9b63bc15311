import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survmrl import (
    EstimationError,
    StepFunction,
    SurvivalSample,
    km_fit,
    step_eval,
    step_integral,
)


def make_sample(pairs):
    times, statuses = zip(*pairs)
    return SurvivalSample(times, statuses)


SPEC_SAMPLE = make_sample([(2, 1), (3, 0), (4, 1), (5, 1)])


def km_oracle(pairs):
    """Direct product-limit expansion: at each event time multiply (n_j - d_j) / n_j.

    Independent of km_fit: risk sets are recounted by brute scanning.
    """
    times = sorted({t for t, s in pairs if s == 1})
    survival = []
    running = 1.0
    for t in times:
        n_j = sum(1 for x, _ in pairs if x >= t)
        d_j = sum(1 for x, s in pairs if x == t and s == 1)
        running *= (n_j - d_j) / n_j
        survival.append(running)
    return times, survival


class TestKmFit:
    def test_all_events_gives_empirical_survival(self):
        curve = km_fit(make_sample([(1, 1), (2, 1), (3, 1)]))
        assert curve.survival.knots == (1.0, 2.0, 3.0)
        assert curve.survival.values == (2 / 3, 1 / 3, 0.0)
        assert step_eval(curve.survival, 0.5) == 1.0

    def test_all_censored_curve_stays_at_one(self):
        curve = km_fit(make_sample([(1, 0), (2, 0), (3, 0)]))
        assert curve.survival.knots == ()
        for t in (0.0, 1.5, 3.0):
            assert step_eval(curve.survival, t) == 1.0
        assert curve.censor_marks == (1.0, 2.0, 3.0)

    def test_spec_sample_hand_values(self):
        curve = km_fit(SPEC_SAMPLE)
        assert curve.survival.knots == (2.0, 4.0, 5.0)
        assert curve.survival.values == (0.75, 0.375, 0.0)
        assert curve.event_times == (2.0, 4.0, 5.0)
        assert curve.at_risk == (4, 2, 1)
        assert curve.deaths == (1, 1, 1)
        assert curve.censor_marks == (3.0,)

    def test_reaches_zero_only_when_last_observation_is_event(self):
        ends_event = km_fit(make_sample([(1, 0), (2, 1)]))
        assert ends_event.survival.values[-1] == 0.0
        ends_censored = km_fit(make_sample([(1, 1), (2, 0)]))
        assert ends_censored.survival.values[-1] > 0.0

    def test_risk_set_shrinks_consistently(self):
        rng = np.random.default_rng(5)
        pairs = [(float(t), int(s)) for t, s in zip(rng.integers(1, 20, 40), rng.integers(0, 2, 40))]
        pairs = [(t, s) for t, s in pairs] or [(1.0, 1)]
        curve = km_fit(make_sample(pairs))
        assert curve.at_risk[0] <= len(pairs)
        for (n1, d1), n2 in zip(zip(curve.at_risk, curve.deaths), curve.at_risk[1:]):
            assert n2 <= n1 - d1

    def test_oracle_equivalence_randomized_small_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            times = rng.integers(1, 6, n).astype(float)
            statuses = rng.integers(0, 2, n)
            if statuses.sum() == 0:
                statuses[0] = 1
            pairs = list(zip(times, (int(s) for s in statuses)))
            curve = km_fit(make_sample(pairs))
            expected_times, expected_survival = km_oracle(pairs)
            assert list(curve.event_times) == expected_times
            assert list(curve.survival.values) == expected_survival  # exact

    def test_matches_one_minus_ecdf_without_censoring(self):
        rng = np.random.default_rng(3)
        times = rng.exponential(1.0, 50)
        curve = km_fit(make_sample([(float(t), 1) for t in times]))
        for t in np.linspace(0, times.max() * 1.1, 40):
            ecdf_surv = np.mean(times >= t)
            assert step_eval(curve.survival, float(t)) == pytest.approx(ecdf_surv, abs=1e-12)


class TestStepEval:
    def test_constant_function(self):
        f = StepFunction(knots=(), values=(), initial_value=1.0)
        assert step_eval(f, 7.0) == 1.0

    def test_right_continuous_at_jump(self):
        curve = km_fit(SPEC_SAMPLE)
        assert step_eval(curve.survival, 2.0) == 0.75

    def test_plateau_between_events(self):
        curve = km_fit(SPEC_SAMPLE)
        assert step_eval(curve.survival, 3.9) == 0.75

    def test_negative_or_nonfinite_rejected(self):
        f = StepFunction(knots=(1.0,), values=(0.5,), initial_value=1.0)
        with pytest.raises(EstimationError):
            step_eval(f, -0.1)
        with pytest.raises(EstimationError):
            step_eval(f, float("nan"))

    def test_callable_sugar(self):
        curve = km_fit(SPEC_SAMPLE)
        assert curve.survival(2.0) == 0.75


class TestStepIntegral:
    def test_unit_rectangle(self):
        f = StepFunction(knots=(), values=(), initial_value=1.0)
        assert step_integral(f, 0.0, 5.0) == 5.0

    def test_empty_interval(self):
        curve = km_fit(SPEC_SAMPLE)
        assert step_integral(curve.survival, 3.0, 3.0) == 0.0

    def test_spec_sample_area(self):
        curve = km_fit(SPEC_SAMPLE)
        assert step_integral(curve.survival, 0.0, 5.0) == 2 * 1 + 2 * 0.75 + 1 * 0.375

    def test_reversed_bounds_rejected(self):
        f = StepFunction(knots=(), values=(), initial_value=1.0)
        with pytest.raises(EstimationError):
            step_integral(f, 2.0, 1.0)

    def test_bounds_inside_one_segment(self):
        curve = km_fit(SPEC_SAMPLE)
        assert step_integral(curve.survival, 2.5, 3.5) == 0.75

    def test_additivity_on_km_curves(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            pairs = [
                (float(t), int(s))
                for t, s in zip(rng.exponential(2.0, n), rng.integers(0, 2, n))
            ]
            curve = km_fit(make_sample(pairs))
            a, b, c = sorted(rng.uniform(0, 10, 3))
            whole = step_integral(curve.survival, a, c)
            split = step_integral(curve.survival, a, b) + step_integral(curve.survival, b, c)
            assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)


# Dyadic rationals (multiples of 1/64 with bounded magnitude) make every
# product and partial sum in the segment arithmetic exact in binary
# floating point, so additivity can be asserted with zero tolerance.
dyadic = st.integers(min_value=0, max_value=2**20).map(lambda k: k / 64.0)
dyadic_values = st.integers(min_value=-(2**20), max_value=2**20).map(lambda k: k / 64.0)


@st.composite
def dyadic_step_functions(draw):
    knots = sorted(draw(st.sets(dyadic, min_size=0, max_size=8)))
    values = [draw(dyadic_values) for _ in knots]
    initial = draw(dyadic_values)
    return StepFunction(knots=tuple(knots), values=tuple(values), initial_value=initial)


@given(
    dyadic_step_functions(),
    st.tuples(dyadic, dyadic, dyadic).map(sorted),
)
@settings(max_examples=200)
def test_additivity_exact_on_dyadic_inputs(f, bounds):
    a, b, c = bounds
    assert step_integral(f, a, c) == step_integral(f, a, b) + step_integral(f, b, c)


class TestRestrictedMrl:
    """Restricted MRL over [t, u]: the exact area over [t, u] divided by S(t)."""

    def test_certain_survival_gives_window_length(self):
        survival = km_fit(make_sample([(10, 1)])).survival
        assert step_integral(survival, 1.0, 4.0) / step_eval(survival, 1.0) == 3.0

    def test_spec_sample_value(self):
        survival = km_fit(SPEC_SAMPLE).survival
        value = step_integral(survival, 2.0, 5.0) / step_eval(survival, 2.0)
        assert value == (2 * 0.75 + 1 * 0.375) / 0.75
