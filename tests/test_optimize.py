"""The profile-likelihood ``gpd.fit_gpd`` against the three-start simplex
fit it replaced (``optimize_reference.reference_fit_gpd``).

On a censored tail the profile fit must reach at least the reference's
log likelihood, up to 1e-9 relative, or both must raise the same
``EstimationError``.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from survmrl import EstimationError, GpdFit, fit_gpd, gpd

from optimize_reference import reference_fit_gpd

# (seed, shape, log_scale, n, censor_rate) of tails that reach one case each
LOWER_SHAPE_BOUND = (0, -0.5, 0.0, 8, 0.0)
INFINITE_MEAN = (1, 0.9, 0.0, 40, 0.5)
SCALE_RANGE_EDGE = (2, 0.5, -50.1, 100, 0.0)
# a profile with a mode on the lower shape bound that the coarse scan
# rates above an interior mode 4.5e-4 higher
TWO_MODES = (3242250416, 0.15117214075766672, 6.744669287806465, 6, 0.0)
# tails with a local maximum of the scan whose bracket holds no + to - change
# of the score, so that the scan point stands
NO_ROOT = [
    (3046566480, -0.6959736481772457, 2.8293367144966126, 52, 1.8779628810833695),
    (2098646060, -0.5300367986528998, 6.211812357117953, 129, 1.221910614883828),
]


def _censored_tail(seed, shape, log_scale, n, censor_rate):
    """GPD(shape, exp(log_scale)) draws, censored by exponential times at
    rate ``censor_rate`` per scale (none at 0)."""
    rng = np.random.default_rng(seed)
    scale = math.exp(log_scale)
    u = rng.uniform(size=n)
    x = scale * rng.exponential(size=n) if abs(shape) < 1e-12 else scale / shape * ((1.0 - u) ** -shape - 1.0)
    c = rng.exponential(scale / censor_rate, n) if censor_rate > 0.0 else np.full(n, np.inf)
    return np.minimum(x, c), (x <= c).astype(int)


def _outcome(fit, tail):
    try:
        return fit(*_censored_tail(*tail))
    except EstimationError as exc:
        return f"EstimationError({exc})"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.floats(-1.5, 1.5),
    log_scale=st.floats(-8.0, 8.0),
    n=st.integers(2, 300),
    censor_rate=st.floats(0.0, 2.0),
)
@example(*LOWER_SHAPE_BOUND)
@example(*INFINITE_MEAN)
@example(*SCALE_RANGE_EDGE)
@example(*TWO_MODES)
@example(*NO_ROOT[0])
@example(*NO_ROOT[1])
def test_fit_gpd_at_least_matches_the_reference_simplex(seed, shape, log_scale, n, censor_rate):
    tail = (seed, shape, log_scale, n, censor_rate)
    got, ref = _outcome(fit_gpd, tail), _outcome(reference_fit_gpd, tail)
    if not (isinstance(got, GpdFit) and isinstance(ref, GpdFit)):
        assert got == ref
        return
    assert got.log_likelihood >= ref.log_likelihood - 1e-9 * max(1.0, abs(ref.log_likelihood))
    assert (got.n_exceedances, got.n_tail_events) == (ref.n_exceedances, ref.n_tail_events)
    assert got.converged


def _maxima_without_a_score_root(tail) -> list[int]:
    """The local maxima of the fit's scan whose bracket of neighbours holds
    no + to - change of the score."""
    excess, status = gpd._tail_sample(*_censored_tail(*tail))
    profile = gpd._Profile(excess, status, float(np.sum(status)))
    scan, values = profile.scan()
    last = len(scan) - 1
    return [
        i
        for i, v in enumerate(values)
        if v == max(values[max(i - 1, 0) : i + 2])
        and not profile.score(scan[max(i - 1, 0)]) > 0.0 > profile.score(scan[min(i + 1, last)])
    ]


def test_pinned_tails_reach_the_cases_they_name():
    assert LOWER_SHAPE_BOUND[3] <= 10
    for fit in (fit_gpd, reference_fit_gpd):
        assert -0.99 < _outcome(fit, LOWER_SHAPE_BOUND).shape < -0.99 + 1e-6
        assert _outcome(fit, INFINITE_MEAN) == "EstimationError(infinite-mean tail fit)"
        assert _outcome(fit, SCALE_RANGE_EDGE).startswith("EstimationError(tail scale fit at the edge")
    for tail in NO_ROOT:
        assert _maxima_without_a_score_root(tail)
        assert isinstance(_outcome(fit_gpd, tail), GpdFit)
