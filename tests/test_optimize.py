"""``optimize.nelder_mead`` against the list-of-vertices simplex it replaced.

Both run on one objective and record every point they pass to it; the
point sequences, the result point (sign of zero included), its value,
the iteration count and the convergence flag must agree bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import survmrl.gpd
from survmrl import EstimationError, fit_gpd
from survmrl.optimize import nelder_mead

from optimize_reference import nelder_mead as reference_nelder_mead


def _objective(kind, center, half_width):
    """A test objective on the box |x - center| <= half_width (+inf outside).

    ``half_width=None`` means no box. ``plateau`` rounds a quadratic to
    integers so that vertex values tie.
    """
    center = np.asarray(center, dtype=float)

    def fn(x):
        d = x - center
        if half_width is not None and np.any(np.abs(d) > half_width):
            return math.inf
        if kind == "quadratic":
            return float(np.sum((np.arange(d.size) + 1.0) * d * d))
        if kind == "rosenbrock":
            return float(np.sum(100.0 * (d[1:] - d[:-1] ** 2) ** 2) + np.sum((1.0 - d) ** 2))
        if kind == "plateau":
            return float(np.floor(np.sum(d * d)))
        if kind == "linear":
            return float(np.sum(d))
        return math.inf  # "inf": every point rejected

    return fn


def _run(minimize, fn, x0, step):
    calls = []

    def recorded(x):
        calls.append(np.array(x, dtype=float, copy=True))
        return fn(x)

    return calls, minimize(recorded, x0, step=step)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_same_run(kind, center, half_width, x0, step):
    fn = _objective(kind, center, half_width)
    calls, result = _run(nelder_mead, fn, x0, step)
    ref_calls, ref = _run(reference_nelder_mead, fn, x0, step)
    assert [_bits(p) for p in calls] == [_bits(p) for p in ref_calls]
    assert _bits(result.x) == _bits(ref.x)
    assert np.array_equal(np.signbit(result.x), np.signbit(ref.x))
    assert _bits(result.fx) == _bits(ref.fx)
    assert (result.iterations, result.converged) == (ref.iterations, ref.converged)
    assert type(result.fx) is float
    assert result.x.flags.owndata
    return calls, result


_coordinate = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)


@st.composite
def _problems(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["quadratic", "rosenbrock", "plateau", "linear", "inf"]))
    center = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    half_width = draw(st.none() | st.floats(0.05, 5.0))
    x0 = draw(st.lists(_coordinate, min_size=dim, max_size=dim))
    step = draw(st.lists(_coordinate, min_size=dim, max_size=dim))
    return kind, center, half_width, x0, step


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_problems())
@example(("plateau", [0.0, 0.0], None, [0.1, -0.0], [0.2, 0.3]))  # ties, shrinks every iteration
@example(("quadratic", [0.0], 1.0, [0.9], [0.5]))  # step leaves the box
@example(("inf", [0.0, 0.0, 0.0], None, [-0.0, 1.0, -0.0], [0.1, 0.1, 0.1]))  # all +inf
@example(("linear", [0.0, 0.0], None, [0.0, -0.0], [0.1, 0.25]))  # unconverged at 500
@example(("rosenbrock", [1.0, -1.0, 0.5], 3.0, [-0.0, 0.0, -0.0], [0.1, -0.25, 0.5]))
def test_matches_the_list_of_vertices_simplex(problem):
    assert_same_run(*problem)


def test_pinned_runs_reach_the_branches_they_name():
    # all vertices tie and every move is rejected, so each iteration is
    # reflect, contract and a shrink that evaluates the other dim vertices
    for kind, x0, step in (("plateau", [0.1, -0.0], [0.2, 0.3]), ("inf", [-0.0, 1.0, -0.0], [0.1, 0.1, 0.1])):
        dim = len(x0)
        calls, result = assert_same_run(kind, [0.0] * dim, None, x0, step)
        assert result.converged and len(calls) == (dim + 1) + result.iterations * (2 + dim)
    assert result.fx == math.inf
    _, result = assert_same_run("linear", [0.0, 0.0], None, [0.0, -0.0], [0.1, 0.25])
    assert (result.iterations, result.converged) == (500, False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.floats(-0.6, 0.9),
    log_scale=st.floats(-8.0, 8.0),
    n=st.integers(2, 300),
    censor_rate=st.floats(0.0, 2.0),
)
def test_fit_gpd_unchanged_with_the_reference_simplex(seed, shape, log_scale, n, censor_rate):
    rng = np.random.default_rng(seed)
    scale = math.exp(log_scale)
    u = rng.uniform(size=n)
    x = scale * rng.exponential(size=n) if abs(shape) < 1e-12 else scale / shape * ((1.0 - u) ** -shape - 1.0)
    c = rng.exponential(scale / censor_rate, n) if censor_rate > 0.0 else np.full(n, np.inf)
    excess, status = np.minimum(x, c), (x <= c).astype(int)

    def outcome():
        try:
            return repr(fit_gpd(excess, status, threshold=1.5))
        except EstimationError as exc:
            return f"EstimationError({exc})"

    got = outcome()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survmrl.gpd, "nelder_mead", reference_nelder_mead)
        assert outcome() == got
