"""The three-start Nelder-Mead GPD fit that the profile-likelihood
``gpd.fit_gpd`` replaced, kept as the independent reference for it.

``nelder_mead`` is the list-of-vertices simplex: each vertex is its own
array in a Python list, re-sorted by rebuilding the list every iteration.
It is converged when its diameter (max coordinate spread across vertices)
drops below ``_DIAMETER_TOL``, else it stops after ``_MAX_ITER``
iterations. ``reference_fit_gpd`` runs it over (shape, log(scale)) in the
box (-0.99, 0.99) x [-50, 50] from three starts (moment-style,
exponential, heavy-tailed), keeps the best, and raises the errors the
fitter raised.

``score_root_shape`` is the oracle for the fit at the root of the profile's
score: it scans the profile on a fine grid, bisects the score to adjacent
floats in the bracket of each local maximum where the score falls from +
to -, and returns the best shape. Every sum is a ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from survmrl import EstimationError, GpdFit
from survmrl.gpd import SHAPE_BOUND, _OPEN_BOUND, _loglik, _tail_sample

_ALPHA = 1.0   # reflection
_GAMMA = 2.0   # expansion
_RHO = 0.5     # contraction
_SIGMA = 0.5   # shrink
_DIAMETER_TOL = 1e-7
_MAX_ITER = 500
_BOUNDARY_MARGIN = 1e-6
_LOG_SCALE_LIMIT = 50.0
_SCALE_RANGE = f"exp(-{_LOG_SCALE_LIMIT:g})..exp({_LOG_SCALE_LIMIT:g})"


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fx: float
    iterations: int
    converged: bool


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    step: Sequence[float],
) -> SimplexResult:
    """Minimize ``fn`` starting from ``x0``; ``step`` sets the initial simplex size.

    ``fn`` may return +inf to reject a point (out of bounds / support).
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    vertices = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += step[i]
        vertices.append(v)
    fvals = [fn(v) for v in vertices]

    iterations = 0
    converged = False
    while iterations < _MAX_ITER:
        order = np.argsort(fvals, kind="stable")
        vertices = [vertices[i] for i in order]
        fvals = [fvals[i] for i in order]

        spread = np.max(np.ptp(np.array(vertices), axis=0))
        if spread < _DIAMETER_TOL:
            converged = True
            break
        iterations += 1

        centroid = np.mean(vertices[:-1], axis=0)
        worst = vertices[-1]

        reflected = centroid + _ALPHA * (centroid - worst)
        f_reflected = fn(reflected)
        if fvals[0] <= f_reflected < fvals[-2]:
            vertices[-1], fvals[-1] = reflected, f_reflected
            continue

        if f_reflected < fvals[0]:
            expanded = centroid + _GAMMA * (centroid - worst)
            f_expanded = fn(expanded)
            if f_expanded < f_reflected:
                vertices[-1], fvals[-1] = expanded, f_expanded
            else:
                vertices[-1], fvals[-1] = reflected, f_reflected
            continue

        contracted = centroid + _RHO * (worst - centroid)
        f_contracted = fn(contracted)
        if f_contracted < fvals[-1]:
            vertices[-1], fvals[-1] = contracted, f_contracted
            continue

        best = vertices[0]
        vertices = [best] + [best + _SIGMA * (v - best) for v in vertices[1:]]
        fvals = [fvals[0]] + [fn(v) for v in vertices[1:]]

    order = np.argsort(fvals, kind="stable")
    best = vertices[order[0]]
    return SimplexResult(x=best, fx=fvals[order[0]], iterations=iterations, converged=converged)


def reference_fit_gpd(excess, status) -> GpdFit:
    """Maximum-likelihood GPD fit by the three-start simplex search;
    ``converged`` reports whether the best run met the diameter tolerance."""
    excess, status = _tail_sample(excess, status)
    m = excess.size
    if m < 2:
        raise EstimationError("insufficient tail data")
    n_events = int(np.sum(status))
    if n_events == 0:
        raise EstimationError("all tail observations censored")

    def objective(params: np.ndarray) -> float:
        shape, log_scale = params
        if not (-SHAPE_BOUND < shape < SHAPE_BOUND):
            return math.inf
        if abs(log_scale) > _LOG_SCALE_LIMIT:
            return math.inf
        return -_loglik(excess, status, shape, math.exp(log_scale))

    with np.errstate(over="ignore"):
        mean = float(np.mean(excess))
    if not (0.0 < mean and abs(math.log(mean)) < _LOG_SCALE_LIMIT):
        raise EstimationError(f"mean tail excess {mean!r} outside the fitted scale range {_SCALE_RANGE}")
    var = float(np.var(excess))
    starts = [(0.0, math.log(mean)), (0.5, math.log(mean))]
    if var > 0.0:
        ratio = mean * mean / var
        shape_guess = min(max(0.5 * (1.0 - ratio), -0.9), 0.9)
        scale_guess = max(0.5 * mean * (ratio + 1.0), 1e-12)
        starts.insert(0, (shape_guess, math.log(scale_guess)))

    best = min((nelder_mead(objective, start, step=(0.1, 0.25)) for start in starts), key=lambda r: r.fx)

    shape, log_scale = best.x
    if shape >= SHAPE_BOUND - _BOUNDARY_MARGIN:
        raise EstimationError("infinite-mean tail fit")
    if not math.isfinite(best.fx) or abs(log_scale) >= _LOG_SCALE_LIMIT - _BOUNDARY_MARGIN:
        raise EstimationError(f"tail scale fit at the edge of the fitted scale range {_SCALE_RANGE}")
    return GpdFit(
        shape=float(shape),
        scale=float(math.exp(log_scale)),
        n_exceedances=m,
        n_tail_events=n_events,
        log_likelihood=float(-best.fx),
        converged=best.converged,
    )


def _fsum_profile(y, status, k, t) -> tuple[float, float, float]:
    """(profile value less -k * log(max x), shape, score in t) at t, over
    the excesses y scaled to a largest of 1, from fsums of the rows."""
    if t == 0.0:
        limit = k * math.fsum(v * v for v in y) / (2.0 * math.fsum(y)) - math.fsum(v for v, d in zip(y, status) if d)
        return -k * math.log(math.fsum(y) / k) - k, 0.0, limit
    w = [t * v for v in y]
    logs = [math.log1p(v) for v in w]
    shape = min(max(math.fsum(logs) / k, -_OPEN_BOUND), _OPEN_BOUND)
    events = math.fsum(v for v, d in zip(logs, status) if d)
    value = -k * math.log(shape / t) - math.fsum(logs) / shape - events
    ratios = [v / (1.0 + v) for v in w]
    score = (k - math.fsum(ratios) / shape - math.fsum(v for v, d in zip(ratios, status) if d)) / t
    return value, shape, score


def score_root_shape(excess, status, points: int = 400) -> float:
    """The shape at the best root of the profile's score, or at the best
    point of a ``points``-point scan in s = log1p(t) where no bracket of a
    scan maximum holds a + to - change of the score."""
    excess, status = _tail_sample(excess, status)
    top = float(np.max(excess))
    y, flags, k = (excess / top).tolist(), status.tolist(), float(np.sum(status))
    at = lambda s: _fsum_profile(y, flags, k, math.expm1(s))
    g = 1.0 / SHAPE_BOUND - 1.0
    t_hi = 1.0  # the shape reaches its bound past t_hi, as in the fit's scan
    while at(math.log1p(t_hi))[1] < _OPEN_BOUND and t_hi < 2.0**200:
        t_hi *= 2.0
    grid = np.linspace(math.log(g / (k + g)), math.log1p(t_hi), points).tolist()
    values = [at(s)[0] for s in grid]
    best = []
    for i, v in enumerate(values):
        if v != max(values[max(i - 1, 0) : i + 2]):
            continue
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
        if not at(lo)[2] > 0.0 > at(hi)[2]:
            best.append(at(grid[i])[:2])
            continue
        while math.nextafter(lo, hi) != hi:
            mid = lo + 0.5 * (hi - lo)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if at(mid)[2] > 0.0 else (lo, mid)
        best.append(at(lo)[:2])
    return max(best)[1]
