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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from survmrl import EstimationError, GpdFit
from survmrl.gpd import SHAPE_BOUND, _loglik, _tail_sample

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


def reference_fit_gpd(excess, status, threshold: float = 0.0) -> GpdFit:
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
        threshold=float(threshold),
        n_exceedances=m,
        n_tail_events=n_events,
        log_likelihood=float(-best.fx),
        converged=best.converged,
    )
