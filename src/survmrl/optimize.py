"""Nelder-Mead simplex minimizer used by the tail fitter.

Hand-rolled rather than delegated so the stopping rule is exactly the
contract the fitter reports: the simplex is converged when its diameter
(max coordinate spread across vertices) drops below ``_DIAMETER_TOL``
(1e-7), else it stops unconverged after ``_MAX_ITER`` (500) iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_ALPHA = 1.0   # reflection
_GAMMA = 2.0   # expansion
_RHO = 0.5     # contraction
_SIGMA = 0.5   # shrink
_DIAMETER_TOL = 1e-7
_MAX_ITER = 500


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
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        simplex[i + 1, i] += step[i]
    fvals = np.array([fn(v) for v in simplex], dtype=float)

    iterations = 0
    converged = False
    while iterations < _MAX_ITER:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        if np.max(np.ptp(simplex, axis=0)) < _DIAMETER_TOL:
            converged = True
            break
        iterations += 1

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + _ALPHA * (centroid - worst)
        f_reflected = fn(reflected)
        if fvals[0] <= f_reflected < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_reflected
            continue

        if f_reflected < fvals[0]:
            expanded = centroid + _GAMMA * (centroid - worst)
            f_expanded = fn(expanded)
            if f_expanded < f_reflected:
                simplex[-1], fvals[-1] = expanded, f_expanded
            else:
                simplex[-1], fvals[-1] = reflected, f_reflected
            continue

        contracted = centroid + _RHO * (worst - centroid)
        f_contracted = fn(contracted)
        if f_contracted < fvals[-1]:
            simplex[-1], fvals[-1] = contracted, f_contracted
            continue

        simplex[1:] = simplex[0] + _SIGMA * (simplex[1:] - simplex[0])
        fvals[1:] = [fn(v) for v in simplex[1:]]

    best = np.argsort(fvals, kind="stable")[0]
    return SimplexResult(x=simplex[best].copy(), fx=float(fvals[best]), iterations=iterations, converged=converged)
