"""The list-of-vertices Nelder-Mead that ``optimize.nelder_mead`` replaced,
kept as the independent reference for the one-array simplex.

Each vertex is its own array in a Python list, re-sorted by rebuilding
the list every iteration; the former ``diameter_tol`` and ``max_iter``
defaults are the constants below. It returns the same ``SimplexResult``
(``fx`` as ``fn`` returned it, ``x`` the best vertex itself).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from survmrl.optimize import SimplexResult

_ALPHA = 1.0   # reflection
_GAMMA = 2.0   # expansion
_RHO = 0.5     # contraction
_SIGMA = 0.5   # shrink
_DIAMETER_TOL = 1e-7
_MAX_ITER = 500


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
