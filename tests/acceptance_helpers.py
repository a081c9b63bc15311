"""Independent oracles and workers for the acceptance suite.

Everything here recomputes expected values from first principles (direct
formula expansion, brute-force enumeration, exhaustive grid search) and
deliberately avoids the package's own computational paths.
"""

from __future__ import annotations

import itertools

import numpy as np

from survmrl import fit_gpd


def km_product_expansion(pairs):
    """Expand the product-limit estimate factor by factor.

    Risk sets are recounted by scanning the raw pairs, so this shares no
    code with the fitted curve.
    """
    event_times = sorted({t for t, s in pairs if s == 1})
    survival = []
    running = 1.0
    for t in event_times:
        n_at_risk = sum(1 for x, _ in pairs if x >= t)
        deaths = sum(1 for x, s in pairs if x == t and s == 1)
        running *= (n_at_risk - deaths) / n_at_risk
        survival.append(running)
    return event_times, survival


def gpd_draw(rng, shape, scale, n):
    u = rng.uniform(size=n)
    return scale / shape * ((1.0 - u) ** (-shape) - 1.0)


def grid_search_best_loglik(x, n_shape=200, n_scale=200, chunk=50):
    """Best uncensored GPD log likelihood over an exhaustive parameter grid.

    The per-point sum of log terms is evaluated as log of chunked
    products (algebraically identical, ~8x fewer transcendental calls) so
    the full 200x200 grid stays affordable; agreement with the naive
    sum-of-logs is ~1e-11, far inside the 1e-6 comparison margin.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    mean = x.mean()
    xmax = x.max()
    pad = (-m) % chunk
    padded = np.concatenate([x, np.zeros(pad)]).reshape(-1, chunk)
    shapes = np.linspace(-0.9, 0.9, n_shape)
    scales = np.linspace(0.1 * mean, 10.0 * mean, n_scale)
    log_scales = np.log(scales)
    xsum = x.sum()
    best = -np.inf
    for shape in shapes:
        if abs(shape) < 1e-8:
            ll = -m * log_scales - xsum / scales
        else:
            valid = scales > -shape * xmax if shape < 0 else np.ones(n_scale, bool)
            sv = scales[valid]
            if sv.size == 0:
                continue
            arg = 1.0 + (shape / sv)[:, None, None] * padded[None, :, :]
            log_terms = np.log(arg.prod(axis=2)).sum(axis=1)
            ll = -m * log_scales[valid] - (1.0 / shape + 1.0) * log_terms
        best = max(best, float(ll.max()))
    return best


def gpd_consistency_case(seed):
    """Fit one n=5000 GPD(0.25, 2) draw and grid-check its likelihood."""
    rng = np.random.default_rng(1000 + seed)
    x = gpd_draw(rng, 0.25, 2.0, 5000)
    fit = fit_gpd(x, np.ones(x.size))
    return fit.shape, fit.scale, fit.log_likelihood, grid_search_best_loglik(x)


def wilcoxon_enumeration_p(differences):
    """Two-sided signed-rank p by literal enumeration of sign patterns."""
    d = np.asarray([x for x in differences if x != 0], dtype=float)
    n = len(d)
    magnitudes = np.abs(d)
    order = np.argsort(magnitudes, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and magnitudes[order[j]] == magnitudes[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # average rank across the tie run
        i = j
    doubled = [int(round(2 * r)) for r in ranks]
    observed = int(round(2 * float(ranks[d > 0].sum())))
    at_most = at_least = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(doubled, signs) if s)
        if w <= observed:
            at_most += 1
        if w >= observed:
            at_least += 1
    return min(1.0, 2 * min(at_most, at_least) / (1 << n))
