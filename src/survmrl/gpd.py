"""Generalized Pareto tail fitting under right censoring.

Exceedances above a threshold keep their censoring flags. An observed
event contributes the GPD log density

    -log(sigma) - (1/shape + 1) * log(1 + shape * t / sigma)

and a censored exceedance contributes the log survival

    -(1/shape) * log(1 + shape * t / sigma).

For |shape| below a small cutoff both collapse to the exponential limit.
The fit maximises the profile likelihood over theta = shape / sigma
(Grimshaw 1993; Coles 2001, section 4.3): at each theta the best shape is
sum(log1p(theta * t)) / k over k tail events, clipped into (-0.99, 0.99)
so the tail mean stays finite. A fit on the shape's upper bound, or with
sigma outside exp(-50)..exp(50), is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError

SHAPE_BOUND = 0.99
# With log1p the full formula is accurate for any shape the float grid can
# distinguish from 0; the cutoff only has to make the branch switch itself
# invisible (gap ~ shape * z^2 / 2, kept below 1e-8 for z up to 1000).
SMALL_SHAPE_CUTOFF = 1e-14
_BOUNDARY_MARGIN = 1e-6
_LOG_SCALE_LIMIT = 50.0
_SCALE_RANGE = f"exp(-{_LOG_SCALE_LIMIT:g})..exp({_LOG_SCALE_LIMIT:g})"
_OPEN_BOUND = math.nextafter(SHAPE_BOUND, 0.0)  # largest |shape| inside the box
_SCAN_POINTS = 32
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, 1 - 1/phi
_S_TOL = 1e-10


@dataclass(frozen=True)
class GpdFit:
    shape: float
    scale: float
    threshold: float
    n_exceedances: int
    n_tail_events: int
    log_likelihood: float
    converged: bool


def _loglik(excess: np.ndarray, status: np.ndarray, shape: float, scale: float) -> float:
    """Censored GPD log likelihood; -inf outside the parameter support."""
    if not (scale > 0.0) or not math.isfinite(scale):
        return -math.inf
    # an excess whose shape * excess / scale overflows has zero density and survival
    with np.errstate(over="ignore"):
        z = excess / scale
        if abs(shape) < SMALL_SHAPE_CUTOFF:
            return float(-np.sum(status) * math.log(scale) - np.sum(z))
        arg = shape * z
    if np.any((arg <= -1.0) | np.isinf(arg)):
        return -math.inf
    log_arg = np.log1p(arg)
    events = float(np.sum(status * log_arg))
    total = float(np.sum(log_arg))
    k = float(np.sum(status))
    # events get the density exponent -(1/shape + 1); censored the survival
    # exponent -1/shape; grouping terms avoids a second pass.
    return -k * math.log(scale) - total / shape - events


def _tail_sample(excess, status) -> tuple[np.ndarray, np.ndarray]:
    """Excesses and censoring flags as float arrays, checked; the first
    offender is named in the ValueError."""
    excess = np.asarray(excess, dtype=float)
    flags = np.asarray(status)
    if excess.ndim != 1 or flags.shape != excess.shape:
        raise ValueError("excess and status must be 1-D arrays of equal length")
    bad = np.flatnonzero(~(np.isfinite(excess) & (excess >= 0.0)))
    if bad.size:
        raise ValueError(f"excess must be finite and >= 0, got {excess[bad[0]].item()!r}")
    bad = np.flatnonzero((flags != 0) & (flags != 1))
    if bad.size:
        raise ValueError(f"status must be 0 or 1, got {flags[bad[0]].item()!r}")
    return excess, flags.astype(float)


def gpd_log_likelihood(excess, status, shape: float, scale: float) -> float:
    """Log likelihood of the censored tail sample at (shape, scale).

    ``excess`` (>= 0) and ``status`` (1 event, 0 censored) are equal-length
    arrays. Returns -inf, never NaN, when (shape, scale) put any excess
    outside the GPD support or its density or survival underflows to 0.
    """
    return _loglik(*_tail_sample(excess, status), shape, scale)


def fit_gpd(excess, status, threshold: float = 0.0) -> GpdFit:
    """Maximum-likelihood GPD fit to censored exceedances.

    ``excess`` and ``status`` are as for ``gpd_log_likelihood``. A scan of
    theta over (-1/max x, theta_hi], theta_hi doubled from 1/max x until the
    shape reaches its bound, and a golden-section search find the fit.
    ``converged`` (the search bracket met its tolerance) is always True.
    """
    excess, status = _tail_sample(excess, status)
    m = excess.size
    if m < 2:
        raise EstimationError("insufficient tail data")
    k = float(np.sum(status))
    if k == 0.0:
        raise EstimationError("all tail observations censored")
    with np.errstate(over="ignore"):
        mean = float(np.mean(excess))
    if not (0.0 < mean and abs(math.log(mean)) < _LOG_SCALE_LIMIT):
        raise EstimationError(f"mean tail excess {mean!r} outside the fitted scale range {_SCALE_RANGE}")

    # The scan and the search run over s = log1p(theta * max x), free of the
    # data's scale: geometric towards theta = -1/max x and theta_hi, linear
    # around 0. Below s_lo the profile rises (its slope in t = theta * max x
    # is at least g / (1 + t) - k / |t|); past theta_hi the shape is clipped,
    # or every shape puts sigma below exp(-50). No maximum lies outside.
    top = float(np.max(excess))
    g = 1.0 / SHAPE_BOUND - 1.0
    s_lo = math.log(g / (k + g))

    def profile(s: float) -> tuple[float, float, float]:
        """(log likelihood, shape, scale) at s."""
        theta = math.expm1(s) / top
        log_arg = np.log1p(theta * excess)
        total = float(np.sum(log_arg))
        shape = min(max(total / k, -_OPEN_BOUND), _OPEN_BOUND)
        if shape == 0.0:  # theta == 0: the exponential fit
            scale = float(np.sum(excess)) / k
            return -k * math.log(scale) - k, 0.0, scale
        scale = shape / theta
        return -k * math.log(scale) - total / shape - float(status @ log_arg), shape, scale

    t_hi = 1.0
    while profile(math.log1p(t_hi))[1] < _OPEN_BOUND and t_hi < top * math.exp(_LOG_SCALE_LIMIT):
        t_hi *= 2.0
    scan = np.linspace(s_lo, math.log1p(t_hi), _SCAN_POINTS)
    values = [profile(s)[0] for s in scan]
    best = max(zip(values, scan))
    # Refine every local maximum of the scan by golden section on its
    # bracket (a, b, c): a small tail's profile can have two near-equal modes.
    for i in [j for j, v in enumerate(values) if v == max(values[max(j - 1, 0):j + 2])]:
        a, b, c, fb = scan[max(i - 1, 0)], scan[i], scan[min(i + 1, _SCAN_POINTS - 1)], values[i]
        while c - a > _S_TOL:
            x = b + _GOLDEN * (c - b if c - b > b - a else a - b)
            fx = profile(x)[0]
            if fx > fb:
                a, b, c, fb = (b, x, c, fx) if x > b else (a, x, b, fx)
            else:
                a, c = (a, x) if x > b else (x, c)
        best = max(best, (fb, b))
    _, shape, scale = profile(best[1])
    # Only the upper bound is fatal: there the constrained optimum is an
    # artifact of the box and the tail mean would be unbounded. A fit
    # resting near the lower edge (short-tailed data, e.g. uniform) is a
    # legitimate constrained MLE with a finite, sensible tail mean.
    if shape >= SHAPE_BOUND - _BOUNDARY_MARGIN:
        raise EstimationError("infinite-mean tail fit")
    # a scale at the edge of the range says the data's scale lies outside it
    if abs(math.log(scale)) >= _LOG_SCALE_LIMIT - _BOUNDARY_MARGIN:
        raise EstimationError(f"tail scale fit at the edge of the fitted scale range {_SCALE_RANGE}")
    return GpdFit(
        shape=shape,
        scale=scale,
        threshold=float(threshold),
        n_exceedances=m,
        n_tail_events=int(k),
        log_likelihood=_loglik(excess, status, shape, scale),
        converged=True,
    )


def gpd_mrl_at_threshold(fit: GpdFit) -> float:
    """Mean residual life of the fitted tail at its threshold: scale / (1 - shape)."""
    if fit.shape >= 1.0:
        raise EstimationError("infinite mean residual life")
    return fit.scale / (1.0 - fit.shape)
