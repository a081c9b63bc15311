"""Generalized Pareto tail fitting under right censoring.

Exceedances above a threshold keep their censoring flags. An observed
event contributes the GPD log density

    -log(sigma) - (1/shape + 1) * log(1 + shape * t / sigma)

and a censored exceedance contributes the log survival

    -(1/shape) * log(1 + shape * t / sigma).

For |shape| below a small cutoff both collapse to the exponential limit.
Parameters are estimated by a multi-start simplex search over
(shape, log(scale)); the shape is confined to (-0.99, 0.99) so the fitted
tail always has a finite mean, the scale to exp(-50)..exp(50), and fits
on the shape's upper bound or on either scale bound are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .optimize import nelder_mead

SHAPE_BOUND = 0.99
# With log1p the full formula is accurate for any shape the float grid can
# distinguish from 0; the cutoff only has to make the branch switch itself
# invisible (gap ~ shape * z^2 / 2, kept below 1e-8 for z up to 1000).
SMALL_SHAPE_CUTOFF = 1e-14
_BOUNDARY_MARGIN = 1e-6
_LOG_SCALE_LIMIT = 50.0
_SCALE_RANGE = f"exp(-{_LOG_SCALE_LIMIT:g})..exp({_LOG_SCALE_LIMIT:g})"


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
    z = excess / scale
    if abs(shape) < SMALL_SHAPE_CUTOFF:
        return float(-np.sum(status) * math.log(scale) - np.sum(z))
    if np.any(shape * z <= -1.0):
        return -math.inf
    log_arg = np.log1p(shape * z)
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
    arrays. Returns -inf when (shape, scale) put any excess outside the
    GPD support, which optimizers can treat as a rejection.
    """
    return _loglik(*_tail_sample(excess, status), shape, scale)


def fit_gpd(excess, status, threshold: float = 0.0) -> GpdFit:
    """Maximum-likelihood GPD fit to censored exceedances.

    ``excess`` and ``status`` are as for ``gpd_log_likelihood``. Runs the
    simplex search from three starts (moment-style, exponential,
    heavy-tailed) and keeps the best; ``converged`` reports whether that
    run met the simplex-diameter tolerance.
    """
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
    # Only the upper bound is fatal: there the constrained optimum is an
    # artifact of the box and the tail mean would be unbounded. A fit
    # resting near the lower edge (short-tailed data, e.g. uniform) is a
    # legitimate constrained MLE with a finite, sensible tail mean.
    if shape >= SHAPE_BOUND - _BOUNDARY_MARGIN:
        raise EstimationError("infinite-mean tail fit")
    # a scale on the box edge says the data's scale lies outside the box
    if not math.isfinite(best.fx) or abs(log_scale) >= _LOG_SCALE_LIMIT - _BOUNDARY_MARGIN:
        raise EstimationError(f"tail scale fit at the edge of the fitted scale range {_SCALE_RANGE}")
    scale = math.exp(log_scale)
    return GpdFit(
        shape=float(shape),
        scale=float(scale),
        threshold=float(threshold),
        n_exceedances=m,
        n_tail_events=n_events,
        log_likelihood=float(-best.fx),
        converged=best.converged,
    )


def gpd_mrl_at_threshold(fit: GpdFit) -> float:
    """Mean residual life of the fitted tail at its threshold: scale / (1 - shape)."""
    if fit.shape >= 1.0:
        raise EstimationError("infinite mean residual life")
    return fit.scale / (1.0 - fit.shape)
