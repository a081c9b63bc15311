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
so the tail mean stays finite. A coarse scan, evaluated in blocks of rows
of about _SCAN_ELEMENTS elements (at least one row), brackets every local
maximum of the profile, and Brent's parabolic search refines each. A fit
on the shape's upper bound, or with sigma outside exp(-50)..exp(50), is
an error.
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
_SCAN_ELEMENTS = 1 << 16  # elements (512 KiB of float64) per block of scan rows
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's golden-section step, 1 - 1/phi
_S_TOL = 1e-10


@dataclass(frozen=True)
class GpdFit:
    shape: float
    scale: float
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


class _Profile:
    """The profile log likelihood of a tail over s = log1p(theta * max x).

    The scan and the search run over s, free of the data's scale:
    geometric towards theta = -1/max x and theta_hi, linear around 0.
    """

    def __init__(self, excess: np.ndarray, status: np.ndarray, k: float):
        self.excess, self.status, self.k = excess, status, k
        self.top = float(np.max(excess))

    def _at(self, theta: float, total: float, events: float) -> tuple[float, float, float]:
        """(log likelihood, shape, scale) at theta, from the sums of
        log1p(theta * x) over all exceedances (total) and over the events."""
        k = self.k
        shape = min(max(total / k, -_OPEN_BOUND), _OPEN_BOUND)
        if shape == 0.0:  # theta == 0: the exponential fit
            scale = float(np.add.reduce(self.excess)) / k
            return -k * math.log(scale) - k, 0.0, scale
        scale = shape / theta
        return -k * math.log(scale) - total / shape - events, shape, scale

    def __call__(self, s: float) -> tuple[float, float, float]:
        """(log likelihood, shape, scale) at s."""
        theta = math.expm1(s) / self.top
        log_arg = np.log1p(theta * self.excess)
        return self._at(theta, float(np.add.reduce(log_arg)), float(self.status @ log_arg))

    def scan(self) -> tuple[np.ndarray, list[float]]:
        """The _SCAN_POINTS points of the coarse scan and the log
        likelihood at each, evaluated as (rows, m) arrays of about
        _SCAN_ELEMENTS elements, at least one row, so the memory a scan
        takes stays bounded however long the tail.

        Below s_lo the profile rises (its slope in t = theta * max x is at
        least g / (1 + t) - k / |t|); past theta_hi the shape is clipped, or
        every shape puts sigma below exp(-50). No maximum lies outside.
        """
        g = 1.0 / SHAPE_BOUND - 1.0
        s_lo = math.log(g / (self.k + g))
        t_hi = 1.0
        while self(math.log1p(t_hi))[1] < _OPEN_BOUND and t_hi < self.top * math.exp(_LOG_SCALE_LIMIT):
            t_hi *= 2.0
        points = np.linspace(s_lo, math.log1p(t_hi), _SCAN_POINTS)
        thetas = [math.expm1(s) / self.top for s in points]
        block = max(1, _SCAN_ELEMENTS // self.excess.size)
        values = []
        for start in range(0, _SCAN_POINTS, block):
            block_thetas = thetas[start : start + block]
            # Row sums of the array are bitwise the per-point sums; one
            # rows @ status is not, so each row gets its own dot product.
            rows = np.array(block_thetas)[:, None] * self.excess
            np.log1p(rows, out=rows)
            totals = np.add.reduce(rows, axis=1).tolist()
            values += [
                self._at(theta, total, float(self.status @ row))[0]
                for theta, total, row in zip(block_thetas, totals, rows)
            ]
        return points, values


def _brent_max(f, a: float, b: float, c: float, fb: float) -> tuple[float, float]:
    """(f(x), x) at a local maximum of f in the bracket a <= b <= c, where
    f(b) = fb, by Brent's method (Brent 1973, *Algorithms for Minimization
    without Derivatives*, ch. 5), stopped once c - a <= _S_TOL.

    Each step is the vertex of the parabola through the three best points
    so far, or a golden-section step into the larger part of the bracket
    when that vertex falls outside it or the steps stop shrinking fast
    enough. No step is shorter than _S_TOL / 4, so near the maximum the
    bracket closes in on both sides, and the loop ends no later than
    Brent's own stop, max(x - a, c - x) <= _S_TOL / 2, which implies
    c - a <= _S_TOL.
    """
    tol = _S_TOL / 4.0
    x = w = v = b  # best, second best and previous second best point
    fx = fw = fv = fb
    d = e = 0.0  # the last step and the one before it
    while c - a > _S_TOL:
        mid = 0.5 * (a + c)
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # take the vertex only inside the bracket and when it moves less
            # than half the step before last
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (c - x):
                e, d, golden = d, p / q, False
                if x + d - a < 2.0 * tol or c - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if golden:
            e = (a if x >= mid else c) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            a, c = (x, c) if u >= x else (a, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            a, c = (u, c) if u < x else (a, u)
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
    return fx, x


def gpd_log_likelihood(excess, status, shape: float, scale: float) -> float:
    """Log likelihood of the censored tail sample at (shape, scale).

    ``excess`` (>= 0) and ``status`` (1 event, 0 censored) are equal-length
    arrays. Returns -inf, never NaN, when (shape, scale) put any excess
    outside the GPD support or its density or survival underflows to 0.
    """
    return _loglik(*_tail_sample(excess, status), shape, scale)


def fit_gpd(excess, status) -> GpdFit:
    """Maximum-likelihood GPD fit to censored exceedances.

    ``excess`` and ``status`` are as for ``gpd_log_likelihood``. A scan of
    theta over (-1/max x, theta_hi], theta_hi doubled from 1/max x until the
    shape reaches its bound, evaluates the profile at its points in row
    blocks of bounded size; Brent's method refines each local maximum of the scan and the
    best one is the fit. ``converged`` (the search bracket met its
    tolerance) is always True.
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

    profile = _Profile(excess, status, k)
    scan, values = profile.scan()
    best = max(zip(values, scan))
    # Refine every local maximum of the scan by Brent's method on its
    # bracket (a, b, c): a small tail's profile can have two near-equal modes.
    for i in [j for j, v in enumerate(values) if v == max(values[max(j - 1, 0):j + 2])]:
        a, b, c = scan[max(i - 1, 0)], scan[i], scan[min(i + 1, _SCAN_POINTS - 1)]
        best = max(best, _brent_max(lambda s: profile(s)[0], a, b, c, values[i]))
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
