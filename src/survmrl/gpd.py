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
maximum of the profile, and Brent's zero finder refines each to the root
of the score equation. A fit on the shape's upper bound, or with sigma
outside exp(-50)..exp(50), is an error.
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
# Rounding (about k * eps / |t|) swamps the score below |s| ~ 1e-8: the floor lies far below
# every ulp of s it resolves, and bounds a search that closes in on s = 0 to about 100 halvings.
_S_FLOOR = math.ulp(1.0) ** 2


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
    """The profile log likelihood of a tail less the constant -k * log(max x),
    and its score, over s = log1p(t), t = theta * max x. Both read the rows
    w = (t / max x) * x, which a power-of-two change of the data's unit leaves
    bitwise the same. The scan and the root search run over s: geometric
    towards theta = -1/max x and theta_hi, linear around 0.
    """

    def __init__(self, excess: np.ndarray, status: np.ndarray, k: float):
        self.excess, self.status, self.k = excess, status, k
        self.top = float(np.max(excess))

    def _at(self, t: float, total: float, events: float) -> tuple[float, float, float]:
        """(profile value, shape, scale) at t, from the sums of log1p(w)
        over all exceedances (total) and over the events."""
        k = self.k
        shape = min(max(total / k, -_OPEN_BOUND), _OPEN_BOUND)
        if shape == 0.0:  # t == 0: the exponential fit
            scale = float(np.add.reduce(self.excess)) / k
            return -k * math.log(scale / self.top) - k, 0.0, scale
        return -k * math.log(shape / t) - total / shape - events, shape, shape / t * self.top

    def __call__(self, s: float) -> tuple[float, float, float]:
        """(profile value, shape, scale) at s."""
        t = math.expm1(s)
        log_arg = np.log1p(t / self.top * self.excess)
        return self._at(t, float(np.add.reduce(log_arg)), float(self.status @ log_arg))

    def score(self, s: float) -> float:
        """The profile's slope in t at s, (k - B / shape - B_E) / t, with B the sum of
        w / (1 + w) over all exceedances and B_E over the events (the profile is C1 where
        the clip starts, so this holds on the clip too); at t = 0 its limit
        k * sum(y^2) / (2 sum(y)) - sum_E(y), y = x / max x."""
        k, t = self.k, math.expm1(s)
        w = t / self.top * self.excess
        shape = min(max(float(np.add.reduce(np.log1p(w))) / k, -_OPEN_BOUND), _OPEN_BOUND)
        if shape == 0.0:
            y = self.excess / self.top
            return k * float(y @ y) / (2.0 * float(np.add.reduce(y))) - float(self.status @ y)
        w /= 1.0 + w
        return (k - float(np.add.reduce(w)) / shape - float(self.status @ w)) / t

    def scan(self) -> tuple[np.ndarray, list[float]]:
        """The _SCAN_POINTS points of the coarse scan and the profile value
        at each, evaluated as (rows, m) arrays of about _SCAN_ELEMENTS
        elements, at least one row, so the memory a scan takes stays
        bounded however long the tail.

        Below s_lo the profile rises (its slope in t is at least
        g / (1 + t) - k / |t|); past t_hi the shape is clipped, or every
        shape puts sigma below exp(-50). No maximum lies outside.
        """
        g = 1.0 / SHAPE_BOUND - 1.0
        s_lo = math.log(g / (self.k + g))
        t_hi = 1.0
        while self(math.log1p(t_hi))[1] < _OPEN_BOUND and t_hi < self.top * math.exp(_LOG_SCALE_LIMIT):
            t_hi *= 2.0
        points = np.linspace(s_lo, math.log1p(t_hi), _SCAN_POINTS)
        block = max(1, _SCAN_ELEMENTS // self.excess.size)
        values = []
        for start in range(0, _SCAN_POINTS, block):
            block_ts = [math.expm1(s) for s in points[start : start + block]]
            # Row sums of the array are bitwise the per-point sums; one
            # rows @ status is not, so each row gets its own dot product.
            rows = np.array(block_ts)[:, None] / self.top * self.excess
            np.log1p(rows, out=rows)
            totals = np.add.reduce(rows, axis=1).tolist()
            values += [
                self._at(t, total, float(self.status @ row))[0]
                for t, total, row in zip(block_ts, totals, rows)
            ]
        return points, values


def _zeroin(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f between a and b, where f(a) = fa and f(b) = fb differ in sign, by Brent's
    zero finder (Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4,
    "zeroin"): secant or inverse quadratic steps inside the bracket [b, c] that keeps the sign
    change, or bisection when they stop shrinking it fast enough, until the bracket is within
    2 * tol, tol = 2 ulp(b) + _S_FLOOR: a few ulps of b, or of the floor."""
    c, fc = b, fb  # the first pass takes c = a
    while True:
        if (fb > 0.0) == (fc > 0.0):  # keep the sign change between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the better estimate
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * math.ulp(b) + _S_FLOOR
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        accept = False
        if abs(e) >= tol and abs(fa) > abs(fb):
            r = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * r, 1.0 - r
            else:  # inverse quadratic interpolation
                q, u = fa / fc, fb / fc
                p = r * (2.0 * m * q * (q - u) - (b - a) * (u - 1.0))
                q = (q - 1.0) * (u - 1.0) * (r - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            # a step well inside the bracket, shorter than half the step before last
            accept = 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q))
        e, d = (d, p / q) if accept else (m, m)
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


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
    blocks of bounded size; Brent's zero finder refines each local maximum
    of the scan to the root of the profile's score, and the best one is the
    fit. ``converged`` (the search bracket met its tolerance) is always True.
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
    # Refine every local maximum of the scan to the root of the score in the bracket (a, c) of
    # its neighbours when the score falls from + to - across it; otherwise (on the clip or the
    # scan's edge) the scan point stands. A small tail's profile can have two near-equal modes.
    fits = []
    for i in [j for j, v in enumerate(values) if v == max(values[max(j - 1, 0):j + 2])]:
        a, c = scan[max(i - 1, 0)], scan[min(i + 1, _SCAN_POINTS - 1)]
        fa, fc = profile.score(a), profile.score(c)
        fits.append(profile(_zeroin(profile.score, a, c, fa, fc) if fa > 0.0 > fc else scan[i]))
    _, shape, scale = max(fits)
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
