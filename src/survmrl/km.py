"""Product-limit survival estimation and exact step-function arithmetic.

The survival estimate is a right-continuous step function: value 1 up to
the first event time, then the running product of (n_j - d_j) / n_j over
distinct event times t_(j), where n_j counts subjects still at risk just
before t_(j) and d_j the events at t_(j). Integrals of step functions are
computed as exact segment sums, never by quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalSample
from .errors import EstimationError


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function on [0, inf).

    ``initial_value`` holds on [0, knots[0]); the value at each knot is
    the post-jump value. A knotless instance is the constant function.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    initial_value: float

    def __post_init__(self):
        if len(self.knots) != len(self.values):
            raise ValueError("knots and values must have equal length")
        if any(k < 0 or not math.isfinite(k) for k in self.knots):
            raise ValueError("knots must be finite and >= 0")
        if any(a >= b for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, t: float) -> float:
        return step_eval(self, t)


@dataclass(frozen=True)
class KmCurve:
    """Fitted product-limit curve with its per-event-time bookkeeping."""

    event_times: tuple[float, ...]
    at_risk: tuple[int, ...]
    deaths: tuple[int, ...]
    survival: StepFunction
    censor_marks: tuple[float, ...]


def step_eval(f: StepFunction, t: float) -> float:
    """Evaluate ``f`` at ``t`` >= 0 (right-continuous at knots)."""
    if not (math.isfinite(t) and t >= 0.0):
        raise EstimationError(f"step function argument must be finite and >= 0, got {t!r}")
    i = bisect_right(f.knots, t)
    if i == 0:
        return f.initial_value
    return f.values[i - 1]


def step_eval_many(f: StepFunction, ts: np.ndarray) -> np.ndarray:
    """Vectorized step_eval over an array of non-negative times."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and (not np.all(np.isfinite(ts)) or np.any(ts < 0)):
        raise EstimationError("step function arguments must be finite and >= 0")
    knots = np.asarray(f.knots)
    values = np.concatenate(([f.initial_value], np.asarray(f.values)))
    return values[np.searchsorted(knots, ts, side="right")]


def step_integral(f: StepFunction, a: float, b: float) -> float:
    """Exact integral of ``f`` over [a, b] as a sum of segment areas."""
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or a > b:
        raise EstimationError(f"integration bounds must satisfy 0 <= a <= b, got [{a!r}, {b!r}]")
    if a == b:
        return 0.0
    # Segment boundaries: a, the knots inside (a, b), then b.
    lo = bisect_right(f.knots, a)
    hi = bisect_right(f.knots, b)
    total = 0.0
    left = a
    value = f.initial_value if lo == 0 else f.values[lo - 1]
    for i in range(lo, hi):
        knot = f.knots[i]
        if knot >= b:
            break
        total += value * (knot - left)
        left = knot
        value = f.values[i]
    total += value * (b - left)
    return total


def km_fit(sample: SurvivalSample) -> KmCurve:
    """Fit the product-limit survival curve to one sample.

    Censored observations reduce later risk sets but add no jump; the
    curve reaches 0 only when the last-ordered observation is an event.
    """
    event_times, at_risk, deaths, surv = product_limit(sample.times, sample.statuses)
    knots = tuple(event_times.tolist())
    return KmCurve(
        event_times=knots,
        at_risk=tuple(at_risk.tolist()),
        deaths=tuple(deaths.tolist()),
        survival=StepFunction(knots=knots, values=tuple(surv.tolist()), initial_value=1.0),
        censor_marks=tuple(sample.times[sample.statuses == 0].tolist()),
    )


def product_limit(times: np.ndarray, statuses: np.ndarray):
    """Core product-limit recursion on time-sorted arrays.

    Returns (event_times, at_risk, deaths, survival_values) for the
    distinct times carrying at least one event. ``times`` must be sorted
    ascending; tie order does not affect the result.
    """
    n = len(times)
    distinct, first_index = np.unique(times, return_index=True)
    d = np.add.reduceat(statuses, first_index)
    has_event = d > 0
    event_times = distinct[has_event]
    deaths = d[has_event]
    at_risk = n - first_index[has_event]
    surv = np.cumprod((at_risk - deaths) / at_risk)
    return event_times, at_risk, deaths, surv
