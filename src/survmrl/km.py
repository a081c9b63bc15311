"""Product-limit survival estimation and exact step-function arithmetic.

The survival estimate is a right-continuous step function: value 1 up to
the first event time, then the running product of (n_j - d_j) / n_j over
distinct event times t_(j), where n_j counts subjects still at risk just
before t_(j) and d_j the events at t_(j). Integrals of step functions are
computed as exact segment sums, never by quadrature.

``km_fit`` and the permutation envelope share one product-limit kernel:
``event_bins`` (binning, in one pass over subjects in ``SurvivalSample``
order), ``risk_counts`` (n_j and d_j) and ``survival_levels`` (the
running product); the last two write into buffers their caller owns, so
an envelope reuses one set across its replicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalSample, fields_equal, freeze_columns
from .errors import EstimationError


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous piecewise-constant function on [0, inf).

    ``initial_value`` holds on [0, knots[0]); the value at each knot is
    the post-jump value. A knotless instance is the constant function.
    ``knots`` and ``values`` are read-only float arrays; knots are finite,
    >= 0 and strictly increasing, and every level is finite.
    """

    knots: np.ndarray
    values: np.ndarray
    initial_value: float

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, knots=float, values=float)
        if not (
            np.all(np.isfinite(self.knots) & (self.knots >= 0.0))
            and np.all(np.diff(self.knots) > 0.0)
            and np.all(np.isfinite(np.append(self.values, self.initial_value)))
        ):
            raise ValueError("knots must be finite, >= 0 and strictly increasing, and values finite")


@dataclass(frozen=True, eq=False)
class KmCurve:
    """Fitted product-limit curve with its per-event-time bookkeeping, as
    read-only arrays (times float, counts int64)."""

    event_times: np.ndarray
    at_risk: np.ndarray
    deaths: np.ndarray
    survival: StepFunction
    censor_marks: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, event_times=float, at_risk=np.int64, deaths=np.int64)
        freeze_columns(self, censor_marks=float)


def sorted_grid(points) -> np.ndarray:
    """The distinct values of ``points`` in ascending order, -0.0 read as 0.0."""
    return np.unique(np.asarray(points, dtype=float) + 0.0)


def check_grid(grid: np.ndarray) -> None:
    """Raise ValueError unless ``grid`` is finite and strictly increasing."""
    if not (np.isfinite(grid).all() and (np.diff(grid) > 0.0).all()):
        raise ValueError("a grid must be finite and strictly increasing")


def step_eval(f: StepFunction, t):
    """``f`` at ``t`` >= 0 (right-continuous at knots): a float for a float, an array for an array."""
    ts = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(ts) & (ts >= 0.0))
    if bad.any():
        raise EstimationError(
            f"step function argument must be finite and >= 0, got {float(ts[bad].flat[0])!r}"
        )
    levels = np.concatenate(([f.initial_value], f.values))
    values = levels[np.searchsorted(f.knots, ts, side="right")]
    return float(values) if ts.ndim == 0 else values


def step_integral(f: StepFunction, a, b: float):
    """Exact integral of ``f`` over [a, b]; ``a`` may be an array of lower bounds.

    One suffix-area table is built from ``b``: the knots strictly below b
    split [0, b] into segments, and ``suffix[i]`` sums the areas of
    segment i and every segment after it, accumulated from b leftwards.
    A lower bound then costs one ``searchsorted``: the partial area from
    a to the next edge plus that edge's suffix. The value at each a
    depends only on (f, a, b), never on the other bounds in the batch.
    A scalar ``a`` returns a float, an array ``a`` an array.
    """
    b = float(b)
    lower = np.asarray(a, dtype=float)
    bad = ~((lower >= 0.0) & (lower <= b)) | (not math.isfinite(b))
    if bad.any():
        first = float(lower[bad].flat[0])
        raise EstimationError(f"integration bounds must satisfy 0 <= a <= b, got [{first!r}, {b!r}]")
    below = f.knots[: np.searchsorted(f.knots, b, side="left")]
    edge = np.append(below, b)
    # level[i] is f on [edge[i - 1], edge[i]), with edge[-1] = 0.
    level = np.concatenate(([f.initial_value], f.values[: below.size]))
    areas = level[1:] * np.diff(edge)
    suffix = np.append(np.cumsum(areas[::-1])[::-1], 0.0)
    i = np.searchsorted(below, lower, side="right")
    total = level[i] * (edge[i] - lower) + suffix[i]
    return float(total) if lower.ndim == 0 else total


def km_fit(sample: SurvivalSample) -> KmCurve:
    """Fit the product-limit survival curve to one sample.

    Censored observations reduce later risk sets but add no jump; the
    curve reaches 0 only when the last-ordered observation is an event.
    """
    event_times, past, death_at = event_bins(sample.times, sample.statuses == 1)
    at_risk, deaths = np.empty((2, event_times.size), dtype=np.int64)
    risk_counts(past, death_at, at_risk, deaths)
    levels = np.empty(event_times.size + 1)
    survival_levels(at_risk.astype(float), deaths.astype(float), levels)
    return KmCurve(
        event_times=event_times,
        at_risk=at_risk,
        deaths=deaths,
        survival=StepFunction(knots=event_times, values=levels[1:], initial_value=1.0),
        censor_marks=sample.times[sample.statuses == 0],
    )


def event_bins(times: np.ndarray, died: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct event times, and every subject's bins against them.

    Subject i is at risk at event time j exactly when ``past[i] > j``
    (``past`` counts the event times at or before its time) and dies there
    when ``death_at[i] == j``; a censored subject's ``death_at`` is the
    sentinel bin past the last event time. The subjects must be in
    ``SurvivalSample`` order: ``times`` ascending, events before
    censorings at equal times. Then a time's first row is an event
    exactly when the time is an event time, and one pass bins them all.
    """
    start = np.empty(times.size, dtype=bool)
    start[:1] = True
    np.not_equal(times[1:], times[:-1], out=start[1:])
    new = died & start
    past = np.cumsum(new, dtype=np.int64)
    event_times = times[new]
    return event_times, past, np.where(died, past - 1, event_times.size)


def risk_counts(past: np.ndarray, death_at: np.ndarray, at_risk: np.ndarray, deaths: np.ndarray) -> None:
    """Write the subjects at risk just before, and the deaths at, each event
    time into ``at_risk`` and ``deaths`` (one entry per event time, int64 or
    float64); the two bincounts are the only arrays it allocates."""
    n_times = at_risk.size
    passed = np.bincount(past, minlength=n_times + 1)
    at_risk[...] = np.cumsum(passed, out=passed)[:n_times]
    np.subtract(past.size, at_risk, out=at_risk)
    deaths[...] = np.bincount(death_at, minlength=n_times + 1)[:n_times]


def survival_levels(at_risk: np.ndarray, deaths: np.ndarray, levels: np.ndarray) -> None:
    """Write 1.0, then the running product of (r - d) / r, along the last axis
    of ``levels``: entry j is the survival after j event times.

    ``at_risk`` and ``deaths`` are float64 buffers with one event time per
    column (one row per group, or one row), which this overwrites; ``levels``
    has one more column. Counts below 2**53 are exact in float64, so each
    factor has the bits of the int64 true division. A time where one group
    of the pooled subjects has no death gives r / r = 1.0 (1 / 1 past its
    last subject, where r is 0), which changes no bits of the product: the
    group's levels equal ``km_fit`` on it alone.
    """
    np.maximum(at_risk, 1.0, out=at_risk)
    np.subtract(at_risk, deaths, out=deaths)
    np.divide(deaths, at_risk, out=deaths)
    levels[..., 0] = 1.0
    np.cumprod(deaths, axis=-1, out=levels[..., 1:])
