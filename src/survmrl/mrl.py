"""Hybrid mean residual life estimation.

Below a threshold u the mean residual life is estimated from the
product-limit curve (exact restricted integral); the unobserved region
beyond u is covered by a censored-likelihood GPD fit to the excesses
above u. The two pieces combine at any t <= u as

    mrl(t) = restricted_km(t, u) + tail_mean_at_u * S(u) / S(t)

with tail_mean_at_u = scale / (1 - shape). The threshold defaults to the
0.8 quantile of observed event times (linear interpolation between order
statistics) and must leave at least ``min_exceedances`` observations
strictly above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalSample
from .errors import EstimationError
from .gpd import Exceedance, GpdFit, fit_gpd, gpd_mrl_at_threshold
from .km import StepFunction, km_fit, step_eval, step_integral


@dataclass(frozen=True)
class ThresholdConfig:
    """How to pick the tail threshold u."""

    mode: str = "quantile"
    quantile: float = 0.8
    explicit_value: float | None = None
    min_exceedances: int = 10

    def __post_init__(self):
        if self.mode not in ("quantile", "explicit"):
            raise ValueError(f"mode must be 'quantile' or 'explicit', got {self.mode!r}")
        if not (0.0 < self.quantile < 1.0):
            raise ValueError(f"quantile must be strictly inside (0, 1), got {self.quantile!r}")
        if self.min_exceedances < 2:
            raise ValueError("min_exceedances must be >= 2")
        if self.mode == "explicit" and self.explicit_value is None:
            raise ValueError("explicit mode needs explicit_value")


@dataclass(frozen=True)
class MrlCurve:
    """Hybrid MRL evaluated on a grid over [0, threshold].

    ``values`` is elementwise exactly ``km_component + tail_component``;
    the value at the threshold equals the fitted tail mean. ``survival``
    keeps the product-limit step function so the curve can be re-evaluated
    consistently at new points (see ``evaluate_mrl``).
    """

    grid: tuple[float, ...]
    values: tuple[float, ...]
    km_component: tuple[float, ...]
    tail_component: tuple[float, ...]
    threshold: float
    gpd: GpdFit
    source_n: int
    survival: StepFunction


def select_threshold(sample: SurvivalSample, config: ThresholdConfig) -> float:
    """Pick the tail threshold u per the config.

    Quantile mode takes the configured quantile of event times, linearly
    interpolated at rank (n_events - 1) * q. Either mode requires at
    least ``min_exceedances`` observations strictly above u.
    """
    if config.mode == "explicit":
        u = float(config.explicit_value)
    else:
        event_times = sample.times[sample.statuses == 1]
        if event_times.size == 0:
            raise EstimationError("no events for quantile threshold")
        h = (event_times.size - 1) * config.quantile
        low = int(math.floor(h))
        high = min(low + 1, event_times.size - 1)
        u = float(event_times[low] + (h - low) * (event_times[high] - event_times[low]))
    if np.count_nonzero(sample.times > u) < config.min_exceedances:
        raise EstimationError(
            "threshold too high: fewer than "
            f"{config.min_exceedances} tail observations above u={u!r}"
        )
    return u


def tail_exceedances(sample: SurvivalSample, u: float) -> list[Exceedance]:
    """Excesses above u, censored ones included (their flags enter the fit)."""
    above = sample.times > u
    excesses = (sample.times[above] - u).tolist()
    return [
        Exceedance(excess=e, status=s) for e, s in zip(excesses, sample.statuses[above].tolist())
    ]


def _components(curve_survival: StepFunction, t: float, u: float, tail_mean: float):
    s_t = step_eval(curve_survival, t)
    if s_t <= 0.0:
        raise EstimationError(f"MRL undefined at t={t!r}: zero survival")
    km_part = step_integral(curve_survival, t, u) / s_t
    tail_part = tail_mean * (step_eval(curve_survival, u) / s_t)
    return km_part, tail_part


def fit_hybrid_mrl(
    sample: SurvivalSample,
    config: ThresholdConfig = ThresholdConfig(),
    grid: tuple[float, ...] | list[float] | None = None,
) -> MrlCurve:
    """Fit the hybrid MRL curve for one sample.

    The default grid is every distinct observed time at or below the
    threshold, plus 0 and the threshold itself. A caller-supplied grid is
    restricted to [0, u] (points beyond the threshold are dropped; the
    curve is not extrapolated past u) and always closed with u.
    """
    u = select_threshold(sample, config)
    gpd = fit_gpd(tail_exceedances(sample, u), threshold=u)
    tail_mean = gpd_mrl_at_threshold(gpd)
    curve = km_fit(sample)

    if grid is None:
        points = np.unique(np.append(sample.times[sample.times <= u], (0.0, u))).tolist()
    else:
        points = sorted({float(t) for t in grid if 0.0 <= t <= u} | {u})
    grid_arr = tuple(points)

    km_parts, tail_parts, values = [], [], []
    for t in grid_arr:
        km_part, tail_part = _components(curve.survival, t, u, tail_mean)
        km_parts.append(km_part)
        tail_parts.append(tail_part)
        values.append(km_part + tail_part)
    return MrlCurve(
        grid=grid_arr,
        values=tuple(values),
        km_component=tuple(km_parts),
        tail_component=tuple(tail_parts),
        threshold=u,
        gpd=gpd,
        source_n=sample.n,
        survival=curve.survival,
    )


def evaluate_mrl(curve: MrlCurve, t: float) -> float:
    """Re-evaluate the fitted hybrid estimate at any t in [0, threshold].

    Uses the stored survival step function and tail fit, so values agree
    exactly with the curve's own grid values at shared points.
    """
    if not (0.0 <= t <= curve.threshold):
        raise EstimationError(
            f"t={t!r} outside the fitted MRL domain [0, {curve.threshold!r}]"
        )
    tail_mean = gpd_mrl_at_threshold(curve.gpd)
    km_part, tail_part = _components(curve.survival, t, curve.threshold, tail_mean)
    return km_part + tail_part
