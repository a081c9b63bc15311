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

from .dataset import SurvivalSample, fields_equal, freeze_columns
from .errors import EstimationError
from .gpd import GpdFit, fit_gpd, gpd_mrl_at_threshold
from .km import StepFunction, km_fit, sorted_grid, step_eval, step_integral


@dataclass(frozen=True)
class ThresholdConfig:
    """How to pick the tail threshold u: ``explicit_value`` when it is
    set, else the ``quantile`` of the event times."""

    quantile: float = 0.8
    explicit_value: float | None = None
    min_exceedances: int = 10

    def __post_init__(self):
        if not (0.0 < self.quantile < 1.0):
            raise ValueError(f"quantile must be strictly inside (0, 1), got {self.quantile!r}")
        if self.min_exceedances < 2:
            raise ValueError("min_exceedances must be >= 2")
        if self.explicit_value is not None and not (0.0 <= self.explicit_value < math.inf):
            raise ValueError(f"explicit_value must be finite and >= 0, got {self.explicit_value!r}")


@dataclass(frozen=True, eq=False)
class MrlCurve:
    """Hybrid MRL evaluated on a grid over [0, threshold], as read-only arrays.

    ``values`` is elementwise exactly ``km_component + tail_component``;
    the value at the threshold equals the fitted tail mean. ``survival``
    keeps the product-limit step function so the curve can be re-evaluated
    consistently at new points (see ``evaluate_mrl``).
    """

    grid: np.ndarray
    values: np.ndarray
    km_component: np.ndarray
    tail_component: np.ndarray
    threshold: float
    gpd: GpdFit
    survival: StepFunction

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, grid=float, values=float, km_component=float, tail_component=float)


def select_threshold(sample: SurvivalSample, config: ThresholdConfig) -> float:
    """Pick the tail threshold u per the config.

    Without an explicit value, u is the configured quantile of event
    times, linearly interpolated at rank (n_events - 1) * q. Either way u
    must leave at least ``min_exceedances`` observations strictly above it.
    """
    if config.explicit_value is not None:
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


def _components(survival: StepFunction, t: np.ndarray, u: float, tail_mean: float):
    """KM and tail parts of the hybrid MRL at every point of ``t``."""
    s_t = step_eval(survival, t)
    zero = np.flatnonzero(s_t <= 0.0)
    if zero.size:
        raise EstimationError(f"MRL undefined at t={float(np.ravel(t)[zero[0]])!r}: zero survival")
    km_part = step_integral(survival, t, u) / s_t
    tail_part = tail_mean * (step_eval(survival, u) / s_t)
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
    above = sample.times > u  # censored excesses enter the fit too
    gpd = fit_gpd(sample.times[above] - u, sample.statuses[above])
    tail_mean = gpd_mrl_at_threshold(gpd)
    curve = km_fit(sample)

    points = np.append(sample.times, 0.0) if grid is None else np.asarray(grid, dtype=float)
    points = sorted_grid(np.append(points[(points >= 0.0) & (points <= u)], u))
    km_parts, tail_parts = _components(curve.survival, points, u, tail_mean)
    return MrlCurve(
        grid=points,
        values=km_parts + tail_parts,
        km_component=km_parts,
        tail_component=tail_parts,
        threshold=u,
        gpd=gpd,
        survival=curve.survival,
    )


def evaluate_mrl(curve: MrlCurve, t):
    """Re-evaluate the fitted hybrid estimate at any t in [0, threshold].

    ``t`` may be a float (returns a float) or an array (returns an
    array). Uses the stored survival step function and tail fit, so
    values agree exactly with the curve's own grid values at shared
    points, whatever the batch.
    """
    ts = np.asarray(t, dtype=float)
    outside = ~((ts >= 0.0) & (ts <= curve.threshold))
    if outside.any():
        raise EstimationError(
            f"t={float(ts[outside].flat[0])!r} outside the fitted MRL domain [0, {curve.threshold!r}]"
        )
    tail_mean = gpd_mrl_at_threshold(curve.gpd)
    km_part, tail_part = _components(curve.survival, ts, curve.threshold, tail_mean)
    return km_part + tail_part
