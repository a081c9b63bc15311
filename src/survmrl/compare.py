"""Two-group comparison curves and seeded permutation envelopes.

Comparison kinds: pointwise survival difference S_A(t) - S_B(t),
pointwise survival ratio S_A(t) / S_B(t) (only where the denominator is
positive), and the difference of hybrid MRL estimates. Reference bands
come from relabeling the pooled subjects: each of B replicates permutes
group membership (sizes preserved), recomputes the comparison on the
fixed grid, and the band is the pointwise quantile span of the replicate
values. Replicate b draws from a stream derived from (seed, b), so the
envelope does not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalSample
from .errors import EstimationError
from .km import KmCurve, km_fit, product_limit, step_eval_many
from .mrl import MrlCurve, evaluate_mrl

KINDS = ("surv_diff", "surv_ratio", "mrl_diff")


@dataclass(frozen=True)
class ComparisonCurve:
    grid: tuple[float, ...]
    values: tuple[float, ...]
    kind: str
    group_a: str
    group_b: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class Envelope:
    """Pointwise reference band from B seeded label permutations.

    ``defined_counts[i]`` is how many replicates produced a finite value
    at grid point i; for ratio envelopes it can drop below B when a
    permuted denominator curve hits zero early.
    """

    grid: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_permutations: int
    seed: int
    band_quantiles: tuple[float, float]
    kind: str
    defined_counts: tuple[int, ...]


def _default_grid(curve_a: KmCurve, curve_b: KmCurve, max_a: float, max_b: float) -> np.ndarray:
    horizon = min(max_a, max_b)
    merged = sorted(set(curve_a.event_times) | set(curve_b.event_times))
    return np.array([t for t in merged if t <= horizon])


def _follow_up(curve: KmCurve) -> float:
    times = curve.event_times + curve.censor_marks
    return max(times)


def survival_difference(
    curve_a: KmCurve,
    curve_b: KmCurve,
    grid: tuple[float, ...] | list[float] | None = None,
    group_a: str = "A",
    group_b: str = "B",
) -> ComparisonCurve:
    """Pointwise S_A - S_B on the union of event times within the common window."""
    if grid is None:
        grid_arr = _default_grid(curve_a, curve_b, _follow_up(curve_a), _follow_up(curve_b))
    else:
        grid_arr = np.array(sorted(set(float(t) for t in grid)))
    if grid_arr.size == 0:
        raise EstimationError("no common follow-up window")
    values = step_eval_many(curve_a.survival, grid_arr) - step_eval_many(curve_b.survival, grid_arr)
    return ComparisonCurve(
        grid=tuple(float(t) for t in grid_arr),
        values=tuple(float(v) for v in values),
        kind="surv_diff",
        group_a=group_a,
        group_b=group_b,
    )


def survival_ratio(
    curve_a: KmCurve,
    curve_b: KmCurve,
    grid: tuple[float, ...] | list[float] | None = None,
    group_a: str = "A",
    group_b: str = "B",
) -> ComparisonCurve:
    """Pointwise S_A / S_B, restricted to times where S_B is positive."""
    if grid is None:
        grid_arr = _default_grid(curve_a, curve_b, _follow_up(curve_a), _follow_up(curve_b))
    else:
        grid_arr = np.array(sorted(set(float(t) for t in grid)))
    s_b = step_eval_many(curve_b.survival, grid_arr)
    keep = s_b > 0.0
    grid_arr = grid_arr[keep]
    if grid_arr.size == 0:
        raise EstimationError("ratio undefined: denominator survival is zero")
    values = step_eval_many(curve_a.survival, grid_arr) / s_b[keep]
    return ComparisonCurve(
        grid=tuple(float(t) for t in grid_arr),
        values=tuple(float(v) for v in values),
        kind="surv_ratio",
        group_a=group_a,
        group_b=group_b,
    )


def mrl_difference(
    mrl_a: MrlCurve,
    mrl_b: MrlCurve,
    group_a: str = "A",
    group_b: str = "B",
) -> ComparisonCurve:
    """Difference of hybrid MRL estimates on the overlap of both domains.

    Both curves are re-evaluated (consistently with their own fits) on
    the union of their grids inside the common window.
    """
    lo = max(mrl_a.grid[0], mrl_b.grid[0])
    hi = min(mrl_a.threshold, mrl_b.threshold)
    if lo > hi:
        raise EstimationError("no overlapping MRL domain")
    points = sorted(t for t in set(mrl_a.grid) | set(mrl_b.grid) if lo <= t <= hi)
    if not points:
        raise EstimationError("no overlapping MRL domain")
    values = tuple(evaluate_mrl(mrl_a, t) - evaluate_mrl(mrl_b, t) for t in points)
    return ComparisonCurve(
        grid=tuple(points),
        values=values,
        kind="mrl_diff",
        group_a=group_a,
        group_b=group_b,
    )


def _km_on_grid(times: np.ndarray, statuses: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Product-limit survival of (times, statuses) evaluated on a grid."""
    order = np.argsort(times, kind="stable")
    knots, _, _, surv = product_limit(times[order], statuses[order])
    return np.concatenate(([1.0], surv))[np.searchsorted(knots, grid, side="right")]


def _replicate_values(
    times: np.ndarray,
    statuses: np.ndarray,
    n_a: int,
    grid: np.ndarray,
    kind: str,
    seed: int,
    replicate: int,
) -> np.ndarray:
    """Comparison values for one permutation replicate.

    A pure function of (seed, replicate): the stream is spawned from the
    master seed with the replicate index as spawn key.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))
    perm = rng.permutation(len(times))
    in_a = perm[:n_a]
    in_b = perm[n_a:]
    s_a = _km_on_grid(times[in_a], statuses[in_a], grid)
    s_b = _km_on_grid(times[in_b], statuses[in_b], grid)
    if kind == "surv_diff":
        return s_a - s_b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s_a / s_b
    ratio[s_b == 0.0] = np.nan
    return ratio


def permutation_envelope(
    sample_a: SurvivalSample,
    sample_b: SurvivalSample,
    kind: str,
    n_permutations: int,
    seed: int,
    grid: tuple[float, ...] | list[float] | None = None,
    band_quantiles: tuple[float, float] = (0.025, 0.975),
) -> Envelope:
    """Pointwise permutation reference band for a two-group comparison.

    The grid defaults to the one the observed comparison curve uses, so
    band and curve line up. Ratio replicates whose denominator hits zero
    at a grid point are excluded from that point's quantiles; the
    per-point count of defined replicates is reported.
    """
    if kind not in ("surv_diff", "surv_ratio"):
        raise EstimationError(f"no envelope defined for kind {kind!r}")
    if n_permutations < 1:
        raise EstimationError("need at least one permutation")
    if sample_a.n + sample_b.n < 4:
        raise EstimationError("pooled sample too small for permutation")
    if not (0.0 <= band_quantiles[0] < band_quantiles[1] <= 1.0):
        raise EstimationError(f"invalid band quantiles {band_quantiles!r}")

    curve_a = km_fit(sample_a)
    curve_b = km_fit(sample_b)
    if grid is None:
        base = survival_difference if kind == "surv_diff" else survival_ratio
        grid_arr = np.array(base(curve_a, curve_b).grid)
    else:
        grid_arr = np.array(sorted(set(float(t) for t in grid)))
    if grid_arr.size == 0:
        raise EstimationError("no common follow-up window")

    times = np.concatenate((sample_a.times, sample_b.times))
    statuses = np.concatenate((sample_a.statuses, sample_b.statuses))
    replicates = np.empty((n_permutations, grid_arr.size))
    for b in range(n_permutations):
        replicates[b] = _replicate_values(
            times, statuses, sample_a.n, grid_arr, kind, seed, b
        )

    defined = np.isfinite(replicates)
    counts = defined.sum(axis=0)
    lower = np.full(grid_arr.size, np.nan)
    upper = np.full(grid_arr.size, np.nan)
    for i in range(grid_arr.size):
        col = replicates[defined[:, i], i]
        if col.size:
            lower[i] = np.quantile(col, band_quantiles[0])
            upper[i] = np.quantile(col, band_quantiles[1])
    return Envelope(
        grid=tuple(float(t) for t in grid_arr),
        lower=tuple(float(v) for v in lower),
        upper=tuple(float(v) for v in upper),
        n_permutations=n_permutations,
        seed=seed,
        band_quantiles=(float(band_quantiles[0]), float(band_quantiles[1])),
        kind=kind,
        defined_counts=tuple(int(c) for c in counts),
    )
