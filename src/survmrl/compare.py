"""Two-group comparison curves and seeded permutation envelopes.

Comparison kinds: pointwise survival difference S_A(t) - S_B(t),
pointwise survival ratio S_A(t) / S_B(t) (only where the denominator is
positive), and the difference of hybrid MRL estimates. Reference bands
come from relabeling the pooled subjects: each of B replicates permutes
group membership (sizes preserved), recomputes the comparison on the
fixed grid, and the band is the pointwise quantile span of the replicate
values. Replicate b draws from a stream derived from (seed, b), so the
envelope does not depend on evaluation order. The pooled subjects are
binned against the pooled event times once; a replicate only counts its
group A's subjects per bin, and the quantiles are taken a block of grid
columns at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import SurvivalSample, fields_equal, freeze_columns
from .errors import EstimationError
from .km import KmCurve, event_bins, km_fit, risk_counts, sorted_grid, step_eval, survival_levels
from .mrl import MrlCurve, evaluate_mrl


@dataclass(frozen=True, eq=False)
class ComparisonCurve:
    """Comparison values on a grid, both read-only float arrays."""

    grid: np.ndarray
    values: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, grid=float, values=float)


@dataclass(frozen=True, eq=False)
class Envelope:
    """Pointwise reference band from B seeded label permutations.

    The columns are read-only arrays. ``defined_counts[i]`` is how many
    replicates produced a finite value at grid point i; for ratio
    envelopes it can drop below B when a permuted denominator curve hits
    zero early.
    """

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_permutations: int
    seed: int
    band_quantiles: tuple[float, float]
    kind: str
    defined_counts: np.ndarray

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, grid=float, lower=float, upper=float, defined_counts=np.int64)


def _grid(grid, curve_a: KmCurve | None = None, curve_b: KmCurve | None = None) -> np.ndarray:
    """``grid`` sorted, or both curves' event times up to the shorter
    follow-up; an empty window is an error for every comparison."""
    if grid is not None:
        grid_arr = sorted_grid(grid)
    else:
        merged = np.union1d(curve_a.event_times, curve_b.event_times)
        grid_arr = merged[merged <= min(_follow_up(curve_a), _follow_up(curve_b))]
    if grid_arr.size == 0:
        raise EstimationError("no common follow-up window")
    return grid_arr


def _follow_up(curve: KmCurve) -> float:
    return max(curve.event_times.max(initial=0.0), curve.censor_marks.max(initial=0.0))


def survival_difference(
    curve_a: KmCurve,
    curve_b: KmCurve,
    grid: tuple[float, ...] | list[float] | None = None,
) -> ComparisonCurve:
    """Pointwise S_A - S_B on the union of event times within the common window."""
    grid_arr = _grid(grid, curve_a, curve_b)
    values = step_eval(curve_a.survival, grid_arr) - step_eval(curve_b.survival, grid_arr)
    return ComparisonCurve(grid=grid_arr, values=values)


def survival_ratio(
    curve_a: KmCurve,
    curve_b: KmCurve,
    grid: tuple[float, ...] | list[float] | None = None,
) -> ComparisonCurve:
    """Pointwise S_A / S_B, restricted to times where S_B is positive."""
    grid_arr = _grid(grid, curve_a, curve_b)
    s_b = step_eval(curve_b.survival, grid_arr)
    keep = s_b > 0.0
    grid_arr = grid_arr[keep]
    if grid_arr.size == 0:
        raise EstimationError("ratio undefined: denominator survival is zero")
    values = step_eval(curve_a.survival, grid_arr) / s_b[keep]
    return ComparisonCurve(grid=grid_arr, values=values)


def mrl_difference(mrl_a: MrlCurve, mrl_b: MrlCurve) -> ComparisonCurve:
    """Difference of hybrid MRL estimates on the overlap of both domains.

    Both curves are re-evaluated (consistently with their own fits) on
    the union of their grids inside the common window.
    """
    lo = max(mrl_a.grid[0], mrl_b.grid[0])
    hi = min(mrl_a.threshold, mrl_b.threshold)
    if lo > hi:
        raise EstimationError("no overlapping MRL domain")
    # Nonempty: lo is a grid point of one curve and lies in [lo, hi].
    points = np.union1d(mrl_a.grid, mrl_b.grid)
    points = points[(points >= lo) & (points <= hi)]
    values = evaluate_mrl(mrl_a, points) - evaluate_mrl(mrl_b, points)
    return ComparisonCurve(grid=points, values=values)


# Grid columns per quantile block: each block is sorted as one
# (replicates x _QUANTILE_BLOCK) copy, so the band never holds more.
_QUANTILE_BLOCK = 256


class _Pool(NamedTuple):
    """Both samples' subjects binned once against the pooled event times
    (see ``km.event_bins``). Relabelling subjects moves them between
    groups but never changes their bins."""

    n_a: int
    past: np.ndarray
    death_at: np.ndarray
    at_risk: np.ndarray  # pooled, just before each event time
    deaths: np.ndarray  # pooled, at each event time
    at_grid: np.ndarray  # number of pooled event times at or before each grid point


def _pool(sample_a: SurvivalSample, sample_b: SurvivalSample, grid: np.ndarray) -> _Pool:
    event_times, past, death_at = event_bins(
        np.concatenate((sample_a.times, sample_b.times)),
        np.concatenate((sample_a.statuses, sample_b.statuses)) == 1,
    )
    return _Pool(
        sample_a.n,
        past,
        death_at,
        *risk_counts(past, death_at, event_times.size),
        np.searchsorted(event_times, grid, side="right"),
    )


def _relabelled_values(pool: _Pool, kind: str, seed: int, replicate: int) -> np.ndarray:
    """Comparison values for one permutation replicate.

    A pure function of (seed, replicate): the first ``n_a`` subjects of a
    permutation drawn from ``replicate_rng(seed, replicate)`` form group A.
    Group A's counts come from those subjects' bins alone; group B's are
    the pooled counts minus A's.
    """
    in_a = replicate_rng(seed, replicate).permutation(pool.past.size)[: pool.n_a]
    at_risk_a, deaths_a = risk_counts(pool.past[in_a], pool.death_at[in_a], pool.deaths.size)
    s_a = survival_levels(at_risk_a, deaths_a)[pool.at_grid]
    s_b = survival_levels(pool.at_risk - at_risk_a, pool.deaths - deaths_a)[pool.at_grid]
    if kind == "surv_diff":
        return s_a - s_b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s_a / s_b
    ratio[s_b == 0.0] = np.nan
    return ratio


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """The random stream of one resampling replicate: spawned from the
    master seed with the replicate index as spawn key, so it does not
    depend on which replicates ran before it. Permutation envelopes and
    bootstrap intervals both draw from it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def _band(
    replicates: np.ndarray, quantiles: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column: the two quantiles of its defined replicates, and their count.

    Undefined values are NaN, which a sort puts last, so after sorting a
    block the first ``count`` rows of a column are exactly its defined
    values; columns sharing a count take one ``np.quantile`` call. A
    column without a defined value stays NaN.
    """
    counts = np.isfinite(replicates).sum(axis=0)
    band = np.full((2, replicates.shape[1]), np.nan)
    for start in range(0, replicates.shape[1], _QUANTILE_BLOCK):
        stop = start + _QUANTILE_BLOCK
        block = np.sort(replicates[:, start:stop], axis=0)
        block_counts = counts[start:stop]
        for count in np.unique(block_counts[block_counts > 0]):
            columns = np.flatnonzero(block_counts == count)
            band[:, start + columns] = np.quantile(block[:count, columns], quantiles, axis=0)
    return band[0], band[1], counts


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

    if grid is None:
        base = survival_difference if kind == "surv_diff" else survival_ratio
        grid_arr = base(km_fit(sample_a), km_fit(sample_b)).grid
    else:
        grid_arr = _grid(grid)

    pool = _pool(sample_a, sample_b, grid_arr)
    replicates = np.empty((n_permutations, grid_arr.size))
    for b in range(n_permutations):
        replicates[b] = _relabelled_values(pool, kind, seed, b)
    lower, upper, counts = _band(replicates, band_quantiles)
    return Envelope(
        grid=grid_arr,
        lower=lower,
        upper=upper,
        n_permutations=n_permutations,
        seed=seed,
        band_quantiles=(float(band_quantiles[0]), float(band_quantiles[1])),
        kind=kind,
        defined_counts=counts,
    )
