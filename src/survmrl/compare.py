"""Two-group comparison curves and seeded permutation envelopes.

Comparison kinds: pointwise survival difference S_A(t) - S_B(t),
pointwise survival ratio S_A(t) / S_B(t) (only where the denominator is
positive), and the difference of hybrid MRL estimates. Reference bands
come from relabeling the pooled subjects: each of B replicates permutes
group membership (sizes preserved), recomputes the comparison on the
fixed grid, and the band is the pointwise quantile span of the replicate
values; ``permutation_envelope`` returns the comparison curve with that
band. Replicate b draws from a stream derived from (seed, b), so the
envelope does not depend on evaluation order. The pooled subjects are
binned against the pooled event times once; a replicate only counts its
group A's subjects per bin. The band sorts a block of grid columns at a
time, as rows, and interpolates numpy's default ("linear") quantile
straight off the sorted rows; ``_band`` also gives the survey bootstrap
its percentile intervals, and ``bootstrap_indices`` draws its resampling
indices from the same replicate streams, a block of replicates at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .dataset import SurvivalSample, fields_equal, freeze_columns, order_keys
from .errors import EstimationError, SurvmrlError
from .km import KmCurve, check_grid, event_bins, km_fit, risk_counts, sorted_grid, step_eval, survival_levels
from .mrl import MrlCurve, evaluate_mrl


@dataclass(frozen=True, eq=False)
class ComparisonCurve:
    """Comparison values on a grid and maybe a band, one ``lower``/``upper``
    pair per grid point: read-only float arrays, the band empty if none.
    The grid is finite and strictly increasing, as a ``PlotSeries``' is.
    A permutation band also counts, per point, how many of its
    ``n_permutations`` replicates were finite (``defined_counts``, int64;
    a ratio's can drop below B where a permuted denominator hits zero)."""

    grid: np.ndarray
    values: np.ndarray
    lower: np.ndarray = ()
    upper: np.ndarray = ()
    defined_counts: np.ndarray = ()
    n_permutations: int = 0

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, grid=float, values=float)
        freeze_columns(self, lower=float, upper=float)
        freeze_columns(self, defined_counts=np.int64)
        if self.lower.size not in (0, self.grid.size) or self.defined_counts.size not in (0, self.lower.size):
            raise ValueError("a band needs one lower and one upper value per grid point")
        check_grid(self.grid)


def _grid(grid, curve_a: KmCurve, curve_b: KmCurve) -> np.ndarray:
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


# Grid columns per quantile block: each block is copied and sorted as one
# C-contiguous (_QUANTILE_BLOCK x replicates) array, so the band holds no
# more. On a 200 x 5,547 envelope (numpy 2.4, x86-64), 256 columns were
# as fast as any larger block and faster than 64, while 1,024 columns
# raised the band's peak memory from 1.1 to 3.4 MiB and one copy of the
# whole matrix to 9.5 MiB.
_QUANTILE_BLOCK = 256


class _Pool(NamedTuple):
    """Both samples' subjects binned once against the pooled event times
    (see ``km.event_bins``), ``past`` and ``death_at`` in concatenation
    order, A's subjects first. Relabelling subjects moves them between
    groups but never changes their bins."""

    n_a: int
    past: np.ndarray
    death_at: np.ndarray
    at_risk: np.ndarray  # pooled, just before each event time
    deaths: np.ndarray  # pooled, at each event time
    at_grid: np.ndarray  # number of pooled event times at or before each grid point


def _pool(sample_a: SurvivalSample, sample_b: SurvivalSample, grid: np.ndarray) -> _Pool:
    """The pool of both samples' subjects, binned in one sorted pass.

    The concatenated subjects are sorted once into ``SurvivalSample``
    order (by ``order_keys``), binned in that order and scattered back,
    so a replicate's permutation indexes the same subjects as before.
    """
    times = np.concatenate((sample_a.times, sample_b.times))
    died = np.concatenate((sample_a.statuses, sample_b.statuses)) == 1
    order = np.argsort(order_keys(times, ~died), kind="stable")
    event_times, *bins = event_bins(times[order], died[order])
    past, death_at = np.empty((2, times.size), dtype=np.int64)
    past[order], death_at[order] = bins
    at_risk, deaths = np.empty((2, event_times.size), dtype=np.int64)
    risk_counts(past, death_at, at_risk, deaths)
    return _Pool(sample_a.n, past, death_at, at_risk, deaths, np.searchsorted(event_times, grid, side="right"))


def _relabelled_values(pool: _Pool, kind: str, streams: Iterator[np.random.Generator], out: np.ndarray) -> None:
    """Write each permutation replicate's comparison values into its row of ``out``.

    Row b takes the next stream of ``streams`` (``replicate_streams``):
    the first ``n_a`` subjects of a permutation drawn from it form group
    A. Group A's counts come from those subjects' bins alone; group B's
    are the pooled counts minus A's. A ratio is NaN where B's survival is
    zero. Both groups' counts and levels live in float64 buffers made
    once per call. A grid whose ``at_grid`` steps by exactly 1 (every
    default grid: a prefix of the pooled event times) is read as a slice
    of the levels, so a replicate allocates only its permutation and its
    two bincounts; any other grid is gathered through its index array.
    """
    n_times = pool.deaths.size
    bins = np.stack((pool.past, pool.death_at))
    bins_a = np.empty((2, pool.n_a), dtype=np.int64)
    at_risk, deaths = np.empty((2, 2, n_times))
    pooled_at_risk, pooled_deaths = pool.at_risk.astype(float), pool.deaths.astype(float)
    levels = np.empty((2, n_times + 1))
    columns = pool.at_grid
    if (np.diff(columns) == 1).all():
        start = columns[0] if columns.size else 0
        columns = slice(start, start + columns.size)
    defined = np.empty(out.shape[1], dtype=bool)
    for row, rng in zip(out, streams):
        # A permutation's indices are in range; "clip" spares the copy that
        # take's default "raise" mode makes of an ``out`` array.
        np.take(bins, rng.permutation(pool.past.size)[: pool.n_a], axis=1, out=bins_a, mode="clip")
        risk_counts(bins_a[0], bins_a[1], at_risk[0], deaths[0])
        np.subtract(pooled_at_risk, at_risk[0], out=at_risk[1])
        np.subtract(pooled_deaths, deaths[0], out=deaths[1])
        survival_levels(at_risk, deaths, levels)
        s_a, s_b = levels[:, columns]
        if kind == "surv_diff":
            np.subtract(s_a, s_b, out=row)
        else:
            row.fill(np.nan)
            np.divide(s_a, s_b, out=row, where=np.not_equal(s_b, 0.0, out=defined))


# numpy's SeedSequence hash (O'Neill's seed_seq_fe), which numpy keeps
# stream-stable. Every constant is an np.uint32 and every operand a uint32
# array, so legacy and NEP 50 casting give the same wrapping bits and no
# scalar overflow warning.
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1
# Replicates whose stream states are computed in one array pass; each
# block's first state is checked against numpy's own generator.
_STREAM_BLOCK = 1024
# Indices per bootstrap draw block: max(1, _DRAW_BLOCK // n) replicates
# are drawn as one (rows, n) array, so a block's raw words, indices and
# gathered scores stay near 1 MiB at any n (32 rows at n = 2,000).
_DRAW_BLOCK = 1 << 16
_SHIFT_32 = np.uint64(32)


def _pcg_states(seed: int, replicates: range) -> Iterator[dict]:
    """The PCG64 state of ``default_rng(SeedSequence(seed,
    spawn_key=(b,)))`` for each b in ``replicates``, in their order.

    The seed's entropy words, zero-padded to the pool size, are hashed
    into the pool once; each replicate's spawn-key words (two from
    b = 2**32 on) are mixed in as one array per word. The hash constant
    ``h`` advances with every ``hashmix`` whatever its input, so it is a
    single value shared by all replicates.
    """
    h = np.array([_INIT_A])

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A
        value = value * h
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    seed = int(seed)
    # The seed's little-endian 32-bit words (0 is one word), each a 1-element array.
    words = [(seed >> shift) & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array(words + [0] * (_POOL_SIZE - len(words)), dtype=np.uint32)[:, None]
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    keys = np.fromiter(replicates, np.uint64, len(replicates))
    low = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    for word in (*entropy[_POOL_SIZE:], low):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    if high.any():
        two_words = high != 0
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(two_words, mix(pool[dst], hashmix(high)), pool[dst])

    # generate_state(4, np.uint64): eight words, paired low word first.
    h = np.array([_INIT_B])
    generated = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B
        value = value * h
        generated.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    w0, w1, w2, w3 = ((generated[i] | (generated[i + 1] << np.uint64(32))).tolist() for i in range(0, 8, 2))
    # PCG64 seeding: s = w0:w1, inc = (w2:w3 << 1) | 1, state = (inc + s) * mult + inc.
    for s_high, s_low, i_high, i_low in zip(w0, w1, w2, w3):
        inc = ((i_high << 65) | (i_low << 1) | 1) & _MASK_128
        state = ((((s_high << 64) | s_low) + inc) * _PCG_MULT + inc) & _MASK_128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def replicate_streams(seed: int, replicates: range) -> Iterator[np.random.Generator]:
    """The random stream of each resampling replicate in ``replicates``.

    Replicate b's stream is ``default_rng(SeedSequence(seed,
    spawn_key=(b,)))``: spawned from the master seed with the replicate
    index as spawn key, so it does not depend on which replicates ran
    before it. Permutation envelopes and bootstrap intervals both draw
    from it. The states are computed ``_STREAM_BLOCK`` replicates at a
    time and set into one PCG64, so each yielded generator stays valid
    only until the next one is drawn. Each block's first state is
    checked against numpy's own generator, which also validates
    ``seed`` as numpy does; a mismatch raises ``SurvmrlError``. ``seed``
    is a non-negative integer and the indices are below 2**64.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for start in range(0, len(replicates), _STREAM_BLOCK):
        block = replicates[start : start + _STREAM_BLOCK]
        expected = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block[0],)))
        for i, state in enumerate(_pcg_states(seed, block)):
            if i == 0 and state != expected.bit_generator.state:
                raise SurvmrlError(
                    f"replicate stream {block[0]} of seed {seed} differs from numpy {np.__version__}'s SeedSequence"
                )
            bit_generator.state = state
            yield generator


def _numpy_draw(seed: int, b: int, n: int) -> np.ndarray:
    """Replicate b's bootstrap indices as numpy's own ``Generator.integers`` draws them."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))).integers(0, n, size=n)


def bootstrap_indices(seed: int, replicates: range, n: int) -> Iterator[np.ndarray]:
    """Each replicate's n bootstrap indices, a block of replicates at a time.

    Yields int64 arrays of shape (rows, n), one row per replicate in
    ``replicates`` order. Row b is bitwise ``default_rng(SeedSequence(seed,
    spawn_key=(b,))).integers(0, n, size=n)``. Each row takes (n + 1) // 2
    raw words from replicate b's stream (``replicate_streams``) and splits
    each into two 32-bit draws, low word first, as PCG64's ``next_uint32``
    does; numpy's bounded rule (Lemire 2019) maps draw u to ``(u * n) >>
    32``, and rejects it where ``(u * n) mod 2**32 < (2**32 - n) % n``. A
    row holding a rejected draw is drawn again by numpy itself, so no part
    of numpy's rejection loop is ported. The first row of each call is
    checked against numpy's draw; a mismatch raises ``SurvmrlError``.
    ``n`` is between 1 and 2**32.
    """
    if not 1 <= n <= 2**32:
        raise ValueError(f"bootstrap draws need 1 <= n <= 2**32, got {n}")
    rows = max(1, _DRAW_BLOCK // n)
    n_words = (n + 1) // 2
    threshold = (2**32 - n) % n
    # Little-endian words, so their 32-bit view puts each low half first.
    words = np.empty((rows, n_words), "<u8")
    streams = replicate_streams(seed, replicates)
    for start in range(0, len(replicates), rows):
        block = replicates[start : start + rows]
        for row, rng in zip(words[: len(block)], streams):
            row[:] = rng.bit_generator.random_raw(n_words)
        draws = words[: len(block)].view("<u4")[:, :n]
        redraw = ()
        if threshold:
            # A draw's product mod 2**32 is its product in wrapping uint32 arithmetic.
            redraw = np.flatnonzero((draws * np.uint32(n) < threshold).any(axis=1))
        idx = np.multiply(draws, np.uint64(n), dtype=np.uint64)
        idx >>= _SHIFT_32
        idx = idx.view(np.int64)
        for i in redraw:
            idx[i] = _numpy_draw(seed, block[i], n)
        if start == 0 and not np.array_equal(idx[0], _numpy_draw(seed, block[0], n)):
            raise SurvmrlError(
                f"bootstrap draw {block[0]} of seed {seed} differs from numpy {np.__version__}'s Generator.integers"
            )
        yield idx


def _band(
    replicates: np.ndarray, quantiles: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column: the two quantiles of its defined replicates, and their count.

    The quantiles follow numpy's default "linear" method (Hyndman & Fan
    1996, type 7) step for step, so they are bitwise what numpy's
    quantile gives for each column's defined values. Each block of grid
    columns is copied as rows into one buffer reused across blocks, sorted
    once and its defined values counted there; undefined values are NaN,
    which sorts last, so the first ``count`` entries of a row are exactly
    its column's defined values. A column without a defined value stays
    NaN. Sorting treats -0.0 and 0.0 as equal, so where both occur the sign
    of a zero bound is not defined (as in numpy); neither envelope
    replicates nor bootstrap means hold -0.0.
    """
    q = np.asarray(quantiles, dtype=float)[:, None]
    band = np.full((2, replicates.shape[1]), np.nan)
    counts = np.empty(replicates.shape[1], dtype=np.int64)
    buffer = np.empty((min(_QUANTILE_BLOCK, replicates.shape[1]), replicates.shape[0]), replicates.dtype)
    for start in range(0, replicates.shape[1], _QUANTILE_BLOCK):
        stop = min(start + _QUANTILE_BLOCK, replicates.shape[1])
        block = buffer[: stop - start]
        np.copyto(block, replicates[:, start:stop].T)
        block.sort(axis=1)
        counts[start:stop] = np.count_nonzero(np.isfinite(block), axis=1)
        defined = np.flatnonzero(counts[start:stop])
        last = counts[start + defined] - 1
        virtual = last * q
        prev = np.floor(virtual)
        # As in numpy: at or past the last defined value, both
        # neighbours are that value and gamma = virtual + 1.
        at_end = virtual >= last
        prev[at_end] = -1.0
        gamma = virtual - prev
        below = np.where(at_end, last, prev).astype(np.intp)
        a = block[defined, below]
        b = block[defined, np.minimum(below + 1, last)]
        diff = b - a
        values = a + diff * gamma
        np.subtract(b, diff * (1.0 - gamma), out=values, where=gamma >= 0.5)
        band[:, start + defined] = values
    return band[0], band[1], counts


def permutation_envelope(
    sample_a: SurvivalSample,
    sample_b: SurvivalSample,
    kind: str,
    n_permutations: int,
    seed: int,
    curve: ComparisonCurve | None = None,
    band_quantiles: tuple[float, float] = (0.025, 0.975),
) -> ComparisonCurve:
    """``curve`` with its pointwise permutation reference band.

    The band is computed on ``curve.grid`` as given. Without a curve,
    the samples' own comparison of ``kind`` is banded: the survival
    difference or ratio of their KM fits. Ratio replicates whose
    denominator hits zero at a grid point are excluded from that point's
    quantiles; the returned curve's ``defined_counts`` reports the
    per-point count of defined replicates.
    """
    if kind not in ("surv_diff", "surv_ratio"):
        raise EstimationError(f"no envelope defined for kind {kind!r}")
    if n_permutations < 1:
        raise EstimationError("need at least one permutation")
    if sample_a.n + sample_b.n < 4:
        raise EstimationError("pooled sample too small for permutation")
    if not (0.0 <= band_quantiles[0] < band_quantiles[1] <= 1.0):
        raise EstimationError(f"invalid band quantiles {band_quantiles!r}")

    if curve is None:
        base = survival_difference if kind == "surv_diff" else survival_ratio
        curve = base(km_fit(sample_a), km_fit(sample_b))

    pool = _pool(sample_a, sample_b, curve.grid)
    replicates = np.empty((n_permutations, curve.grid.size))
    _relabelled_values(pool, kind, replicate_streams(seed, range(n_permutations)), replicates)
    lower, upper, counts = _band(replicates, band_quantiles)
    return replace(curve, lower=lower, upper=upper, defined_counts=counts, n_permutations=n_permutations)
