"""Paired pre/post statistics: McNemar, Wilcoxon signed-rank, bootstrap CIs.

The McNemar test acts on the discordant-pair counts of paired binary
outcomes; the default is the continuity-corrected chi-square
(|b - c| - 1)^2 / (b + c), corrected only when b != c (0 when b = c, as
R's ``mcnemar.test``), with an exact two-sided binomial variant whose
tail is summed exactly by binary splitting (``_binomial_tail``).
The Wilcoxon signed-rank test drops zero differences, average-ranks ties,
and is exact (full sign-assignment distribution) up to 62 nonzero differences,
since each count (at most 2**n) must fit int64, and tie-corrected normal above.
Proportion intervals are percentile bootstrap over participants, seeded
per replicate; score vectors over the same participants share each
replicate's draw. The draws come a block of replicates at a time from
``compare.bootstrap_indices``, bitwise numpy's ``Generator.integers``
on each replicate's stream, and each vector is gathered and summed once
per block. Score vectors are plain float arrays, one score per
participant: two vectors pair by position, as in ``scipy.stats.wilcoxon``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compare import _band, bootstrap_indices
from .dataset import LabelTable, fields_equal, freeze_columns, label_codes, read_csv, zero_one_column
from .errors import EstimationError, ParseError, SchemaError

# Exact up to n = 62: every count of the exact null is at most 2**n and must fit int64.
EXACT_WILCOXON_LIMIT = 62
# Terms per leaf of ``_binomial_tail``'s splitting, summed by a plain loop.
# In process (x86-64, Python 3.11) at b, c of 1,590 and 6,350 and ten times
# that, leaves of 32 and 64 terms were about equally fast, 8 and 16 no faster.
_TAIL_LEAF = 32


@dataclass(frozen=True)
class PairedBinary:
    """Discordant pair counts from paired binary outcomes."""

    b: int  # correct -> incorrect
    c: int  # incorrect -> correct

    def __post_init__(self):
        if self.b < 0 or self.c < 0:
            raise ValueError("pair counts must be >= 0")


@dataclass(frozen=True)
class McnemarResult:
    statistic: float
    p_value: float


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # rank sum of positive differences
    p_value: float
    n_nonzero: int
    method: str


@dataclass(frozen=True)
class BootstrapCi:
    estimate: float
    lower: float
    upper: float
    n_replicates: int


def mcnemar_test(pairs: PairedBinary, method: str = "continuity_corrected") -> McnemarResult:
    """Two-sided McNemar test on discordant counts (b, c)."""
    n = pairs.b + pairs.c
    if n == 0:
        raise EstimationError("no discordant pairs")
    if method == "continuity_corrected":
        # corrected only when b != c, as R's mcnemar.test: at b == c, (0 - 1)**2 / n would read 1/n
        statistic = max(abs(pairs.b - pairs.c) - 1, 0) ** 2 / n
        return McnemarResult(statistic=statistic, p_value=math.erfc(math.sqrt(statistic / 2.0)))
    if method == "exact":
        k = min(pairs.b, pairs.c)
        tail, denominator = _binomial_tail(n, k)
        # tail / denominator is the comb sum exactly, so this one correctly
        # rounded int/int division gives the bits of 2 * sum / 2**n.
        p = min(1.0, 2 * tail / (denominator << n))
        return McnemarResult(statistic=float(k), p_value=p)
    raise ValueError(f"unknown method {method!r}")


def _binomial_tail(n: int, k: int) -> tuple[int, int]:
    """Integers (T, Q) with T / Q = C(n, 0) + C(n, 1) + ... + C(n, k).

    Term i is term i - 1 times p(i) / q(i), with p(i) = n + 1 - i and
    q(i) = i (both 1 at i = 0). Over a range [a, b) of terms, P and Q are
    the products of p and q, and T / Q sums the range's terms each divided
    by term a - 1 (by 1 for a = 0); two halves join as P = P1 P2, Q = Q1 Q2 and T = T1 Q2 +
    P1 T2 (binary splitting). The products grow evenly, so the big
    multiplications stay subquadratic where a term-by-term recurrence makes
    k steps on n-bit integers.
    """

    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a <= _TAIL_LEAF:
            p = q = 1
            t = 0
            for i in range(a, b):
                if i:
                    p *= n + 1 - i
                    q *= i
                    t *= i
                t += p
            return p, q, t
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(0, k + 1)
    return t, q


def _average_ranks(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twice the average rank of each magnitude (int64), and the size of each group of ties.

    Ties at sorted positions first .. last - 1 share doubled rank first + last + 1 = 2 * last - ties + 1.
    """
    _, group, tie_counts = np.unique(magnitudes, return_inverse=True, return_counts=True)
    last = np.cumsum(tie_counts)
    return (2 * last - tie_counts + 1)[group], tie_counts


def _exact_two_sided_p(doubled_ranks: np.ndarray, doubled_w: int) -> float:
    """Two-sided p over the full sign-assignment distribution of W+.

    Ranks are doubled so tied (half-integer) average ranks stay integral; one shifted add
    per rank counts the assignments of each doubled W+ exactly, so equal inputs give bitwise-equal p.
    """
    counts = np.zeros(int(doubled_ranks.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks.tolist():
        counts[r:] += counts[: counts.size - r].copy()
    at_most = int(counts[: doubled_w + 1].sum())
    at_least = int(counts[doubled_w:].sum())
    return min(1.0, 2 * min(at_most, at_least) / (1 << len(doubled_ranks)))


def wilcoxon_signed_rank(pre: np.ndarray, post: np.ndarray) -> WilcoxonResult:
    """Paired signed-rank test of post - pre, paired by position."""
    pre, post = np.asarray(pre, dtype=float), np.asarray(post, dtype=float)
    if pre.shape != post.shape:
        raise EstimationError(f"pre and post scores differ in shape: {pre.shape} and {post.shape}")
    return wilcoxon_from_differences(post - pre)


def wilcoxon_from_differences(differences: Sequence[float]) -> WilcoxonResult:
    """Signed-rank test given the paired differences directly."""
    d = np.asarray(differences, dtype=float)
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        raise EstimationError(f"difference {bad[0]} is not finite: {float(d[bad[0]])!r}")
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise EstimationError("no nonzero differences")
    doubled_ranks, tie_counts = _average_ranks(np.abs(d))
    doubled_w = int(doubled_ranks[d > 0.0].sum())
    w_plus = doubled_w / 2
    if n <= EXACT_WILCOXON_LIMIT:
        p = _exact_two_sided_p(doubled_ranks, doubled_w)
        return WilcoxonResult(statistic=w_plus, p_value=p, n_nonzero=n, method="exact")
    mean = n * (n + 1) / 4.0
    tie_term = float(np.sum(tie_counts**3 - tie_counts))
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = (w_plus - mean) / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return WilcoxonResult(statistic=w_plus, p_value=p, n_nonzero=n, method="normal")


def bootstrap_proportion_ci(
    scores: np.ndarray,
    n_replicates: int,
    seed: int,
    quantiles: tuple[float, float] = (0.025, 0.975),
) -> BootstrapCi:
    """Percentile bootstrap interval for the mean per-participant score."""
    return bootstrap_proportion_cis((scores,), n_replicates, seed, quantiles)[0]


def bootstrap_proportion_cis(
    vectors: Sequence[np.ndarray],
    n_replicates: int,
    seed: int,
    quantiles: tuple[float, float] = (0.025, 0.975),
) -> tuple[BootstrapCi, ...]:
    """Percentile bootstrap intervals for the means of score vectors over one set of participants.

    Each vector is a 1-D float array holding participant k's score at
    position k. Participants are the resampling unit; replicate b's
    indices are ``default_rng(SeedSequence(seed, spawn_key=(b,))).integers(0,
    n, size=n)``, drawn by ``compare.bootstrap_indices``, so results are
    reproducible and order-independent.
    Each replicate draws once and every vector takes its mean over that
    draw, so each interval is bitwise the one a single-vector call gives.
    The interval ends come from the envelope's ``compare._band``, so they
    are numpy's default quantiles of the means.
    """
    columns = [np.asarray(v, dtype=float) for v in vectors]
    if not columns:
        raise EstimationError("need at least one score vector")
    n = columns[0].size
    if n == 0 or any(c.shape != (n,) or not np.isfinite(c).all() for c in columns):
        raise EstimationError(
            "score vectors must be 1-D, non-empty, finite and of one length (a different length covers "
            "different participants)"
        )
    if n_replicates < 1:
        raise EstimationError("need at least one bootstrap replicate")
    if not (0.0 <= quantiles[0] < quantiles[1] <= 1.0):
        raise EstimationError(f"invalid bootstrap quantiles {quantiles!r}")
    sums = np.empty((len(columns), n_replicates))
    start = 0
    for rows in bootstrap_indices(seed, range(n_replicates), n):
        stop = start + len(rows)
        for k, values in enumerate(columns):
            # Each row of a C-contiguous (rows, n) gather sums pairwise as
            # its own 1-D array does; a (k, n) gather of the vectors at one
            # row's indices would not. ndarray.mean is this sum / n.
            np.add.reduce(values.take(rows), axis=1, out=sums[k, start:stop])
        start = stop
    lower, upper, _ = _band((sums / n).T, quantiles)
    return tuple(
        BootstrapCi(estimate=float(values.mean()), lower=float(lo), upper=float(hi), n_replicates=n_replicates)
        for values, lo, hi in zip(columns, lower, upper)
    )


@dataclass(frozen=True, eq=False)
class PairedSurvey:
    """Per-participant accuracy scores and pooled transition counts.

    ``ids`` is the sorted tuple of participant ids (str); ``pre`` and
    ``post`` are read-only float64 arrays holding participant k's mean
    outcome at position k.
    """

    ids: tuple[str, ...]
    pre: np.ndarray
    post: np.ndarray
    transitions: PairedBinary
    n_items: int  # distinct item labels
    n_pairs: int  # answered (participant, item) pairs

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, pre=float, post=float)


def _survey_row(
    row_number: int,
    first: int,
    code: int,
    item_code: int,
    participant_text: str,
    item_text: str,
    pre_text: str,
    post_text: str,
) -> tuple[int, int]:
    """The row rules: a survey row's pre and post outcomes, or the ParseError of its first fault.

    ``code`` and ``item_code`` come from ``label_codes``, below 0 for an empty
    label; ``first`` is the row that first gave the row's pair, the row itself
    unless it repeats one.
    """
    if code < 0:
        raise ParseError(row_number, "participant id is empty")
    if item_code < 0:
        raise ParseError(row_number, "item label is empty")
    if first != row_number:
        key = (participant_text.strip(), item_text.strip())
        raise ParseError(row_number, f"duplicate (participant, item) {key!r}, first given on row {first}")
    pre, post = pre_text.strip(), post_text.strip()
    for col, text_value in (("pre", pre), ("post", post)):
        if text_value not in ("0", "1"):
            raise ParseError(row_number, f"{col} must be 0 or 1, got {text_value!r}")
    return int(pre), int(post)


def load_paired_survey(source: str | bytes | os.PathLike) -> PairedSurvey:
    """Parse a `participant,item,pre,post` CSV path or bytes of paired binary outcomes.

    Each (participant, item) pair may appear once; a repeat is a row error.
    Each chunk's labels are coded with one table lookup per text
    (``label_codes``, one ``LabelTable`` per column) and its pairs looked
    up (``first_rows.setdefault``) once, before the whole-column checks or
    the row rules; a pair with an empty label has a negative key, so never a
    valid pair's, and its row fails on the empty label first.
    """
    header, chunks = read_csv(source)
    expected = ["participant", "item", "pre", "post"]
    if sorted(header) != sorted(expected):
        raise SchemaError(f"expected columns {','.join(expected)}, got {', '.join(map(repr, header))}")
    positions = [header.index(name) for name in expected]

    # Each table's .labels: participant id (item label) -> code, in order of first row.
    participant_table, item_table = LabelTable(), LabelTable()
    first_rows: dict[int, int] = {}  # pair key, participant code << 32 | item code -> its first row

    def columns(chunk: tuple[Sequence[int], list[list[str]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A chunk's participant codes and pre and post outcomes (int8); adds its codes and pairs."""
        row_numbers, texts = chunk
        participant_texts, item_texts, pre_texts, post_texts = (texts[k] for k in positions)
        codes = label_codes(participant_texts, participant_table)
        items = label_codes(item_texts, item_table)
        keys = (codes.astype(np.int64) << 32 | items).tolist()
        firsts = list(map(first_rows.setdefault, keys, row_numbers))
        pre = zero_one_column(pre_texts)
        post = None if pre is None else zero_one_column(post_texts)
        if post is not None and not ((codes < 0).any() or (items < 0).any()) and firsts == list(row_numbers):
            return codes, pre, post
        # A check failed: the row rules raise the chunk's first error, or on
        # a false alarm give the same values.
        labels = codes.tolist(), items.tolist(), participant_texts, item_texts
        pre, post = zip(*map(_survey_row, row_numbers, firsts, *labels, pre_texts, post_texts))
        return codes, np.array(pre, dtype=np.int8), np.array(post, dtype=np.int8)

    # map() drops each chunk before the next is read.
    parts = list(map(columns, chunks))
    code_of = participant_table.labels
    if not code_of:
        raise SchemaError("empty dataset")

    # Item sums are exact integers, so each mean is one correctly rounded quotient.
    ids = tuple(sorted(code_of))
    index = {p: k for k, p in enumerate(ids)}
    position = np.fromiter(map(index.__getitem__, code_of), np.intp, len(ids))  # code -> index in ids
    codes, pre, post = (np.concatenate(column) for column in zip(*parts))
    who = position[codes]
    pre, post = pre.astype(float), post.astype(float)
    n_answered = np.bincount(who)
    return PairedSurvey(
        ids=ids,
        pre=np.bincount(who, weights=pre) / n_answered,
        post=np.bincount(who, weights=post) / n_answered,
        transitions=PairedBinary(b=int(np.count_nonzero(pre > post)), c=int(np.count_nonzero(pre < post))),
        n_items=len(item_table.labels),
        n_pairs=who.size,
    )
