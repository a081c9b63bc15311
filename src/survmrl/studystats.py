"""Paired pre/post statistics: McNemar, Wilcoxon signed-rank, bootstrap CIs.

The McNemar test acts on the discordant-pair counts of paired binary
outcomes; the default is the continuity-corrected chi-square
(|b - c| - 1)^2 / (b + c), with an exact two-sided binomial variant whose
tail is summed by an exact integer recurrence in O(min(b, c)) steps.
The Wilcoxon signed-rank test drops zero differences, average-ranks ties,
and is exact (full sign-assignment distribution) up to 25 nonzero
differences, switching to a tie-corrected normal approximation above.
Proportion intervals are percentile bootstrap over participants, seeded
per replicate; score vectors over the same participants share each
replicate's draw. Score vectors are plain float arrays, one score per
participant: two vectors pair by position, as in ``scipy.stats.wilcoxon``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compare import _band, replicate_rng
from .dataset import fields_equal, freeze_columns, label_codes, read_csv
from .errors import EstimationError, ParseError, SchemaError

EXACT_WILCOXON_LIMIT = 25


@dataclass(frozen=True)
class PairedBinary:
    """Discordant and concordant pair counts from paired binary outcomes."""

    b: int  # correct -> incorrect
    c: int  # incorrect -> correct
    n_concordant: int = 0

    def __post_init__(self):
        if self.b < 0 or self.c < 0 or self.n_concordant < 0:
            raise ValueError("pair counts must be >= 0")


@dataclass(frozen=True)
class McnemarResult:
    statistic: float
    p_value: float
    method: str


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
    seed: int
    quantiles: tuple[float, float]


def mcnemar_test(pairs: PairedBinary, method: str = "continuity_corrected") -> McnemarResult:
    """Two-sided McNemar test on discordant counts (b, c)."""
    n = pairs.b + pairs.c
    if n == 0:
        raise EstimationError("no discordant pairs")
    if method == "continuity_corrected":
        statistic = (abs(pairs.b - pairs.c) - 1) ** 2 / n
        p = math.erfc(math.sqrt(statistic / 2.0))
        return McnemarResult(statistic=statistic, p_value=p, method=method)
    if method == "exact":
        k = min(pairs.b, pairs.c)
        # C(n, i + 1) = C(n, i) * (n - i) // (i + 1) is exact: the product is a
        # multiple of i + 1, so the tail is the same integer as the comb sum.
        term = tail = 1
        for i in range(k):
            term = term * (n - i) // (i + 1)
            tail += term
        p = min(1.0, 2 * tail / 2**n)
        return McnemarResult(statistic=float(k), p_value=p, method=method)
    raise ValueError(f"unknown method {method!r}")


def _average_ranks(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average rank of each magnitude, and the size of each group of ties.

    Ties at sorted positions first .. last - 1 share rank (first + last + 1) / 2.
    """
    _, group, tie_counts = np.unique(magnitudes, return_inverse=True, return_counts=True)
    last = np.cumsum(tie_counts)
    return ((last - tie_counts + last + 1) / 2.0)[group], tie_counts


def _exact_two_sided_p(doubled_ranks: list[int], doubled_w: int) -> float:
    """Two-sided p over the full sign-assignment distribution of W+.

    Ranks are doubled so tied (half-integer) average ranks stay integral;
    counts are exact integers, so equal inputs give bitwise-equal p.
    """
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    n_assignments = 1 << len(doubled_ranks)
    at_most = sum(counts[: doubled_w + 1])
    at_least = sum(counts[doubled_w:])
    return min(1.0, 2 * min(at_most, at_least) / n_assignments)


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
    ranks, tie_counts = _average_ranks(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0.0]))
    if n <= EXACT_WILCOXON_LIMIT:
        doubled = [int(round(2 * r)) for r in ranks]
        p = _exact_two_sided_p(doubled, int(round(2 * w_plus)))
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
    position k. Participants are the resampling unit; replicate b draws
    its indices from ``compare.replicate_rng(seed, b)``, so results are
    reproducible and order-independent. Each replicate draws once and
    every vector takes its mean over that draw, so each interval is
    bitwise the one a single-vector call gives. The interval ends come
    from the envelope's ``compare._band``, so they are numpy's default
    quantiles of the means.
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
    for b in range(n_replicates):
        idx = replicate_rng(seed, b).integers(0, n, size=n)
        for k, values in enumerate(columns):
            # One 1-D gather and sum per vector: a (k, n) gather's row sums
            # differ in bits. ndarray.mean is this sum / n, divided below.
            sums[k, b] = np.add.reduce(values.take(idx))
    lower, upper, _ = _band((sums / n).T, quantiles)
    return tuple(
        BootstrapCi(
            estimate=float(values.mean()),
            lower=float(lo),
            upper=float(hi),
            n_replicates=n_replicates,
            seed=seed,
            quantiles=(float(quantiles[0]), float(quantiles[1])),
        )
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
    participant_codes: dict[str, int],
    item_codes: dict[str, int],
    first_rows: dict[int, int],
    row_number: int,
    participant_text: str,
    item_text: str,
    pre_text: str,
    post_text: str,
) -> tuple[int, int, int]:
    """The row rules: a survey row's participant code, pre and post
    outcomes, or the ParseError of its first fault.

    The codes number participant ids and item labels in order of first
    row. ``first_rows`` maps the key of each (participant, item) pair
    given so far, its participant code shifted 32 bits left or-ed with its
    item code, to its row number; the row's codes and pair are added.
    """
    participant = participant_text.strip()
    if not participant:
        raise ParseError(row_number, "participant id is empty")
    item = item_text.strip()
    if not item:
        raise ParseError(row_number, "item label is empty")
    code = participant_codes.setdefault(participant, len(participant_codes))
    item_code = item_codes.setdefault(item, len(item_codes))
    first = first_rows.setdefault(code << 32 | item_code, row_number)
    if first != row_number:
        key = (participant, item)
        raise ParseError(row_number, f"duplicate (participant, item) {key!r}, first given on row {first}")
    outcomes = []
    for col, text_value in (("pre", pre_text.strip()), ("post", post_text.strip())):
        if text_value not in ("0", "1"):
            raise ParseError(row_number, f"{col} must be 0 or 1, got {text_value!r}")
        outcomes.append(int(text_value))
    return code, *outcomes


_OUTCOMES = {"0": 0, "1": 1}


def load_paired_survey(source: str | bytes | os.PathLike) -> PairedSurvey:
    """Parse a `participant,item,pre,post` CSV path or bytes of paired binary outcomes.

    Each (participant, item) pair may appear once; a repeat is a row error.
    """
    header, chunks = read_csv(source)
    expected = ["participant", "item", "pre", "post"]
    if sorted(header) != sorted(expected):
        raise SchemaError(f"expected columns {','.join(expected)}, got {', '.join(map(repr, header))}")
    positions = [header.index(name) for name in expected]

    code_of: dict[str, int] = {}  # participant id -> code, in order of first row
    item_codes: dict[str, int] = {}  # item label -> code, in order of first row
    code_of_participant_text: dict[str, int] = {}
    code_of_item_text: dict[str, int] = {}
    first_rows: dict[int, int] = {}  # pair key (see _survey_row) -> row number

    def columns(chunk: tuple[Sequence[int], list[list[str]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A chunk's participant codes and pre and post outcomes (int8); adds its codes and pairs."""
        row_numbers, texts = chunk
        participant_texts, item_texts, pre_texts, post_texts = (texts[k] for k in positions)
        codes = label_codes(participant_texts, code_of_participant_text, code_of)
        items = None if codes is None else label_codes(item_texts, code_of_item_text, item_codes)
        if items is not None and _OUTCOMES.keys() >= {*pre_texts, *post_texts}:
            keys = (codes.astype(np.int64) << 32 | items).tolist()
            if len(set(keys)) == len(keys) and first_rows.keys().isdisjoint(keys):
                first_rows.update(zip(keys, row_numbers))
                pre = np.fromiter(map(_OUTCOMES.__getitem__, pre_texts), np.int8, len(keys))
                post = np.fromiter(map(_OUTCOMES.__getitem__, post_texts), np.int8, len(keys))
                return codes, pre, post
        # A check failed: the row rules raise the chunk's first error, or on
        # a false alarm give the same values.
        row_rules = functools.partial(_survey_row, code_of, item_codes, first_rows)
        codes, pre, post = zip(*map(row_rules, row_numbers, participant_texts, item_texts, pre_texts, post_texts))
        return np.array(codes, dtype=np.intp), np.array(pre, dtype=np.int8), np.array(post, dtype=np.int8)

    # map() drops each chunk before the next is read.
    parts = list(map(columns, chunks))
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
        transitions=PairedBinary(
            b=int(np.count_nonzero(pre > post)),
            c=int(np.count_nonzero(pre < post)),
            n_concordant=int(np.count_nonzero(pre == post)),
        ),
        n_items=len(item_codes),
        n_pairs=who.size,
    )
