"""Paired pre/post statistics: McNemar, Wilcoxon signed-rank, bootstrap CIs.

The McNemar test acts on the discordant-pair counts of paired binary
outcomes; the default is the continuity-corrected chi-square
(|b - c| - 1)^2 / (b + c), with an exact two-sided binomial variant.
The Wilcoxon signed-rank test drops zero differences, average-ranks ties,
and is exact (full sign-assignment distribution) up to 25 nonzero
differences, switching to a tie-corrected normal approximation above.
Proportion intervals are percentile bootstrap over participants, seeded.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import read_csv
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
class ScoreVector:
    """Per-participant scores keyed by participant id."""

    ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if not self.ids or len(self.ids) != len(self.scores):
            raise ValueError("need one score per participant id, at least one pair")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("participant ids must be unique")
        if any(not math.isfinite(s) for s in self.scores):
            raise ValueError("scores must be finite")

    @property
    def n(self) -> int:
        return len(self.ids)


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
        tail = sum(math.comb(n, i) for i in range(k + 1))
        p = min(1.0, 2 * tail / 2**n)
        return McnemarResult(statistic=float(k), p_value=p, method=method)
    raise ValueError(f"unknown method {method!r}")


def _average_ranks(magnitudes: np.ndarray) -> np.ndarray:
    order = np.argsort(magnitudes, kind="stable")
    ranks = np.empty(len(magnitudes))
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and magnitudes[order[j]] == magnitudes[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # average of ranks i+1 .. j
        i = j
    return ranks


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


def wilcoxon_signed_rank(pre: ScoreVector, post: ScoreVector) -> WilcoxonResult:
    """Paired signed-rank test of post - pre, matched on participant id."""
    if set(pre.ids) != set(post.ids):
        raise EstimationError("pre and post scores cover different participants")
    post_by_id = dict(zip(post.ids, post.scores))
    differences = np.array([post_by_id[i] - s for i, s in zip(pre.ids, pre.scores)])
    return wilcoxon_from_differences(differences)


def wilcoxon_from_differences(differences: Sequence[float]) -> WilcoxonResult:
    """Signed-rank test given the paired differences directly."""
    d = np.asarray(differences, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        raise EstimationError("no nonzero differences")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0.0]))
    if n <= EXACT_WILCOXON_LIMIT:
        doubled = [int(round(2 * r)) for r in ranks]
        p = _exact_two_sided_p(doubled, int(round(2 * w_plus)))
        return WilcoxonResult(statistic=w_plus, p_value=p, n_nonzero=n, method="exact")
    mean = n * (n + 1) / 4.0
    tie_term = 0.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    for t in tie_counts:
        tie_term += t**3 - t
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = (w_plus - mean) / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return WilcoxonResult(statistic=w_plus, p_value=p, n_nonzero=n, method="normal")


def bootstrap_proportion_ci(
    scores: ScoreVector,
    n_replicates: int,
    seed: int,
    quantiles: tuple[float, float] = (0.025, 0.975),
) -> BootstrapCi:
    """Percentile bootstrap interval for the mean per-participant score.

    Participants are the resampling unit; replicate b draws its indices
    from a stream derived from (seed, b), so results are reproducible and
    order-independent.
    """
    if n_replicates < 1:
        raise EstimationError("need at least one bootstrap replicate")
    if not (0.0 <= quantiles[0] < quantiles[1] <= 1.0):
        raise EstimationError(f"invalid bootstrap quantiles {quantiles!r}")
    values = np.array(scores.scores)
    n = len(values)
    means = np.empty(n_replicates)
    for b in range(n_replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        means[b] = values[rng.integers(0, n, size=n)].mean()
    return BootstrapCi(
        estimate=float(values.mean()),
        lower=float(np.quantile(means, quantiles[0])),
        upper=float(np.quantile(means, quantiles[1])),
        n_replicates=n_replicates,
        seed=seed,
        quantiles=(float(quantiles[0]), float(quantiles[1])),
    )


@dataclass(frozen=True)
class PairedSurvey:
    """Per-participant accuracy scores and pooled transition counts."""

    pre: ScoreVector
    post: ScoreVector
    transitions: PairedBinary
    n_items: int


def load_paired_survey(source: str | bytes | io.TextIOBase) -> PairedSurvey:
    """Parse a `participant,item,pre,post` CSV of paired binary outcomes."""
    header, rows = read_csv(source)
    expected = ["participant", "item", "pre", "post"]
    if sorted(header) != sorted(expected):
        raise SchemaError(f"expected columns {','.join(expected)}, got {','.join(header)}")
    idx = {name: header.index(name) for name in expected}

    pre_by_participant: dict[str, list[int]] = {}
    post_by_participant: dict[str, list[int]] = {}
    b = c = concordant = 0
    for row_number, row in rows:
        participant = row[idx["participant"]].strip()
        if not participant:
            raise ParseError(row_number, "participant id is empty")
        outcomes = []
        for col in ("pre", "post"):
            text_value = row[idx[col]].strip()
            if text_value not in ("0", "1"):
                raise ParseError(row_number, f"{col} must be 0 or 1, got {text_value!r}")
            outcomes.append(int(text_value))
        pre_value, post_value = outcomes
        pre_by_participant.setdefault(participant, []).append(pre_value)
        post_by_participant.setdefault(participant, []).append(post_value)
        if pre_value == 1 and post_value == 0:
            b += 1
        elif pre_value == 0 and post_value == 1:
            c += 1
        else:
            concordant += 1
    if not pre_by_participant:
        raise SchemaError("empty dataset")

    ids = tuple(sorted(pre_by_participant))
    pre_scores = tuple(float(np.mean(pre_by_participant[i])) for i in ids)
    post_scores = tuple(float(np.mean(post_by_participant[i])) for i in ids)
    n_items = sum(len(v) for v in pre_by_participant.values())
    return PairedSurvey(
        pre=ScoreVector(ids=ids, scores=pre_scores),
        post=ScoreVector(ids=ids, scores=post_scores),
        transitions=PairedBinary(b=b, c=c, n_concordant=concordant),
        n_items=n_items,
    )
