"""The survey loader, signed-rank test, exact McNemar tail and bootstrap
loop as they were before their fast paths, kept as a reference for
``survmrl.studystats``.

The loader groups outcomes in per-participant dicts of lists and takes
one ``np.mean`` per participant; ``_average_ranks`` walks each run of
ties with a ``while`` loop, and the normal approximation counts ties with
a second ``np.unique``. Scores come back as tuples of Python floats.
Differences must be finite: a NaN makes ``_average_ranks`` loop forever.
The exact McNemar tail sums ``math.comb`` term by term, and the bootstrap
resamples one score vector per call.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from dataset_reference import read_csv
from survmrl.errors import EstimationError, ParseError, SchemaError
from survmrl.studystats import EXACT_WILCOXON_LIMIT, BootstrapCi, WilcoxonResult, _exact_two_sided_p


def load_paired_survey(source) -> SimpleNamespace:
    header, rows = read_csv(source)
    expected = ["participant", "item", "pre", "post"]
    if sorted(header) != sorted(expected):
        raise SchemaError(f"expected columns {','.join(expected)}, got {', '.join(map(repr, header))}")
    idx = {name: header.index(name) for name in expected}

    pre_by_participant: dict[str, list[int]] = {}
    post_by_participant: dict[str, list[int]] = {}
    item_rows: dict[str, dict[str, int]] = {}  # participant -> item -> row number
    b = c = concordant = 0
    for row_number, row in rows:
        participant = row[idx["participant"]].strip()
        if not participant:
            raise ParseError(row_number, "participant id is empty")
        item = row[idx["item"]].strip()
        if not item:
            raise ParseError(row_number, "item label is empty")
        seen = item_rows.get(participant)
        if seen is None:
            seen = item_rows[participant] = {}
        elif item in seen:
            raise ParseError(
                row_number,
                f"duplicate (participant, item) {(participant, item)!r}, first given on row {seen[item]}",
            )
        seen[item] = row_number
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
    items = {item for seen in item_rows.values() for item in seen}
    return SimpleNamespace(
        ids=ids,
        pre_scores=tuple(float(np.mean(pre_by_participant[i])) for i in ids),
        post_scores=tuple(float(np.mean(post_by_participant[i])) for i in ids),
        b=b,
        c=c,
        n_concordant=concordant,
        n_items=len(items),
        n_pairs=sum(len(v) for v in pre_by_participant.values()),
    )


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


def wilcoxon_from_differences(differences) -> WilcoxonResult:
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


def mcnemar_exact_p(b: int, c: int) -> float:
    n = b + c
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1))
    return min(1.0, 2 * tail / 2**n)


def bootstrap_proportion_ci(values, n_replicates, seed, quantiles=(0.025, 0.975)) -> BootstrapCi:
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
