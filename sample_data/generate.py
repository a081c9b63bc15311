"""Regenerate the bundled synthetic datasets (fixed seeds, deterministic)."""

from pathlib import Path

import numpy as np

HERE = Path(__file__).parent


def write_two_groups():
    rng = np.random.default_rng(20240807)
    rows = ["time,status,group"]
    # group A fails about twice as fast as group B; ~20% censoring each
    for label, mean in (("A", 2.0), ("B", 4.0)):
        survival_times = rng.exponential(mean, 500)
        censor_times = rng.exponential(mean * 4, 500)
        observed = np.minimum(survival_times, censor_times)
        status = (survival_times <= censor_times).astype(int)
        rows += [f"{float(x)!r},{int(s)},{label}" for x, s in zip(observed, status)]
    (HERE / "two_groups.csv").write_text("\n".join(rows) + "\n")


def write_survey():
    rng = np.random.default_rng(20240808)
    rows = ["participant,item,pre,post"]
    # pre-learning ~50% accuracy, post-learning ~80%
    for participant in range(32):
        for item in range(4):
            pre = int(rng.uniform() < 0.5)
            post = int(rng.uniform() < 0.8)
            rows.append(f"p{participant:02d},i{item},{pre},{post}")
    (HERE / "survey.csv").write_text("\n".join(rows) + "\n")


def _ragged_survey(rng, n_participants, max_items, id_format):
    """Rows for participants with 1..max_items items each, in shuffled row order."""
    rows = []
    for participant in range(n_participants):
        skill = rng.uniform(0.2, 0.7)
        gain = rng.uniform(-0.1, 0.4)
        for item in range(int(rng.integers(1, max_items + 1))):
            pre = int(rng.uniform() < skill)
            post = int(rng.uniform() < min(1.0, skill + gain))
            rows.append(f"{id_format.format(participant)},i{item},{pre},{post}")
    order = rng.permutation(len(rows))
    return ["participant,item,pre,post"] + [rows[k] for k in order]


def write_survey_ragged():
    # 1-7 items per participant: means are not multiples of one step, so
    # the summation order of every mean shows in the output digits
    rng = np.random.default_rng(20261018)
    rows = _ragged_survey(rng, 200, 7, "p{:03d}")
    (HERE / "survey_ragged.csv").write_text("\n".join(rows) + "\n")


def write_survey_small():
    # 20 participants: at most 20 nonzero differences, so the Wilcoxon test
    # takes its exact path, and ragged items give tied |d| (half-integer ranks)
    rng = np.random.default_rng(20261019)
    rows = _ragged_survey(rng, 20, 4, "s{}")
    (HERE / "survey_small.csv").write_text("\n".join(rows) + "\n")


def write_tail_ties():
    # 2x2000 rows on a 0.1 time grid (heavy ties, some zero times), GPD
    # lifetimes with a heavy tail and ~25% exponential censoring per group,
    # rows shuffled so the groups interleave
    rng = np.random.default_rng(20261020)
    rows = []
    for label, shape, scale in (("A", 0.25, 2.0), ("B", 0.15, 3.0)):
        life = scale / shape * ((1.0 - rng.uniform(size=2000)) ** -shape - 1.0)
        censor = rng.exponential(scale * 3.5, 2000)
        status = (life <= censor).astype(int)
        rows += [f"{x:.1f},{int(s)},{label}" for x, s in zip(np.minimum(life, censor), status)]
    order = rng.permutation(len(rows))
    (HERE / "tail_ties.csv").write_text("\n".join(["time,status,group"] + [rows[k] for k in order]) + "\n")


def write_many_knots():
    # 2x4000 rows, about 20% censored: each group's KM curve has more knots
    # than the plot has columns, so its SVG is drawn from a thinned series
    rng = np.random.default_rng(20261021)
    rows = ["time,status,group"]
    for label, mean in (("A", 2.0), ("B", 3.0)):
        survival_times = rng.exponential(mean, 4000)
        censor_times = rng.exponential(mean * 4, 4000)
        status = (survival_times <= censor_times).astype(int)
        rows += [f"{x:.4f},{int(s)},{label}" for x, s in zip(np.minimum(survival_times, censor_times), status)]
    (HERE / "many_knots.csv").write_text("\n".join(rows) + "\n")


def write_ratio_zero():
    # tie-heavy, every subject an event: under relabelling the denominator
    # group often loses its last subject before the top of the ratio grid
    rows = ["time,status,group"]
    for label, times in (("A", (1, 1, 2, 2, 2, 3, 3, 4, 5, 5)), ("B", (1, 2, 2, 3, 3, 3, 4, 4, 5, 6))):
        rows += [f"{t},1,{label}" for t in times]
    (HERE / "ratio_zero.csv").write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    write_two_groups()
    write_survey()
    write_ratio_zero()
    write_survey_ragged()
    write_survey_small()
    write_tail_ties()
    write_many_knots()
    print("wrote", *(HERE / name for name in (
        "two_groups.csv", "survey.csv", "ratio_zero.csv", "survey_ragged.csv", "survey_small.csv",
        "tail_ties.csv", "many_knots.csv",
    )))
