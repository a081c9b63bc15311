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
    print("wrote", HERE / "two_groups.csv", HERE / "survey.csv", "and", HERE / "ratio_zero.csv")
