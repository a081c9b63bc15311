"""Seeded synthetic inputs for the benchmark workloads.

Every generator is a pure function of (seed, size): the same arguments give
byte-identical CSV text. Times are rounded to 4 decimal places, so inputs
carry ties the way recorded follow-up times do.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Censoring times come from the event distribution with this scale factor,
# which leaves about one third of the rows censored (independent censoring).
EXP_CENSOR_FACTOR = 2.0
GPD_SHAPE = 0.25
GPD_CENSOR_FACTOR = 2.2


def _rng(seed: int, stream: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _survival_csv(groups: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    rows = ["time,status,group"]
    for label, event, censor in groups:
        observed = np.round(np.minimum(event, censor), 4)
        status = (event <= censor).astype(int)
        rows += [f"{t:.4f},{s},{label}" for t, s in zip(observed, status)]
    return "\n".join(rows) + "\n"


def exponential_groups(seed: int, n_per_group: int) -> str:
    """Two exponential groups (means 1.0 and 1.5), about 1/3 censored."""
    rng = _rng(seed, "exponential")
    groups = []
    for label, mean in (("A", 1.0), ("B", 1.5)):
        event = rng.exponential(mean, n_per_group)
        censor = rng.exponential(mean * EXP_CENSOR_FACTOR, n_per_group)
        groups.append((label, event, censor))
    return _survival_csv(groups)


def _gpd(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    return scale / GPD_SHAPE * (rng.uniform(size=n) ** -GPD_SHAPE - 1.0)


def pareto_tail_groups(seed: int, n_per_group: int) -> str:
    """Two GPD(shape 0.25) groups (scales 1.0 and 1.5), about 1/3 censored."""
    rng = _rng(seed, "pareto")
    groups = []
    for label, scale in (("A", 1.0), ("B", 1.5)):
        event = _gpd(rng, scale, n_per_group)
        censor = _gpd(rng, scale * GPD_CENSOR_FACTOR, n_per_group)
        groups.append((label, event, censor))
    return _survival_csv(groups)


def paired_survey(seed: int, participants: int, items: int = 8) -> str:
    """Binary pre/post outcomes: pre about 50% correct, post about 80%."""
    rng = _rng(seed, "survey")
    pre = (rng.uniform(size=(participants, items)) < 0.5).astype(int)
    post = (rng.uniform(size=(participants, items)) < 0.8).astype(int)
    width = len(str(participants - 1))
    rows = ["participant,item,pre,post"]
    for p in range(participants):
        pid = f"p{p:0{width}d}"
        rows += [f"{pid},i{i},{pre[p, i]},{post[p, i]}" for i in range(items)]
    return "\n".join(rows) + "\n"


def describe(text: str) -> dict:
    """SHA-256, data row count and (for survival data) censored fraction."""
    lines = text.splitlines()
    header, body = lines[0], lines[1:]
    info = {"sha256": hashlib.sha256(text.encode()).hexdigest(), "rows": len(body)}
    if header.startswith("time,status"):
        censored = sum(1 for line in body if line.split(",")[1] == "0")
        info["censored_fraction"] = censored / len(body)
    return info
