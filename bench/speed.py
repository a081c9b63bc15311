"""Machine-speed probe that keeps timings comparable on a shared machine.

On a machine shared with other tenants, the speed of one CPU drifts by up
to a factor of about 1.7 over seconds, so raw wall times of the same job
differ between runs by far more than any bound worth setting. Each timed
command is therefore bracketed by a short fixed kernel (CPython loops, string
formatting and parsing, numpy sorts, seeded generators, big-integer sums:
the kind of work survmrl does) run on the same pinned CPU. A command's time is reported at reference speed:

    wall * REFERENCE_S / mean(probe before, probe after)

The kernel belongs to the benchmark, so no change to survmrl moves it.
Raw wall times stay in the run's detail file.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

# Median probe time on an uncontended core of the machine the baseline was
# recorded on; it only sets the scale of reported times.
REFERENCE_S = 0.016

_VALUES = [float(i % 997) * 0.37 for i in range(12000)]
_ARRAY = np.random.default_rng(0).random(24000)


def pin_to_one_cpu():
    """Keep this process (and its children) on one CPU, so the probe and
    the timed work see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel():
    total, seen = 0.0, {}
    for i, v in enumerate(_VALUES):
        total += v * 1.5 if i & 1 else -v
        seen[i % 257] = (i, v)
    text = ",".join([repr(v) for v in _VALUES[:4000]])
    total += sum(float(x) for x in text.split(","))
    for _ in range(3):
        np.unique(np.round(_ARRAY, 3), return_index=True)
        total += float(np.cumsum(np.sort(_ARRAY))[-1])
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(i,)))
        total += float(rng.integers(0, 100, 500).mean())
    total += sum(math.comb(3000, k) for k in range(0, 600, 12)) % 7
    return total


def probe() -> float:
    """Fastest of three runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def at_reference_speed(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S / ((before + after) / 2.0)


class Clock:
    """Scales consecutive timed intervals, probing after each one; the probe
    after one interval is the probe before the next."""

    def __init__(self):
        self._before = probe()

    def scale(self, wall: float) -> float:
        after = probe()
        scaled = at_reference_speed(wall, self._before, after)
        self._before = after
        return scaled
