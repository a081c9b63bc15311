"""The product-limit recursion that ``km.km_fit`` replaced, and the
binning that ``km.event_bins`` replaced, kept as independent references
for the one kernel in ``km.py``.

``product_limit`` groups a time-sorted sample with
``np.unique(return_index=True)`` and sums deaths per distinct time with
``np.add.reduceat``; it shares no binning or counting code with
``km.event_bins`` and ``km.risk_counts``. ``event_bins`` bins subjects in
any order, by ``np.unique`` and a binary search per subject.
"""

import numpy as np


def product_limit(times: np.ndarray, statuses: np.ndarray):
    """Core product-limit recursion on time-sorted arrays.

    Returns (event_times, at_risk, deaths, survival_values) for the
    distinct times carrying at least one event. ``times`` must be sorted
    ascending; tie order does not affect the result.
    """
    n = len(times)
    distinct, first_index = np.unique(times, return_index=True)
    d = np.add.reduceat(statuses, first_index)
    has_event = d > 0
    event_times = distinct[has_event]
    deaths = d[has_event]
    at_risk = n - first_index[has_event]
    surv = np.cumprod((at_risk - deaths) / at_risk)
    return event_times, at_risk, deaths, surv


def event_bins(times: np.ndarray, died: np.ndarray):
    """``(event_times, past, death_at)`` as ``km.event_bins`` defines them,
    for subjects in any order: the distinct event times by ``np.unique``,
    and each subject's count of event times at or before its time by
    ``np.searchsorted``."""
    event_times = np.unique(times[died])
    past = np.searchsorted(event_times, times, side="right")
    return event_times, past, np.where(died, past - 1, event_times.size)
