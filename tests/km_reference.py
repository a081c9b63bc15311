"""The product-limit recursion that ``km.km_fit`` replaced, kept as the
independent reference for the one kernel in ``km.py``.

It groups a time-sorted sample with ``np.unique(return_index=True)`` and
sums deaths per distinct time with ``np.add.reduceat``; it shares no
binning or counting code with ``km.event_bins`` and ``km.risk_counts``.
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
