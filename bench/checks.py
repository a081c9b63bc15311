"""Independent checks of each workload's outputs.

Every check recomputes what it can from the benchmark's own input with
plain numpy and Python, without importing survmrl, and returns a list of
problems (empty when the output is right). Knot times and grids are
compared exactly; products and ratios to a relative 1e-12, since the
reference multiplies in another order than the program.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

REL_TOL = 1e-12


def read_survival(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """group -> (times, statuses) from a time,status,group CSV."""
    rows: dict[str, tuple[list[float], list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for time, status, group in reader:
            times, statuses = rows.setdefault(group, ([], []))
            times.append(float(time))
            statuses.append(int(status))
    return {g: (np.array(t), np.array(s)) for g, (t, s) in sorted(rows.items())}


def product_limit(times: np.ndarray, statuses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kaplan-Meier knots (distinct event times) and post-jump survival values."""
    distinct, inverse = np.unique(times, return_inverse=True)
    deaths = np.bincount(inverse, weights=statuses)
    leaving = np.bincount(inverse)
    at_risk = len(times) - np.concatenate(([0], np.cumsum(leaving)[:-1]))
    has_event = deaths > 0
    return distinct[has_event], np.cumprod(1.0 - deaths[has_event] / at_risk[has_event])


def survival_at(knots: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.concatenate(([1.0], values))[np.searchsorted(knots, t, side="right")]


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Numeric CSV with a header -> column name -> float array."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*[[float(x) for x in row] for row in reader]))
    return {name: np.array(col) for name, col in zip(header, columns)}


def _close(actual: np.ndarray, expected: np.ndarray) -> bool:
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= REL_TOL * np.maximum(np.abs(expected), 1.0))
    )


def _svg_ok(path: Path) -> list[str]:
    data = path.read_bytes()
    if not (data.startswith(b"<svg") or data.startswith(b"<?xml")) or not data.endswith(b"</svg>\n"):
        return [f"{path.name}: not a complete SVG document"]
    return []


def check_km(input_csv: Path, out: Path, stdout: str) -> list[str]:
    problems = _svg_ok(out / "km.svg")
    for group, (times, statuses) in read_survival(input_csv).items():
        knots, values = product_limit(times, statuses)
        table = read_table(out / f"km.{group}.csv")
        if not np.array_equal(table["t"], knots):
            problems.append(f"km.{group}.csv: knots differ from the distinct event times")
        elif not _close(table["value"], values):
            problems.append(f"km.{group}.csv: survival differs from the product-limit estimate")
    return problems


def _comparison_grid(samples, kind: str) -> tuple[np.ndarray, np.ndarray]:
    (times_a, status_a), (times_b, status_b) = samples.values()
    knots_a, surv_a = product_limit(times_a, status_a)
    knots_b, surv_b = product_limit(times_b, status_b)
    horizon = min(times_a.max(), times_b.max())
    grid = np.union1d(knots_a, knots_b)
    grid = grid[grid <= horizon]
    s_a = survival_at(knots_a, surv_a, grid)
    s_b = survival_at(knots_b, surv_b, grid)
    if kind == "ratio":
        keep = s_b > 0.0
        return grid[keep], s_a[keep] / s_b[keep]
    return grid, s_a - s_b


def _check_comparison(kind: str, input_csv: Path, out: Path) -> list[str]:
    problems = _svg_ok(out / f"{kind}.svg")
    grid, expected = _comparison_grid(read_survival(input_csv), kind)
    table = read_table(out / f"{kind}.csv")
    if not np.array_equal(table["t"], grid):
        return problems + [f"{kind}.csv: grid differs from the event times in the common window"]
    if not _close(table["value"], expected):
        problems.append(f"{kind}.csv: curve values differ from the product-limit comparison")
    lower, upper = table["lower"], table["upper"]
    both = np.isfinite(lower) & np.isfinite(upper)
    if not np.all(lower[both] <= upper[both]):
        problems.append(f"{kind}.csv: envelope has lower > upper")
    if kind == "diff" and not np.all(both):
        problems.append("diff.csv: envelope undefined at some grid point")
    return problems


def check_diff(input_csv: Path, out: Path, stdout: str) -> list[str]:
    return _check_comparison("diff", input_csv, out)


def check_ratio(input_csv: Path, out: Path, stdout: str) -> list[str]:
    return _check_comparison("ratio", input_csv, out)


def quantile_threshold(times: np.ndarray, statuses: np.ndarray, q: float = 0.8) -> float:
    """The CLI's default threshold: linear-interpolated quantile of event times."""
    events = np.sort(times[statuses == 1])
    h = (events.size - 1) * q
    low = int(math.floor(h))
    high = min(low + 1, events.size - 1)
    return float(events[low] + (h - low) * (events[high] - events[low]))


def restricted_mean(times: np.ndarray, statuses: np.ndarray, grid: np.ndarray, u: float):
    """Product-limit S(t) and area of S over [t, u] / S(t), from prefix areas."""
    knots, surv = product_limit(times, statuses)
    edges = np.concatenate(([0.0], knots[knots < u], [u]))
    level = survival_at(knots, surv, edges[:-1])  # value of S on [edges[i], edges[i+1])
    prefix = np.concatenate(([0.0], np.cumsum(level * np.diff(edges))))
    j = np.searchsorted(edges, grid, side="right") - 1
    below = prefix[j] + level[np.minimum(j, level.size - 1)] * (grid - edges[j])
    s_t = survival_at(knots, surv, grid)
    return s_t, (prefix[-1] - below) / s_t, prefix[-1]


_MRL_SUMMARY = re.compile(r"(\w+): u=(\S+) shape=(\S+) scale=(\S+) converged=")


def check_mrl(input_csv: Path, out: Path, stdout: str) -> list[str]:
    problems = _svg_ok(out / "mrl.svg")
    fits = {g: (float(u), float(shape), float(scale)) for g, u, shape, scale in _MRL_SUMMARY.findall(stdout)}
    for group, (times, statuses) in read_survival(input_csv).items():
        name = f"mrl.{group}.csv"
        table = read_table(out / name)
        t, value = table["t"], table["value"]
        km_part, tail_part = table["component_km"], table["component_tail"]
        u = quantile_threshold(times, statuses)
        expected_grid = np.union1d(times[times <= u], [0.0, u])
        if not np.array_equal(t, expected_grid):
            problems.append(f"{name}: grid is not the distinct times up to the threshold")
            continue
        if not np.array_equal(value, km_part + tail_part):
            problems.append(f"{name}: value != component_km + component_tail")
        # Prefix differences lose digits against the program's segment sums,
        # so the KM part is compared to the total area over [0, u].
        s_t, expected_km, area = restricted_mean(times, statuses, t, u)
        if not np.all(np.abs(km_part - expected_km) <= 1e-9 * (area / s_t)):
            problems.append(f"{name}: component_km differs from the restricted product-limit area")
        if not _close(tail_part, tail_part[-1] * (s_t[-1] / s_t)):
            problems.append(f"{name}: component_tail is not tail_mean * S(u) / S(t)")
        if group not in fits or fits[group][0] != u:
            problems.append(f"{name}: summary line does not report threshold {u!r}")
            continue
        _, shape, scale = fits[group]
        tail_mean = scale / (1.0 - shape)  # summary prints 6 significant digits
        if km_part[-1] != 0.0 or value[-1] != tail_part[-1] or not math.isclose(value[-1], tail_mean, rel_tol=2e-5):
            problems.append(f"{name}: threshold row is not the fitted tail mean {tail_mean:.6g}")
    return problems


def check_mrl_diff(input_csv: Path, out: Path, stdout: str) -> list[str]:
    problems = _svg_ok(out / "mrl-diff.svg")
    a, b = (read_table(out / f"mrl.{g}.csv") for g in read_survival(input_csv))
    table = read_table(out / "mrl-diff.csv")
    hi = min(a["t"][-1], b["t"][-1])
    expected_grid = np.union1d(a["t"], b["t"])
    expected_grid = expected_grid[expected_grid <= hi]
    if not np.array_equal(table["t"], expected_grid):
        return problems + ["mrl-diff.csv: grid is not the union of both MRL grids in the common window"]
    # At a point on both fitted grids the re-evaluation equals the grid values.
    shared, ia, ib = np.intersect1d(a["t"], b["t"], return_indices=True)
    at = np.searchsorted(table["t"], shared[shared <= hi])
    n = at.size
    if n == 0 or not np.array_equal(table["value"][at], a["value"][ia[:n]] - b["value"][ib[:n]]):
        problems.append("mrl-diff.csv: differs from the per-group MRL values at shared grid points")
    return problems


def read_survey(path: Path) -> tuple[dict[str, list[tuple[int, int]]], int, int]:
    """participant -> [(pre, post)], and the discordant counts b (1->0), c (0->1)."""
    answers: dict[str, list[tuple[int, int]]] = {}
    b = c = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for participant, _item, pre, post in reader:
            pair = (int(pre), int(post))
            answers.setdefault(participant, []).append(pair)
            b += pair == (1, 0)
            c += pair == (0, 1)
    return answers, b, c


def check_stats(input_csv: Path, out: Path, stdout: str) -> list[str]:
    answers, b, c = read_survey(input_csv)
    with open(out / "stats.csv", newline="") as fh:
        rows = {row["metric"]: row for row in csv.DictReader(fh)}
    problems = []
    if rows.get("discordant_b", {}).get("value") != str(b):
        problems.append(f"stats.csv: discordant_b is not {b}")
    if rows.get("discordant_c", {}).get("value") != str(c):
        problems.append(f"stats.csv: discordant_c is not {c}")
    for metric in ("mcnemar_p_continuity", "mcnemar_p_exact", "wilcoxon_p"):
        p = float(rows[metric]["value"]) if metric in rows else math.nan
        if not 0.0 <= p <= 1.0:
            problems.append(f"stats.csv: {metric} is not in [0, 1]")
    pre = np.mean([np.mean([x for x, _ in pairs]) for pairs in answers.values()])
    if "pre_accuracy" not in rows or not math.isclose(float(rows["pre_accuracy"]["value"]), pre, rel_tol=REL_TOL):
        problems.append("stats.csv: pre_accuracy differs from the mean participant score")
    for metric in ("pre_accuracy", "post_accuracy", "learning_gain"):
        row = rows.get(metric, {})
        if not row.get("lower") or float(row["lower"]) > float(row["upper"]):
            problems.append(f"stats.csv: {metric} interval missing or lower > upper")
    return problems
