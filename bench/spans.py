"""Span tracing of survmrl's layers, installed from outside the package.

The modules bind each other with ``from .x import f``, so a function is
wrapped at every name its callers look up (``survmrl.cli.km_fit``,
``survmrl.mrl.km_fit``, ``survmrl.compare.km_fit`` all get a ``km.fit``
span). Spans are kept in memory as (name, start, end, parent) and every
original function is put back by ``Tracer.restore``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

MODULES = ("dataset", "km", "mrl", "gpd", "compare", "render", "studystats", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span

    @property
    def duration(self) -> float:
        return self.end - self.start


_KNOTS = (("km.knots", lambda r: len(r.event_times)),)

# (module that holds the name, attribute, span name, counters on the result)
WRAPPED = (
    ("survmrl.cli", "load_dataset", "dataset.load", (("dataset.rows", lambda r: sum(s.n for s in r.values())),)),
    ("survmrl.cli", "km_fit", "km.fit", _KNOTS),
    ("survmrl.mrl", "km_fit", "km.fit", _KNOTS),
    ("survmrl.compare", "km_fit", "km.fit", _KNOTS),
    ("survmrl.mrl", "step_integral", "km.step_integral", ()),
    ("survmrl.mrl", "fit_hybrid_mrl", "mrl.fit", (("mrl.grid_points", lambda r: len(r.grid)),)),
    ("survmrl.mrl", "select_threshold", "mrl.select_threshold", ()),
    ("survmrl.compare", "evaluate_mrl", "mrl.evaluate", ()),
    ("survmrl.mrl", "fit_gpd", "gpd.fit", (
        ("gpd.exceedances", lambda r: r.n_exceedances),
        ("gpd.converged", lambda r: int(r.converged)),
    )),
    ("survmrl.compare", "survival_difference", "compare.curve", ()),
    ("survmrl.compare", "survival_ratio", "compare.curve", ()),
    ("survmrl.compare", "mrl_difference", "compare.mrl_diff", ()),
    ("survmrl.compare", "permutation_envelope", "compare.envelope", (
        ("compare.grid_points", lambda r: len(r.grid)),
        ("compare.replicates", lambda r: r.n_permutations),
    )),
    ("survmrl.render", "render_plot_svg", "render.svg", (("render.svg_bytes", len),)),
    ("survmrl.render", "export_curve_csv", "render.csv", (("render.csv_bytes", len),)),
    ("survmrl.studystats", "load_paired_survey", "studystats.load", ()),
    ("survmrl.studystats", "bootstrap_proportion_ci", "studystats.bootstrap", (
        ("studystats.bootstrap_replicates", lambda r: r.n_replicates),
    )),
    ("survmrl.studystats", "mcnemar_test", "studystats.mcnemar", ()),
    ("survmrl.studystats", "wilcoxon_signed_rank", "studystats.wilcoxon", ()),
)

# name -> unit, in report order. Every name is present in every traced run;
# a layer the workload never calls reports 0.
PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.self_s": "s",
    "dataset.rows": "count",
    "dataset.rows_per_s": "rows/s",
    "km.fit_s": "s",
    "km.self_s": "s",
    "km.fit_calls": "count",
    "km.knots": "count",
    "km.step_integral_s": "s",
    "km.step_integral_calls": "count",
    "mrl.fit_s": "s",
    "mrl.self_s": "s",
    "mrl.select_threshold_s": "s",
    "mrl.grid_points": "count",
    "mrl.evaluate_s": "s",
    "mrl.evaluate_calls": "count",
    "gpd.fit_s": "s",
    "gpd.self_s": "s",
    "gpd.fit_calls": "count",
    "gpd.exceedances": "count",
    "gpd.converged_ratio": "ratio",
    "compare.envelope_s": "s",
    "compare.self_s": "s",
    "compare.replicates_per_s": "1/s",
    "compare.grid_points": "count",
    "compare.curve_s": "s",
    "compare.mrl_diff_s": "s",
    "render.svg_s": "s",
    "render.self_s": "s",
    "render.svg_bytes": "bytes",
    "render.csv_s": "s",
    "render.csv_bytes": "bytes",
    "studystats.load_s": "s",
    "studystats.self_s": "s",
    "studystats.bootstrap_s": "s",
    "studystats.bootstrap_replicates_per_s": "1/s",
    "studystats.mcnemar_s": "s",
    "studystats.wilcoxon_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.job_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def wrap(self, owner, attr: str, name: str, counters=()):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            for key, value in counters:
                self.counts[key] += value(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def originals() -> dict[tuple[str, str], Callable]:
    """The untraced function object behind every wrapped name."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in WRAPPED}


def install(tracer: Tracer):
    for mod, attr, name, counters in WRAPPED:
        tracer.wrap(importlib.import_module(mod), attr, name, counters)


def totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name."""
    out: defaultdict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover.

    Spans come from one thread's call stack, so children never overlap and
    the covered time is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    out: defaultdict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        out[span.name] += span.duration - child_time
    return out


def layer_self_times(spans: list[Span], job_s: float) -> dict[str, float]:
    """Self time per module; ``cli`` gets the job time no span covers."""
    per_module = dict.fromkeys(MODULES, 0.0)
    for name, seconds in self_times(spans).items():
        per_module[name.split(".")[0]] += seconds
    per_module["cli"] = job_s - sum(s.duration for s in spans if s.parent < 0)
    return per_module


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(
    spans: list[Span], counts: dict[str, float], job_s: float, output_bytes: int, scale: float = 1.0
) -> dict[str, float]:
    """Every PER_LAYER metric except ``trace.overhead_ratio`` for one traced job.

    Times (and the rates built on them) are multiplied by ``scale``, which
    converts the job's wall time to reference machine speed.
    """
    total = defaultdict(float, {name: s * scale for name, s in totals(spans).items()})
    calls: defaultdict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
    m = {f"{module}.self_s": s * scale for module, s in layer_self_times(spans, job_s).items()}
    m.update({
        "dataset.load_s": total["dataset.load"],
        "dataset.rows": counts["dataset.rows"],
        "dataset.rows_per_s": _rate(counts["dataset.rows"], total["dataset.load"]),
        "km.fit_s": total["km.fit"],
        "km.fit_calls": calls["km.fit"],
        "km.knots": counts["km.knots"],
        "km.step_integral_s": total["km.step_integral"],
        "km.step_integral_calls": calls["km.step_integral"],
        "mrl.fit_s": total["mrl.fit"],
        "mrl.select_threshold_s": total["mrl.select_threshold"],
        "mrl.grid_points": counts["mrl.grid_points"],
        "mrl.evaluate_s": total["mrl.evaluate"],
        "mrl.evaluate_calls": calls["mrl.evaluate"],
        "gpd.fit_s": total["gpd.fit"],
        "gpd.fit_calls": calls["gpd.fit"],
        "gpd.exceedances": counts["gpd.exceedances"],
        "gpd.converged_ratio": _rate(counts["gpd.converged"], calls["gpd.fit"]),
        "compare.envelope_s": total["compare.envelope"],
        "compare.replicates_per_s": _rate(counts["compare.replicates"], total["compare.envelope"]),
        "compare.grid_points": counts["compare.grid_points"],
        "compare.curve_s": total["compare.curve"],
        "compare.mrl_diff_s": total["compare.mrl_diff"],
        "render.svg_s": total["render.svg"],
        "render.svg_bytes": counts["render.svg_bytes"],
        "render.csv_s": total["render.csv"],
        "render.csv_bytes": counts["render.csv_bytes"],
        "studystats.load_s": total["studystats.load"],
        "studystats.bootstrap_s": total["studystats.bootstrap"],
        "studystats.bootstrap_replicates_per_s": _rate(
            counts["studystats.bootstrap_replicates"], total["studystats.bootstrap"]
        ),
        "studystats.mcnemar_s": total["studystats.mcnemar"],
        "studystats.wilcoxon_s": total["studystats.wilcoxon"],
        "cli.output_bytes": output_bytes,
        "trace.job_s": job_s * scale,
        "trace.spans": len(spans),
    })
    return m
