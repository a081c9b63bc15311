"""Deterministic SVG plots and CSV export for fitted curves.

Output bytes are a pure function of the inputs: coordinates are written
with fixed 6-significant-digit formatting, colors come from a fixed
palette, and nothing (timestamps, ids) varies between runs. Step curves
are drawn as horizontal-then-vertical segments so right-continuity is
visible; censor marks are short vertical ticks on the curve; envelopes
are a shaded polygon behind the series.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

from .compare import ComparisonCurve, Envelope
from .errors import SurvmrlError
from .km import KmCurve, StepFunction, step_eval
from .mrl import MrlCurve

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0


@dataclass(frozen=True)
class PlotSeries:
    """One curve: either a step function (with optional censor marks) or grid/values."""

    label: str
    step: StepFunction | None = None
    grid: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    censor_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.step is None and not self.grid:
            raise ValueError("a series needs either a step function or grid data")
        if self.step is None and len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")


@dataclass(frozen=True)
class PlotSpec:
    title: str
    x_label: str
    y_label: str
    series: tuple[PlotSeries, ...]
    width: int = 720
    height: int = 480
    envelope: Envelope | None = None
    reference_line: float | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    power = math.floor(math.log10(raw))
    base = raw / 10**power
    for nice in (1.0, 2.0, 2.5, 5.0, 10.0):
        if base <= nice:
            step = nice * 10**power
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _series_x_max(spec: PlotSpec) -> float:
    x_max = 0.0
    for s in spec.series:
        if s.step is not None:
            if s.step.knots:
                x_max = max(x_max, s.step.knots[-1])
            if s.censor_times:
                x_max = max(x_max, max(s.censor_times))
        if s.grid:
            x_max = max(x_max, s.grid[-1])
    if spec.envelope is not None and spec.envelope.grid:
        x_max = max(x_max, spec.envelope.grid[-1])
    return x_max


def _y_bounds(spec: PlotSpec) -> tuple[float, float]:
    finite: list[float] = []
    for s in spec.series:
        if s.step is not None:
            finite.append(s.step.initial_value)
            finite.extend(s.step.values)
        finite.extend(v for v in s.values if math.isfinite(v))
    if spec.envelope is not None:
        finite.extend(v for v in spec.envelope.lower if math.isfinite(v))
        finite.extend(v for v in spec.envelope.upper if math.isfinite(v))
    if spec.reference_line is not None:
        ref = spec.reference_line
        spread = max((abs(v - ref) for v in finite), default=0.0)
        if spread == 0.0:
            spread = 1.0
        return ref - 1.05 * spread, ref + 1.05 * spread
    if all(s.step is not None for s in spec.series):
        return 0.0, 1.0
    top = max(finite, default=1.0)
    bottom = min(0.0, min(finite, default=0.0))
    if top <= bottom:
        top = bottom + 1.0
    return bottom, 1.05 * top


def render_plot_svg(spec: PlotSpec) -> bytes:
    """Render the spec as a standalone SVG 1.1 document (UTF-8 bytes)."""
    if not spec.series:
        raise SurvmrlError("nothing to plot")
    if spec.envelope is not None:
        grids = [s.grid for s in spec.series if s.grid]
        if grids and spec.envelope.grid != grids[0]:
            raise SurvmrlError("envelope grid mismatch")

    data_x_max = _series_x_max(spec)
    x_lo, x_hi = 0.0, (data_x_max if data_x_max > 0 else 1.0) * 1.05
    y_lo, y_hi = _y_bounds(spec)

    plot_w = spec.width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = spec.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">\n'
    )
    out.write(f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>\n')

    # Envelope band behind everything else.
    if spec.envelope is not None:
        points = []
        for t, v in zip(spec.envelope.grid, spec.envelope.upper):
            if math.isfinite(v):
                points.append(f"{_fmt(px(t))},{_fmt(py(v))}")
        for t, v in zip(reversed(spec.envelope.grid), reversed(spec.envelope.lower)):
            if math.isfinite(v):
                points.append(f"{_fmt(px(t))},{_fmt(py(v))}")
        if points:
            out.write(
                f'<polygon points="{" ".join(points)}" fill="#c6dbef" '
                f'stroke="none" opacity="0.7"/>\n'
            )

    # Frame and ticks.
    out.write(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="black" stroke-width="1"/>\n'
    )
    bottom = _MARGIN_TOP + plot_h
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.write(
            f'<line x1="{_fmt(x)}" y1="{_fmt(bottom)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(bottom + 5)}" stroke="black" stroke-width="1"/>\n'
        )
        out.write(
            f'<text x="{_fmt(x)}" y="{_fmt(bottom + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>\n'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.write(
            f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(y)}" stroke="black" stroke-width="1"/>\n'
        )
        out.write(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>\n'
        )

    if spec.reference_line is not None and y_lo <= spec.reference_line <= y_hi:
        y = py(spec.reference_line)
        out.write(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(y)}" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="5,4"/>\n'
        )

    for index, series in enumerate(spec.series):
        color = PALETTE[index % len(PALETTE)]
        if series.step is not None:
            f = series.step
            d = [f"M{_fmt(px(0.0))},{_fmt(py(f.initial_value))}"]
            for knot, value in zip(f.knots, f.values):
                d.append(f"H{_fmt(px(knot))}")
                d.append(f"V{_fmt(py(value))}")
            d.append(f"H{_fmt(px(data_x_max))}")
            out.write(
                f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>\n'
            )
            for t in series.censor_times:
                y = py(step_eval(f, t))
                out.write(
                    f'<line x1="{_fmt(px(t))}" y1="{_fmt(y - 4)}" '
                    f'x2="{_fmt(px(t))}" y2="{_fmt(y + 4)}" '
                    f'stroke="{color}" stroke-width="1.2"/>\n'
                )
        else:
            points = [
                f"{_fmt(px(t))},{_fmt(py(v))}"
                for t, v in zip(series.grid, series.values)
                if math.isfinite(v)
            ]
            if points:
                out.write(
                    f'<polyline points="{" ".join(points)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>\n'
                )

    out.write(
        f'<text x="{_fmt(spec.width / 2)}" y="20" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">{escape(spec.title)}</text>\n'
    )
    out.write(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(spec.height - 10)}" '
        f'font-size="12" text-anchor="middle" font-family="sans-serif">'
        f"{escape(spec.x_label)}</text>\n"
    )
    out.write(
        f'<text x="16" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
        f"{escape(spec.y_label)}</text>\n"
    )

    if any(s.label for s in spec.series):
        legend_x = _MARGIN_LEFT + plot_w - 150
        for index, series in enumerate(spec.series):
            y = _MARGIN_TOP + 14 + 16 * index
            color = PALETTE[index % len(PALETTE)]
            out.write(
                f'<line x1="{_fmt(legend_x)}" y1="{_fmt(y)}" x2="{_fmt(legend_x + 22)}" '
                f'y2="{_fmt(y)}" stroke="{color}" stroke-width="1.5"/>\n'
            )
            out.write(
                f'<text x="{_fmt(legend_x + 28)}" y="{_fmt(y + 4)}" font-size="11" '
                f'font-family="sans-serif">{escape(series.label)}</text>\n'
            )

    out.write("</svg>\n")
    return out.getvalue().encode("utf-8")


def export_curve_csv(
    curve: KmCurve | StepFunction | MrlCurve | ComparisonCurve,
    envelope: Envelope | None = None,
) -> bytes:
    """Serialize a curve as CSV, full precision, one row per grid point.

    Columns are `t,value`, plus `lower,upper` when an envelope accompanies
    a comparison curve, or `component_km,component_tail` for MRL curves.
    """
    out = io.StringIO()
    if isinstance(curve, MrlCurve):
        if not curve.grid:
            raise SurvmrlError("empty curve")
        out.write("t,value,component_km,component_tail\n")
        for t, v, k, g in zip(curve.grid, curve.values, curve.km_component, curve.tail_component):
            out.write(f"{t!r},{v!r},{k!r},{g!r}\n")
    elif isinstance(curve, ComparisonCurve):
        if not curve.grid:
            raise SurvmrlError("empty curve")
        if envelope is not None:
            if envelope.grid != curve.grid:
                raise SurvmrlError("envelope grid mismatch")
            out.write("t,value,lower,upper\n")
            for t, v, lo, hi in zip(curve.grid, curve.values, envelope.lower, envelope.upper):
                out.write(f"{t!r},{v!r},{lo!r},{hi!r}\n")
        else:
            out.write("t,value\n")
            for t, v in zip(curve.grid, curve.values):
                out.write(f"{t!r},{v!r}\n")
    else:
        step = curve.survival if isinstance(curve, KmCurve) else curve
        if not step.knots:
            raise SurvmrlError("empty curve")
        out.write("t,value\n")
        for t, v in zip(step.knots, step.values):
            out.write(f"{t!r},{v!r}\n")
    return out.getvalue().encode("utf-8")
