"""The SVG renderer as it was before curves held arrays, kept as a bytewise
reference for ``survmrl.render.render_plot_svg``.

It walks every point through the ``px``/``py`` closures and finds each
censor tick's height with a ``bisect``, on a tuple view of the spec:
``as_tuples`` copies a ``PlotSpec`` into plain objects whose columns are
tuples of Python floats, as the curve classes held them. Its y range
has the renderer's later fixes: without a reference line the top is at
least 0, so an all-negative series stays inside the frame, and a series
writes each distinct censor tick once, where it first occurs. Every plot
is drawn on the renderer's fixed 720x480 canvas, with its x axis
labelled ``_X_LABEL``, and a band belongs to the grid series it
surrounds: each series' band is drawn behind the frame, in series order.
"""

from __future__ import annotations

import io
import math
import re
from bisect import bisect_right
from types import SimpleNamespace
from xml.sax.saxutils import escape

from survmrl import ComparisonCurve, MrlCurve, SurvmrlError
from survmrl.errors import EstimationError
from survmrl.render import _X_LABEL


def _floats(column) -> tuple[float, ...]:
    return tuple(float(v) for v in column)


def as_tuples(spec):
    """``spec`` with every array column as a tuple of Python floats."""
    def series(s):
        step = None
        if s.step is not None:
            step = SimpleNamespace(
                knots=_floats(s.step.knots), values=_floats(s.step.values), initial_value=s.step.initial_value
            )
        return SimpleNamespace(
            label=s.label, step=step, grid=_floats(s.grid), values=_floats(s.values),
            censor_times=_floats(s.censor_times), lower=_floats(s.lower), upper=_floats(s.upper),
        )

    return SimpleNamespace(
        title=spec.title, y_label=spec.y_label,
        series=tuple(series(s) for s in spec.series), reference_line=spec.reference_line,
    )


def step_eval(f, t: float) -> float:
    if not (math.isfinite(t) and t >= 0.0):
        raise EstimationError(f"step function argument must be finite and >= 0, got {t!r}")
    i = bisect_right(f.knots, t)
    if i == 0:
        return f.initial_value
    return f.values[i - 1]


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0
_WIDTH, _HEIGHT = 720, 480  # the one canvas every plot uses


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# Characters XML 1.0 cannot carry, not even as character references.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _text(text: str) -> str:
    """``text`` as SVG character data: ``&<>`` escaped, and each character
    XML forbids written out as its Python escape (U+0001 as ``\\x01``)."""
    return escape(_NOT_XML_CHAR.sub(lambda m: repr(m.group())[1:-1], text))


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


def _series_x_max(spec) -> float:
    x_max = 0.0
    for s in spec.series:
        if s.step is not None:
            if s.step.knots:
                x_max = max(x_max, s.step.knots[-1])
            if s.censor_times:
                x_max = max(x_max, max(s.censor_times))
        if s.grid:
            x_max = max(x_max, s.grid[-1])
    return x_max


def _y_bounds(spec) -> tuple[float, float]:
    finite: list[float] = []
    for s in spec.series:
        if s.step is not None:
            finite.append(s.step.initial_value)
            finite.extend(s.step.values)
        finite.extend(v for v in s.values + s.lower + s.upper if math.isfinite(v))
    if spec.reference_line is not None:
        ref = spec.reference_line
        spread = max((abs(v - ref) for v in finite), default=0.0)
        if spread == 0.0:
            spread = 1.0
        return ref - 1.05 * spread, ref + 1.05 * spread
    if all(s.step is not None for s in spec.series):
        return 0.0, 1.0
    top = max(max(finite, default=1.0), 0.0)
    bottom = min(0.0, min(finite, default=0.0))
    if top <= bottom:
        top = bottom + 1.0
    return bottom, 1.05 * top


def render_plot_svg(spec) -> bytes:
    """Render the spec as a standalone SVG 1.1 document (UTF-8 bytes)."""
    if not spec.series:
        raise SurvmrlError("nothing to plot")

    data_x_max = _series_x_max(spec)
    x_lo, x_hi = 0.0, (data_x_max if data_x_max > 0 else 1.0) * 1.05
    y_lo, y_hi = _y_bounds(spec)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
    )
    out.write(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n')

    # Each series' band behind everything else, in series order.
    for s in spec.series:
        points = []
        for t, v in zip(s.grid, s.upper):
            if math.isfinite(v):
                points.append(f"{_fmt(px(t))},{_fmt(py(v))}")
        for t, v in zip(reversed(s.grid), reversed(s.lower)):
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
            drawn = set()  # a tick already written in this series is not written again
            for t in series.censor_times:
                y = py(step_eval(f, t))
                tick = (
                    f'<line x1="{_fmt(px(t))}" y1="{_fmt(y - 4)}" '
                    f'x2="{_fmt(px(t))}" y2="{_fmt(y + 4)}" '
                    f'stroke="{color}" stroke-width="1.2"/>\n'
                )
                if tick not in drawn:
                    drawn.add(tick)
                    out.write(tick)
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
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">{_text(spec.title)}</text>\n'
    )
    out.write(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'font-size="12" text-anchor="middle" font-family="sans-serif">'
        f"{_text(_X_LABEL)}</text>\n"
    )
    out.write(
        f'<text x="16" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
        f"{_text(spec.y_label)}</text>\n"
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
                f'font-family="sans-serif">{_text(series.label)}</text>\n'
            )

    out.write("</svg>\n")
    return out.getvalue().encode("utf-8")


def export_curve_csv(curve) -> bytes:
    if isinstance(curve, MrlCurve):
        header = "t,value,component_km,component_tail"
        columns = (curve.grid, curve.values, curve.km_component, curve.tail_component)
    elif isinstance(curve, ComparisonCurve):
        header, columns = "t,value", (curve.grid, curve.values)
        if curve.lower.size:
            header, columns = "t,value,lower,upper", columns + (curve.lower, curve.upper)
    else:
        header, columns = "t,value", (curve.survival.knots, curve.survival.values)
    if columns[0].size == 0:
        raise SurvmrlError("empty curve")
    # repr of Python floats: numpy 2 writes np.float64(1.0) as 'np.float64(1.0)'.
    rows = zip(*(map(repr, column.tolist()) for column in columns))
    return "\n".join([header, *map(",".join, rows), ""]).encode("utf-8")
