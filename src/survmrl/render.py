"""Deterministic SVG plots and CSV export for fitted curves.

Output bytes are a pure function of the inputs: coordinates are written
with fixed 6-significant-digit formatting, colors come from a fixed
palette, and nothing (timestamps, ids) varies between runs. Step curves
are drawn as horizontal-then-vertical segments so right-continuity is
visible; censor marks are short vertical ticks on the curve, each
distinct tick drawn once. A grid series may carry a band (a lower and an
upper value per grid point), drawn as a shaded polygon behind the frame.

The document is written as UTF-8 bytes into one ``io.BytesIO``. The
coordinates of a path, polyline, polygon or tick list are formatted a
block of rows at a time by one bytes ``%`` call (``_rows``); ``%.6g``
writes the same digits as ``{:.6g}``. Other text is formatted as ``str``
and encoded once per part. User text never passes through a ``%``
template.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .compare import ComparisonCurve, Envelope
from .dataset import fields_equal, freeze_columns
from .errors import SurvmrlError
from .km import KmCurve, StepFunction, step_eval
from .mrl import MrlCurve

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0


@dataclass(frozen=True, eq=False)
class PlotSeries:
    """One curve in one of two forms: a step function with optional censor
    marks, or grid/values with an optional band (``lower``/``upper``, one
    pair per grid point). The columns are read-only float arrays, empty
    where the form has none."""

    label: str
    step: StepFunction | None = None
    grid: np.ndarray = ()
    values: np.ndarray = ()
    censor_times: np.ndarray = ()
    lower: np.ndarray = ()
    upper: np.ndarray = ()

    __eq__ = fields_equal

    def __post_init__(self):
        freeze_columns(self, grid=float, values=float)
        freeze_columns(self, lower=float, upper=float)
        freeze_columns(self, censor_times=float)
        if (self.step is None) == (self.grid.size == 0):
            raise ValueError("a series needs either a step function or grid data, not both")
        if self.step is None and self.censor_times.size:
            raise ValueError("censor marks need a step series")
        if self.lower.size not in (0, self.grid.size):
            raise ValueError("a band needs one lower and one upper value per grid point")


@dataclass(frozen=True)
class PlotSpec:
    title: str
    x_label: str
    y_label: str
    series: tuple[PlotSeries, ...]
    reference_line: float | None = None


_fmt = "{:.6g}".format  # one coordinate or tick value as written
# Rows per bytes-% call of _rows: one call per block, not per point, and
# never a whole series' text at once, which raised the peak memory.
_BLOCK_ROWS = 1024

# Every plot is drawn on one 720x480 canvas, so its size, the document's
# opening and the plot frame are fixed text.
_WIDTH, _HEIGHT = 720, 480
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_PROLOGUE = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" height="{_HEIGHT}" '
    f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
    f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
).encode("utf-8")
_FRAME = (
    f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" width="{_fmt(_PLOT_W)}" height="{_fmt(_PLOT_H)}" '
    'fill="none" stroke="black" stroke-width="1"/>\n'
).encode("utf-8")
_TICK_TARGET = 6  # about this many ticks per axis


def _rows(template: bytes, *columns: np.ndarray):
    """``template`` filled from each row of the columns, one bytes ``%``
    call per block of at most ``_BLOCK_ROWS`` rows. ``%.6g`` and
    ``{:.6g}`` write a float through the same routine, so the digits match
    ``_fmt``'s."""
    table = np.column_stack(columns)
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        yield (template * len(block)) % tuple(block.ravel().tolist())


def _line(x1: str, y1: str, x2: str, y2: str, stroke: str, width: str, extra: str = "") -> str:
    """A ``<line>`` element from formatted coordinates."""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="{width}"{extra}/>\n'
    )


def _label(x: str, y: str, size: int, anchor: str, body: str, extra: str = "") -> str:
    """A ``<text>`` element; ``anchor`` is its text-anchor, or "" for none."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}" font-size="{size}"{anchor} font-family="sans-serif"{extra}>{body}</text>\n'


# Characters XML 1.0 cannot carry, not even as character references.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _text(text: str) -> str:
    """``text`` as SVG character data: ``&<>`` escaped, and each character
    XML forbids written out as its Python escape (U+0001 as ``\\x01``).
    ``&`` goes first, so the other escapes are not escaped again."""
    text = _NOT_XML_CHAR.sub(lambda m: repr(m.group())[1:-1], text)
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / _TICK_TARGET
    if raw <= 0:  # an empty range, or one so narrow that the division underflows
        return [lo]
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
        if t + step == t:  # a range a few ulps wide: step is below half an ulp of t
            break
        t += step
    return ticks


def _series_x_max(spec: PlotSpec) -> float:
    """The largest knot, censor time or last grid point drawn, at least 0."""
    ends = [s.grid[-1:] for s in spec.series]
    ends += [np.append(s.step.knots[-1:], s.censor_times) for s in spec.series if s.step is not None]
    return float(np.concatenate(ends).max(initial=0.0))


def _y_bounds(spec: PlotSpec) -> tuple[float, float]:
    """Every step level and the finite grid and band values set the y range."""
    columns = [c for s in spec.series for c in (s.values, s.lower, s.upper)]
    levels = [np.append(s.step.initial_value, s.step.values) for s in spec.series if s.step is not None]
    shown = np.concatenate([c[np.isfinite(c)] for c in columns] + levels)
    if spec.reference_line is not None:
        ref = spec.reference_line
        spread = float(np.abs(shown - ref).max(initial=0.0))
        if spread == 0.0:
            spread = 1.0
        return ref - 1.05 * spread, ref + 1.05 * spread
    if all(s.step is not None for s in spec.series):
        return 0.0, 1.0
    top = max(float(shown.max()), 0.0) if shown.size else 1.0
    bottom = min(0.0, float(shown.min()) if shown.size else 0.0)
    if top <= bottom:
        top = bottom + 1.0
    return bottom, 1.05 * top


def render_plot_svg(spec: PlotSpec) -> bytes:
    """Render the spec as a standalone SVG 1.1 document (UTF-8 bytes)."""
    if not spec.series:
        raise SurvmrlError("nothing to plot")

    data_x_max = _series_x_max(spec)
    x_lo, x_hi = 0.0, (data_x_max if data_x_max > 0 else 1.0) * 1.05
    if not math.isfinite(x_hi):
        raise SurvmrlError(f"cannot plot: time {data_x_max!r} is too large for the x axis")
    y_lo, y_hi = _y_bounds(spec)
    if not math.isfinite(y_hi - y_lo):
        raise SurvmrlError(f"cannot plot: y range {y_lo!r} to {y_hi!r} is too wide for the y axis")

    # Floats or arrays: an element gets the IEEE operations a float would.
    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * _PLOT_H

    def points(ts: np.ndarray, vs: np.ndarray) -> bytes:
        """``x,y `` for each point with a finite value."""
        shown = np.isfinite(vs)
        return b"".join(_rows(b"%.6g,%.6g ", px(ts[shown]), py(vs[shown])))

    # getvalue() hands back the buffer itself, so the document is held once.
    out = io.BytesIO()

    def write(text: str) -> None:
        out.write(text.encode("utf-8"))

    out.write(_PROLOGUE)

    # Bands behind everything else, in series order.
    for s in [s for s in spec.series if s.lower.size]:
        band = points(s.grid, s.upper) + points(s.grid[::-1], s.lower[::-1])
        if band:
            out.write(b'<polygon points="%s" fill="#c6dbef" stroke="none" opacity="0.7"/>\n' % band[:-1])

    # Frame and ticks.
    out.write(_FRAME)
    bottom = _MARGIN_TOP + _PLOT_H
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        write(_line(_fmt(x), _fmt(bottom), _fmt(x), _fmt(bottom + 5), "black", "1"))
        write(_label(_fmt(x), _fmt(bottom + 18), 11, "middle", _fmt(t)))
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        write(_line(_fmt(_MARGIN_LEFT - 5), _fmt(y), _fmt(_MARGIN_LEFT), _fmt(y), "black", "1"))
        write(_label(_fmt(_MARGIN_LEFT - 8), _fmt(y + 4), 11, "end", _fmt(t)))

    if spec.reference_line is not None and y_lo <= spec.reference_line <= y_hi:
        y = _fmt(py(spec.reference_line))
        dash = ' stroke-dasharray="5,4"'
        write(_line(_fmt(_MARGIN_LEFT), y, _fmt(_MARGIN_LEFT + _PLOT_W), y, "#555555", "1", dash))

    for index, series in enumerate(spec.series):
        color = PALETTE[index % len(PALETTE)]
        if series.step is not None:
            f = series.step
            write(f'<path d="M{_fmt(px(0.0))},{_fmt(py(f.initial_value))} ')
            out.writelines(_rows(b"H%.6g V%.6g ", px(f.knots), py(f.values)))
            write(f'H{_fmt(px(data_x_max))}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            # Each distinct tick once, in first-occurrence order: tied censor
            # times, and distinct ones that land on one pixel, draw one line.
            # One dict spans the blocks, and update() leaves a key where it
            # first went in. splitlines() cuts only at \n and \r, and a tick
            # line holds neither before its end.
            first = np.unique(series.censor_times, return_index=True)[1]
            times = series.censor_times[np.sort(first)]
            x, y = px(times), py(step_eval(f, times))
            tick = _line("%.6g", "%.6g", "%.6g", "%.6g", color, "1.2").encode("utf-8")
            seen: dict[bytes, None] = {}
            for block in _rows(tick, x, y - 4, x, y + 4):
                seen.update(dict.fromkeys(block.splitlines(keepends=True)))
            out.writelines(seen)
        else:
            line = points(series.grid, series.values)
            if line:
                out.write(
                    b'<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>\n'
                    % (line[:-1], color.encode("utf-8"))
                )

    write(_label(_fmt(_WIDTH / 2), "20", 14, "middle", _text(spec.title)))
    center_x, center_y = _fmt(_MARGIN_LEFT + _PLOT_W / 2), _fmt(_MARGIN_TOP + _PLOT_H / 2)
    write(_label(center_x, _fmt(_HEIGHT - 10), 12, "middle", _text(spec.x_label)))
    rotate = f' transform="rotate(-90 16 {center_y})"'
    write(_label("16", center_y, 12, "middle", _text(spec.y_label), rotate))

    if any(s.label for s in spec.series):
        legend_x = _MARGIN_LEFT + _PLOT_W - 150
        for index, series in enumerate(spec.series):
            y = _MARGIN_TOP + 14 + 16 * index
            color = PALETTE[index % len(PALETTE)]
            write(_line(_fmt(legend_x), _fmt(y), _fmt(legend_x + 22), _fmt(y), color, "1.5"))
            write(_label(_fmt(legend_x + 28), _fmt(y + 4), 11, "", _text(series.label)))

    write("</svg>\n")
    return out.getvalue()


def export_curve_csv(curve: KmCurve | MrlCurve | ComparisonCurve, envelope: Envelope | None = None) -> bytes:
    """Serialize a curve as CSV, full precision, one row per grid point.

    Columns are `t,value`, plus `lower,upper` when an envelope accompanies
    a comparison curve, or `component_km,component_tail` for MRL curves.
    An envelope with any other curve is an error.
    """
    if envelope is not None and not isinstance(curve, ComparisonCurve):
        raise SurvmrlError("an envelope needs a comparison curve")
    if isinstance(curve, MrlCurve):
        header = "t,value,component_km,component_tail"
        columns = (curve.grid, curve.values, curve.km_component, curve.tail_component)
    elif isinstance(curve, ComparisonCurve):
        header, columns = "t,value", (curve.grid, curve.values)
        if envelope is not None:
            if not np.array_equal(envelope.grid, curve.grid):
                raise SurvmrlError("envelope grid mismatch")
            header, columns = "t,value,lower,upper", columns + (envelope.lower, envelope.upper)
    else:
        header, columns = "t,value", (curve.survival.knots, curve.survival.values)
    if columns[0].size == 0:
        raise SurvmrlError("empty curve")
    # repr of Python floats: numpy 2 writes np.float64(1.0) as 'np.float64(1.0)'.
    rows = zip(*(map(repr, column.tolist()) for column in columns))
    return "\n".join([header, *map(",".join, rows), ""]).encode("utf-8")
