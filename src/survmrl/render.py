"""Deterministic SVG plots and CSV export for fitted curves.

Output bytes are a pure function of the inputs: coordinates are written
with fixed 6-significant-digit formatting, colors come from a fixed
palette, and nothing (timestamps, ids) varies between runs. Step curves
are drawn as horizontal-then-vertical segments so right-continuity is
visible; censor marks are short vertical ticks on the curve, each
distinct tick drawn once. A grid series may carry a band (a lower and an
upper value per grid point), drawn as a shaded polygon behind the frame.

The SVG is drawn at the canvas's resolution, not one vertex per row:
the axes come from every row, and each series is then thinned
(``thin_series``) to the rows that draw its pixels in columns
``_COLUMN_PX`` (0.5 px) wide, so its size stops growing with the rows
once they outnumber the columns. The CSV export keeps every row at full
precision, a comparison curve's band too: each value is Python's
``repr``, the shortest decimal that reads back to the same double. One
vectorised writer (``csv_bytes``) computes those digits exactly with
numpy, a block of rows at a time, and calls ``repr`` per value only
outside its domain (NaN, ±inf, the exponent form and near-ties).

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
from dataclasses import dataclass, replace

import numpy as np

from .compare import ComparisonCurve
from .dataset import fields_equal, freeze_columns
from .errors import SurvmrlError
from .km import KmCurve, StepFunction, check_grid, step_eval
from .mrl import MrlCurve

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 48.0
_X_LABEL = "time"  # every plot's x axis


@dataclass(frozen=True, eq=False)
class PlotSeries:
    """One curve in one of two forms: a step function with optional censor
    marks, or grid/values with an optional band (``lower``/``upper``, one
    pair per grid point). The columns are read-only float arrays, empty
    where the form has none; a grid is finite and strictly increasing."""

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
        check_grid(self.grid)


@dataclass(frozen=True)
class PlotSpec:
    title: str
    y_label: str
    series: tuple[PlotSeries, ...]
    reference_line: float | None = None


_fmt = "{:.6g}".format  # one coordinate or tick value as written
# Rows per bytes-% call of _rows: one call per block, not per point, and
# never a whole series' text at once, which raised the peak memory.
# Thinned to the canvas's columns, a KM curve of 2x50k rows keeps about
# 2,000 knots and 1,200 ticks a group: one to three blocks each.
_BLOCK_ROWS = 1024
# Width in px of the columns and tick cells a series is thinned to
# (thin_series): below 1 px, so the drawing stays exact at 2x zoom. At
# 0.25 px a 2x50k-row KM plot was 1.8 times the size (551 against 305 KB),
# mostly censor ticks, and grew 1.5-1.7 times from 1e4 to 1e5 rows a group.
_COLUMN_PX = 0.5

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


def _axes(spec: PlotSpec) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """``(data_x_max, x_range, y_range)``: the largest time drawn and the
    two axis ranges, each ``(lo, hi)``."""
    data_x_max = _series_x_max(spec)
    x_hi = (data_x_max if data_x_max > 0 else 1.0) * 1.05
    if not math.isfinite(x_hi):
        raise SurvmrlError(f"cannot plot: time {data_x_max!r} is too large for the x axis")
    y_lo, y_hi = _y_bounds(spec)
    if not math.isfinite(y_hi - y_lo):
        raise SurvmrlError(f"cannot plot: y range {y_lo!r} to {y_hi!r} is too wide for the y axis")
    return data_x_max, (0.0, x_hi), (y_lo, y_hi)


# Data to canvas px. Floats or arrays: an element gets the IEEE operations a float would.
def _px(x, x_range: tuple[float, float]):
    x_lo, x_hi = x_range
    return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * _PLOT_W


def _py(y, y_range: tuple[float, float]):
    y_lo, y_hi = y_range
    return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * _PLOT_H


def _m4_rows(columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A mask of M4's rows of a line: in each run of consecutive finite
    rows that share a column, the first, the last, and the first row at
    the run's lowest and at its highest value."""
    keep = np.zeros(values.size, dtype=bool)
    rows = np.flatnonzero(np.isfinite(values))
    if rows.size == 0:
        return keep
    column, value = columns[rows], values[rows]
    first = np.concatenate(([True], column[1:] != column[:-1]))
    starts, run = np.flatnonzero(first), np.cumsum(first) - 1
    picks = [starts, np.append(starts[1:] - 1, rows.size - 1)]
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(value == extreme.reduceat(value, starts)[run])
        picks.append(hits[np.concatenate(([True], run[hits[1:]] != run[hits[:-1]]))])
    keep[rows[np.concatenate(picks)]] = True
    return keep


def thin_series(series: PlotSeries, x_range: tuple[float, float], y_range: tuple[float, float]) -> PlotSeries:
    """``series`` with only the rows that change what is drawn on these axes.

    The rows kept are a subset of the series' rows, in their order. Rows
    are grouped into columns ``_COLUMN_PX`` wide by their x on the canvas.
    A line (the step curve, a grid polyline, each band edge) keeps M4's
    rows (Jugel et al., PVLDB 7(10), 2014): in each run of its finite rows
    in one column, the first, last, lowest and highest. These draw the
    same pixels as every row; for a monotone KM curve they are the first
    and last knot of the column. Censor ticks keep the first tick of each
    ``_COLUMN_PX``-square cell of the canvas, in their order, and the step
    keeps the knot each kept tick stands on, so every tick keeps its level.
    The rows that set the axes stay: the first and last row of the series,
    and the largest censor time; the extremes are M4 rows already.
    """
    def columns(x):
        return np.floor(_px(x, x_range) / _COLUMN_PX)

    def with_ends(keep):
        keep[[0, -1]] = True
        return keep

    if series.step is None:
        grid = columns(series.grid)
        keep = _m4_rows(grid, series.values)
        for edge in (series.lower, series.upper) if series.lower.size else ():
            keep |= _m4_rows(grid, edge)
        keep = with_ends(keep)
        band = {"lower": series.lower[keep], "upper": series.upper[keep]} if series.lower.size else {}
        return replace(series, grid=series.grid[keep], values=series.values[keep], **band)

    f, times = series.step, series.censor_times
    knots = _m4_rows(columns(f.knots), f.values)
    if times.size:
        # step_eval first: it rejects a time below 0 before any cell is formed.
        y = np.floor(_py(step_eval(f, times), y_range) / _COLUMN_PX)
        # A level far off the canvas (or not finite) joins the cell at the
        # clip bound; it draws nothing either way.
        y = np.clip(np.nan_to_num(y), -(2**31), 2**31 - 1).astype(np.int64)
        cells = columns(times).astype(np.int64) << 32 | y & 0xFFFFFFFF
        ticks = np.zeros(times.size, dtype=bool)
        ticks[np.unique(cells, return_index=True)[1]] = True
        ticks[np.argmax(times)] = True
        times = times[ticks]
        # The knot each kept tick stands on, so that the tick keeps its level.
        stands_on = np.searchsorted(f.knots, times, side="right") - 1
        knots[stands_on[stands_on >= 0]] = True
    if f.knots.size:
        knots = with_ends(knots)
    step = StepFunction(f.knots[knots], f.values[knots], f.initial_value)
    return replace(series, step=step, censor_times=times)


def render_plot_svg(spec: PlotSpec) -> bytes:
    """Render the spec as a standalone SVG 1.1 document (UTF-8 bytes).

    The axes come from the whole spec; each series is then thinned to the
    canvas's resolution (``thin_series``) and drawn."""
    if not spec.series:
        raise SurvmrlError("nothing to plot")

    data_x_max, x_range, y_range = _axes(spec)
    (x_lo, x_hi), (y_lo, y_hi) = x_range, y_range
    series_list = [thin_series(s, x_range, y_range) for s in spec.series]

    def px(x):
        return _px(x, x_range)

    def py(y):
        return _py(y, y_range)

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
    for s in [s for s in series_list if s.lower.size]:
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

    for index, series in enumerate(series_list):
        color = PALETTE[index % len(PALETTE)]
        if series.step is not None:
            f = series.step
            write(f'<path d="M{_fmt(px(0.0))},{_fmt(py(f.initial_value))} ')
            out.writelines(_rows(b"H%.6g V%.6g ", px(f.knots), py(f.values)))
            write(f'H{_fmt(px(data_x_max))}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
            # Each distinct tick once, in first-occurrence order: two ticks in
            # neighbouring cells can still round to one text. One dict spans
            # the blocks, and update() leaves a key where it first went in.
            # splitlines() cuts only at \n and \r, and a tick line holds
            # neither before its end.
            times = series.censor_times
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
    write(_label(center_x, _fmt(_HEIGHT - 10), 12, "middle", _text(_X_LABEL)))
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


def export_curve_csv(curve: KmCurve | MrlCurve | ComparisonCurve) -> bytes:
    """Serialize a curve as CSV, full precision, one row per grid point.

    Columns are `t,value`, plus `lower,upper` for a comparison curve with
    a band, or `component_km,component_tail` for MRL curves.
    """
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
    # Imported here: a command that writes no CSV (every `stats` run, a plot
    # written only as SVG) neither loads the writer nor builds its tables.
    from ._float_text import csv_bytes

    return csv_bytes(header, columns)
