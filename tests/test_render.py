import csv
import dataclasses
import io
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import render_reference as reference
from survmrl import (
    PlotSeries,
    PlotSpec,
    StepFunction,
    SurvivalSample,
    SurvmrlError,
    export_curve_csv,
    render_plot_svg,
    fit_hybrid_mrl,
    km_fit,
    permutation_envelope,
    survival_difference,
)
from survmrl import render
from survmrl.cli import run_cli
from survmrl.render import PALETTE, _HEIGHT, _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM, _WIDTH

TAIL_TIES = Path(__file__).resolve().parent.parent / "sample_data" / "tail_ties.csv"


def make_sample(pairs):
    times, statuses = zip(*pairs)
    return SurvivalSample(times, statuses)


SAMPLE = make_sample([(2, 1), (3, 0), (4, 1), (5, 1)])
STEP = StepFunction([1.0, 6.0], [0.8, 0.4], 1.0)


def km_spec():
    curve = km_fit(SAMPLE)
    return PlotSpec(
        title="survival",
        x_label="time",
        y_label="S(t)",
        series=(PlotSeries(label="g", step=curve.survival, censor_times=curve.censor_marks),),
    )


class TestRenderSvg:
    def test_empty_series_rejected(self):
        with pytest.raises(SurvmrlError, match="nothing to plot"):
            render_plot_svg(PlotSpec(title="t", x_label="x", y_label="y", series=()))

    def test_three_knot_step_has_three_vertical_jumps(self):
        svg = render_plot_svg(km_spec()).decode()
        path = re.search(r'<path d="([^"]+)"', svg).group(1)
        assert path.count("V") == 3
        assert path.startswith("M")

    def test_byte_identical_rerun(self):
        assert render_plot_svg(km_spec()) == render_plot_svg(km_spec())

    def test_output_is_valid_xml_with_svg_root(self):
        root = ET.fromstring(render_plot_svg(km_spec()))
        assert root.tag.endswith("svg")

    def test_censor_marks_present(self):
        svg = render_plot_svg(km_spec()).decode()
        # one censor tick drawn as a short vertical line on the curve
        assert svg.count('stroke-width="1.2"') == 1

    def test_coordinates_invert_to_data_within_half_pixel(self):
        grid = (1.0, 2.0, 3.0, 4.0)
        values = (0.4, -0.2, 0.1, 0.3)
        spec = PlotSpec(
            title="diff",
            x_label="t",
            y_label="d",
            series=(PlotSeries(label="curve", grid=grid, values=values),),
            reference_line=0.0,
        )
        svg = render_plot_svg(spec).decode()
        points = re.search(r'<polyline points="([^"]+)"', svg).group(1).split()
        # recompute the affine transform exactly as the renderer defines it
        x_lo, x_hi = 0.0, 4.0 * 1.05
        spread = max(abs(v) for v in values)
        y_lo, y_hi = -1.05 * spread, 1.05 * spread
        plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        for (t, v), token in zip(zip(grid, values), points):
            x_px, y_px = (float(p) for p in token.split(","))
            t_back = x_lo + (x_px - _MARGIN_LEFT) / plot_w * (x_hi - x_lo)
            v_back = y_hi - (y_px - _MARGIN_TOP) / plot_h * (y_hi - y_lo)
            assert abs(x_px - (_MARGIN_LEFT + (t - x_lo) / (x_hi - x_lo) * plot_w)) < 0.5
            assert abs(t_back - t) * plot_w / (x_hi - x_lo) < 0.5
            assert abs(v_back - v) * plot_h / (y_hi - y_lo) < 0.5

    @pytest.mark.parametrize("values", [(-1.05, -1.0), (-3.0, -0.5, -2.0), (-1e-9, -2e-9)])
    def test_all_negative_series_stays_inside_the_frame(self, values):
        grid = tuple(float(k) for k in range(1, len(values) + 1))
        spec = PlotSpec(title="t", x_label="x", y_label="y", series=(PlotSeries("s", grid=grid, values=values),))
        svg = render_plot_svg(spec).decode()
        points = re.search(r'<polyline points="([^"]+)"', svg).group(1).split()
        assert len(points) == len(values)
        for token in points:
            x_px, y_px = (float(p) for p in token.split(","))
            assert _MARGIN_LEFT <= x_px <= _WIDTH - _MARGIN_RIGHT
            assert _MARGIN_TOP <= y_px <= _HEIGHT - _MARGIN_BOTTOM

    def test_envelope_polygon_behind_curve(self):
        a = make_sample([(float(t), 1) for t in range(1, 40)])
        b = make_sample([(float(t) + 0.5, 1) for t in range(1, 40)])
        curve = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(
            a, b, "surv_diff", n_permutations=50, seed=3, grid=curve.grid
        )
        series = PlotSeries(label="d", grid=curve.grid, values=curve.values, lower=env.lower, upper=env.upper)
        spec = PlotSpec(title="d", x_label="t", y_label="d", series=(series,), reference_line=0.0)
        svg = render_plot_svg(spec).decode()
        assert svg.index("<polygon") < svg.index("<rect x=") < svg.index("<polyline")

    def test_envelope_grid_mismatch_rejected(self):
        # an envelope on a shorter grid cannot be the band of the curve's series
        a = make_sample([(float(t), 1) for t in range(1, 40)])
        b = make_sample([(float(t) + 0.5, 1) for t in range(1, 40)])
        curve = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(
            a, b, "surv_diff", n_permutations=20, seed=3, grid=curve.grid[:-2]
        )
        with pytest.raises(ValueError, match="^a band needs one lower and one upper value per grid point$"):
            PlotSeries(label="d", grid=curve.grid, values=curve.values, lower=env.lower, upper=env.upper)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({}, "^a series needs either a step function or grid data, not both$"),
            # the grid part of such a series was never drawn, yet it set the x axis
            ({"step": STEP, "grid": [50.0], "values": [100.0]}, "^a series needs either a step function or grid data, not both$"),
            ({"grid": [1.0], "values": [0.5], "censor_times": [0.5]}, "^censor marks need a step series$"),
            ({"step": STEP, "lower": [0.0], "upper": [1.0]}, "^a band needs one lower and one upper value per grid point$"),
            ({"grid": [1.0, 2.0], "values": [0.5, 0.4], "lower": [0.0], "upper": [1.0]}, "^a band needs one"),
            ({"grid": [1.0], "values": [0.5], "lower": [0.0]}, "^lower, upper must be 1-D arrays of one length$"),
            ({"grid": [1.0, 2.0], "values": [0.5]}, "^grid, values must be 1-D arrays of one length$"),
        ],
    )
    def test_a_series_holds_exactly_one_form(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PlotSeries("a", **kwargs)

    @pytest.mark.parametrize("value, reference_line", [(1e308, 0.0), (1.75e308, None)])
    def test_overflowing_y_range_rejected(self, value, reference_line):
        spec = PlotSpec("t", "x", "y", (PlotSeries("a", grid=(1.0,), values=(value,)),), reference_line=reference_line)
        with pytest.raises(SurvmrlError, match="^cannot plot: y range .* is too wide for the y axis$"):
            render_plot_svg(spec)

    def test_survival_axis_pinned_to_unit_interval(self):
        svg = render_plot_svg(km_spec()).decode()
        assert ">1<" in svg and ">0<" in svg

    def test_title_escaped(self):
        curve = km_fit(SAMPLE)
        spec = PlotSpec(
            title="a < b & c",
            x_label="t",
            y_label="s",
            series=(PlotSeries(label="g", step=curve.survival),),
        )
        svg = render_plot_svg(spec)
        assert b"a &lt; b &amp; c" in svg
        ET.fromstring(svg)

    def test_characters_xml_forbids_are_shown_as_escapes(self):
        curve = km_fit(SAMPLE)
        spec = PlotSpec(
            title="a\x01b < c",
            x_label="t\x1f",
            y_label="s\tok",
            series=(PlotSeries(label="g\x00\ufffe", step=curve.survival),),
        )
        root = ET.fromstring(render_plot_svg(spec))
        texts = [node.text for node in root.iter() if node.tag.endswith("text")]
        assert "a\\x01b < c" in texts and "t\\x1f" in texts and "s\tok" in texts
        assert "g\\x00\\ufffe" in texts

    def test_subnormal_y_range_draws_one_tick(self):
        # the y span is 1e-323, so span / 6 underflows to 0, where log10 would raise
        spec = PlotSpec("t", "x", "y", (PlotSeries("a", grid=(1.0,), values=(5e-324,)),), reference_line=0.0)
        root = ET.fromstring(render_plot_svg(spec))
        ticks = [node.text for node in root.iter() if node.tag.endswith("text") and node.get("text-anchor") == "end"]
        assert ticks == ["-4.94066e-324"]


def censor_ticks(svg: bytes) -> list[ET.Element]:
    """The censor-tick ``<line>`` elements, in document order."""
    return [node for node in ET.fromstring(svg).iter() if node.tag.endswith("line") and node.get("stroke-width") == "1.2"]


def step_spec(*censor_lists):
    """One series per list of censor times, all on the same step function."""
    series = tuple(PlotSeries(f"g{k}", step=STEP, censor_times=times) for k, times in enumerate(censor_lists))
    return PlotSpec("km", "t", "S", series)


class TestDistinctCensorTicks:
    def test_tied_censor_times_draw_one_tick_each(self):
        ticks = censor_ticks(render_plot_svg(step_spec([2.0, 2.0, 2.0, 7.0, 7.0])))
        assert len(ticks) == 2

    def test_times_on_one_pixel_draw_one_tick(self):
        # 1e-9 apart on a 7.35-wide axis: the same x to 6 significant digits, on one step
        svg = render_plot_svg(step_spec([3.0, 3.0 + 1e-9]))
        assert len(censor_ticks(svg)) == 1

    def test_same_times_in_two_series_draw_in_each_colour(self):
        ticks = censor_ticks(render_plot_svg(step_spec([2.0, 2.0, 7.0], [7.0, 2.0])))
        colours = [node.get("stroke") for node in ticks]
        assert colours == [PALETTE[0]] * 2 + [PALETTE[1]] * 2

    def test_ticks_keep_first_occurrence_order(self):
        times = [4.0, 2.0, 4.0, 3.0, 2.0]
        ticks = censor_ticks(render_plot_svg(step_spec(times)))
        xs = [float(node.get("x1")) for node in ticks]
        assert len(xs) == 3 and xs[0] > xs[2] > xs[1]

    def test_tail_ties_km_svg_repeats_no_line(self, tmp_path):
        times = np.loadtxt(TAIL_TIES, delimiter=",", skiprows=1, usecols=(0, 1))
        censored = times[times[:, 1] == 0, 0]
        assert np.unique(censored).size < censored.size  # the input does tie censor times
        out = tmp_path / "km.svg"
        assert run_cli(["km", "--input", str(TAIL_TIES), "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines() if line.startswith("<line")]
        assert len(lines) == len(set(lines))


class TestExportCsv:
    def test_km_curve_rows_are_knots(self):
        data = export_curve_csv(km_fit(SAMPLE)).decode()
        rows = data.strip().split("\n")
        assert rows[0] == "t,value"
        assert len(rows) == 1 + 3
        assert rows[1] == "2.0,0.75"

    def test_mrl_components_sum_to_value(self):
        rng = np.random.default_rng(0)
        sample = make_sample([(float(t), 1) for t in rng.exponential(2.0, 300)])
        curve = fit_hybrid_mrl(sample)
        reader = csv.DictReader(io.StringIO(export_curve_csv(curve).decode()))
        seen = 0
        for row in reader:
            total = float(row["component_km"]) + float(row["component_tail"])
            assert float(row["value"]) == total
            seen += 1
        assert seen == len(curve.grid)

    def test_round_trip_full_precision(self):
        rng = np.random.default_rng(1)
        sample = make_sample(
            [(float(t), int(s)) for t, s in zip(rng.exponential(2, 60), rng.integers(0, 2, 60))]
        )
        curve = km_fit(sample)
        reader = csv.reader(io.StringIO(export_curve_csv(curve).decode()))
        next(reader)
        parsed = [(float(t), float(v)) for t, v in reader]
        assert np.array_equal([t for t, _ in parsed], curve.survival.knots)
        assert np.array_equal([v for _, v in parsed], curve.survival.values)

    def test_comparison_with_envelope_columns(self):
        a = make_sample([(float(t), 1) for t in range(1, 30)])
        b = make_sample([(float(t) + 0.3, 1) for t in range(1, 30)])
        curve = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(
            a, b, "surv_diff", n_permutations=30, seed=1, grid=curve.grid
        )
        data = export_curve_csv(curve, envelope=env).decode()
        header = data.split("\n", 1)[0]
        assert header == "t,value,lower,upper"

    def test_envelope_grid_mismatch_rejected(self):
        a = make_sample([(float(t), 1) for t in range(1, 30)])
        b = make_sample([(float(t) + 0.3, 1) for t in range(1, 30)])
        curve = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(
            a, b, "surv_diff", n_permutations=30, seed=1, grid=curve.grid[:-1]
        )
        with pytest.raises(SurvmrlError, match="envelope grid mismatch"):
            export_curve_csv(curve, envelope=env)

    @pytest.mark.parametrize("fit", [km_fit, fit_hybrid_mrl])
    def test_envelope_needs_a_comparison_curve(self, fit):
        # the envelope used to be dropped without a word for these curves
        a = make_sample([(float(t), 1) for t in range(1, 200)])
        b = make_sample([(float(t) + 0.3, 1) for t in range(1, 200)])
        curve, env = fit(a), permutation_envelope(a, b, "surv_diff", n_permutations=10, seed=1)
        with pytest.raises(SurvmrlError, match="^an envelope needs a comparison curve$"):
            export_curve_csv(curve, envelope=env)

    def test_empty_curve_rejected(self):
        all_censored = km_fit(make_sample([(1.0, 0), (2.0, 0)]))
        with pytest.raises(SurvmrlError, match="empty curve"):
            export_curve_csv(all_censored)

    def test_deterministic_bytes(self):
        assert export_curve_csv(km_fit(SAMPLE)) == export_curve_csv(km_fit(SAMPLE))


# Times on a 1/40 grid or anywhere in [0, 100]; levels on a 1/1000 grid or
# anywhere in [-5, 5]. Grid values and band edges also take NaN and +-inf.
times = st.integers(0, 4000).map(lambda k: k / 40.0) | st.floats(0.0, 100.0, allow_subnormal=False)
levels = st.integers(-3000, 3000).map(lambda k: k / 1000.0) | st.floats(-5.0, 5.0, allow_subnormal=False)
with_odd = levels | st.sampled_from([math.nan, math.inf, -math.inf])
# Labels that exercise each escape: the markup characters, an escape written
# out already, a CDATA end, quotes, a control character and a lone surrogate;
# and %-format directives, which must reach the SVG as they are.
labels = st.sampled_from(
    ["", "A", "a<b", "&", ">", "a&amp;b", "]]>", '"q"', "x\x01y", "\ud800", "100%", "%s", "%(a)s", "%%"]
)


@st.composite
def step_series(draw):
    knots = sorted(draw(st.sets(times, max_size=12)))
    step = StepFunction(knots, draw(st.lists(levels, min_size=len(knots), max_size=len(knots))), draw(levels))
    censor = draw(st.lists(times | st.sampled_from(knots or [0.0]), max_size=10) | st.just([]))
    return PlotSeries(draw(labels), step=step, censor_times=censor)


@st.composite
def grid_series(draw):
    """Grid values, and maybe a band whose points may be all NaN."""
    grid = sorted(draw(st.sets(times, min_size=1, max_size=12)))
    values = draw(st.lists(with_odd, min_size=len(grid), max_size=len(grid)))
    band = []
    if draw(st.booleans()):
        column = st.just((math.nan, math.nan)) | st.tuples(with_odd, with_odd)
        band = draw(st.lists(column, min_size=len(grid), max_size=len(grid)))
    lower, upper = [lo for lo, _ in band], [hi for _, hi in band]
    return PlotSeries(draw(labels), grid=grid, values=values, lower=lower, upper=upper)


@st.composite
def plot_specs(draw):
    """One to three step or grid series, any grid series maybe banded;
    maybe a reference line near the data or far outside it."""
    series = draw(st.lists(step_series() | grid_series(), min_size=1, max_size=3))
    return PlotSpec(
        title=draw(labels),
        x_label="t",
        y_label="y",
        series=tuple(series),
        reference_line=draw(st.none() | levels | st.sampled_from([50.0, -50.0])),
    )


def _outcome(render, spec):
    try:
        return render(spec)
    except Exception as exc:  # both renderers must fail alike
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(plot_specs())
def test_svg_matches_tuple_reference_bytewise(spec):
    assert _outcome(render_plot_svg, spec) == _outcome(reference.render_plot_svg, reference.as_tuples(spec))


@pytest.mark.parametrize("block_rows", [1, 3])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=plot_specs())
def test_svg_matches_tuple_reference_bytewise_in_small_blocks(block_rows, spec):
    # blocks of 1 or 3 rows: every drawn spec with a few points crosses block edges
    with mock.patch.object(render, "_BLOCK_ROWS", block_rows):
        assert _outcome(render_plot_svg, spec) == _outcome(reference.render_plot_svg, reference.as_tuples(spec))


def assert_matches_reference(spec):
    assert render_plot_svg(spec) == reference.render_plot_svg(reference.as_tuples(spec))


class TestBlockEdges:
    """Series of about one to three blocks of rows, against the reference."""

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_step_series_with_n_knots(self, n):
        knots = np.arange(1, n + 1) * 0.5
        step = StepFunction(knots, np.linspace(1.0, 0.0, n + 1)[1:], 1.0)
        # a censor tick between each pair of knots, so the tick list has n rows too
        spec = PlotSpec("km", "t", "S", (PlotSeries("g", step=step, censor_times=knots + 0.25),))
        assert_matches_reference(spec)

    def test_a_tick_repeated_two_blocks_later_keeps_its_first_place(self):
        block = render._BLOCK_ROWS
        times = np.arange(1, 2 * block + 11) * 1.0
        times[2 * block + 7] = times[5] + 1e-9  # distinct times, one pixel and one level
        step = StepFunction([0.5], [0.5], 1.0)
        spec = PlotSpec("km", "t", "S", (PlotSeries("g", step=step, censor_times=times),))
        assert len(censor_ticks(render_plot_svg(spec))) == times.size - 1
        assert_matches_reference(spec)

    def test_non_finite_values_at_block_edges(self):
        block = render._BLOCK_ROWS
        grid = np.arange(1, 2 * block + 6) * 0.1
        values = np.sin(grid)
        lower, upper = values - 0.5, values + 0.5
        for edge in (block, 2 * block):
            values[edge - 1 : edge + 2] = (math.nan, math.inf, -math.inf)
            lower[edge - 2 : edge + 1] = (-math.inf, math.nan, math.nan)
            upper[edge : edge + 3] = (math.inf, math.nan, -math.inf)
        series = PlotSeries("d", grid=grid, values=values, lower=lower, upper=upper)
        spec = PlotSpec("d", "t", "d", (series,), reference_line=0.0)
        assert_matches_reference(spec)

    def test_grid_series_with_no_finite_value(self):
        grid = np.arange(1, render._BLOCK_ROWS + 2) * 1.0
        values = np.resize([math.nan, math.inf, -math.inf], grid.size)
        spec = PlotSpec("m", "t", "m", (PlotSeries("m", grid=grid, values=values),))
        svg = render_plot_svg(spec)
        assert b"<polyline" not in svg
        assert_matches_reference(spec)


def test_reference_agrees_on_a_fitted_km_plot():
    rng = np.random.default_rng(8)
    sample = make_sample(list(zip(rng.exponential(2.0, 400).tolist(), rng.integers(0, 2, 400).tolist())))
    spec = PlotSpec(
        title="km",
        x_label="t",
        y_label="S",
        series=(PlotSeries("g", step=km_fit(sample).survival, censor_times=km_fit(sample).censor_marks),),
    )
    assert render_plot_svg(spec) == reference.render_plot_svg(reference.as_tuples(spec))


def test_curve_columns_are_read_only_float64_or_int64_arrays():
    rng = np.random.default_rng(2)
    a = make_sample(list(zip(rng.exponential(2.0, 200).tolist(), rng.integers(0, 2, 200).tolist())))
    b = make_sample(list(zip(rng.exponential(3.0, 200).tolist(), rng.integers(0, 2, 200).tolist())))
    km = km_fit(a)
    comparison = survival_difference(km, km_fit(b))
    floats, counts = np.dtype(np.float64), np.dtype(np.int64)
    cases = [
        (km.survival, {"knots": floats, "values": floats}),
        (km, {"event_times": floats, "at_risk": counts, "deaths": counts, "censor_marks": floats}),
        (
            fit_hybrid_mrl(a),
            {"grid": floats, "values": floats, "km_component": floats, "tail_component": floats},
        ),
        (comparison, {"grid": floats, "values": floats}),
        (
            permutation_envelope(a, b, "surv_diff", n_permutations=5, seed=1, grid=comparison.grid),
            {"grid": floats, "lower": floats, "upper": floats, "defined_counts": counts},
        ),
        (PlotSeries("g", step=km.survival), dict.fromkeys(["grid", "values", "censor_times", "lower", "upper"], floats)),
        (
            PlotSeries("g", grid=(1, 2), values=(3, 4), lower=(2, 3), upper=(4, 5)),
            dict.fromkeys(["grid", "values", "censor_times", "lower", "upper"], floats),
        ),
    ]
    for curve, expected in cases:
        arrays = {
            f.name: getattr(curve, f.name)
            for f in dataclasses.fields(curve)
            if isinstance(getattr(curve, f.name), np.ndarray)
        }
        assert {name: column.dtype for name, column in arrays.items()} == expected
        assert not any(column.flags.writeable for column in arrays.values())


def test_curve_columns_are_copied():
    knots = np.array([1.0, 2.0])
    f = StepFunction(knots, knots / 4, 1.0)
    knots[0] = 0.5
    assert np.array_equal(f.knots, [1.0, 2.0]) and np.array_equal(f.values, [0.25, 0.5])
    with pytest.raises(ValueError):
        f.knots[0] = 0.0


def test_the_document_is_held_once():
    # six step series, each with its own censor ticks: a buffer copied to a
    # str and then encoded held the whole document three times at its end
    knots = np.arange(1, 2001) * 0.5
    step = StepFunction(knots=knots, values=np.linspace(1.0, 0.0, 2001)[1:], initial_value=1.0)
    series = tuple(PlotSeries(str(k), step=step, censor_times=knots + 0.25 + k * 0.1) for k in range(6))
    spec = PlotSpec("t", "x", "y", series)
    tracemalloc.start()
    try:
        svg = render_plot_svg(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg == reference.render_plot_svg(reference.as_tuples(spec))
    assert peak < 2 * len(svg)
