import csv
import io
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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
from survmrl.render import _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM


def make_sample(pairs):
    times, statuses = zip(*pairs)
    return SurvivalSample(times, statuses)


SAMPLE = make_sample([(2, 1), (3, 0), (4, 1), (5, 1)])


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
        plot_w = spec.width - _MARGIN_LEFT - _MARGIN_RIGHT
        plot_h = spec.height - _MARGIN_TOP - _MARGIN_BOTTOM
        for (t, v), token in zip(zip(grid, values), points):
            x_px, y_px = (float(p) for p in token.split(","))
            t_back = x_lo + (x_px - _MARGIN_LEFT) / plot_w * (x_hi - x_lo)
            v_back = y_hi - (y_px - _MARGIN_TOP) / plot_h * (y_hi - y_lo)
            assert abs(x_px - (_MARGIN_LEFT + (t - x_lo) / (x_hi - x_lo) * plot_w)) < 0.5
            assert abs(t_back - t) * plot_w / (x_hi - x_lo) < 0.5
            assert abs(v_back - v) * plot_h / (y_hi - y_lo) < 0.5

    def test_envelope_polygon_behind_curve(self):
        a = make_sample([(float(t), 1) for t in range(1, 40)])
        b = make_sample([(float(t) + 0.5, 1) for t in range(1, 40)])
        curve = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(
            a, b, "surv_diff", n_permutations=50, seed=3, grid=curve.grid
        )
        spec = PlotSpec(
            title="d",
            x_label="t",
            y_label="d",
            series=(PlotSeries(label="d", grid=curve.grid, values=curve.values),),
            envelope=env,
            reference_line=0.0,
        )
        svg = render_plot_svg(spec).decode()
        assert svg.index("<polygon") < svg.index("<polyline")

    def test_envelope_grid_mismatch_rejected(self):
        a = make_sample([(float(t), 1) for t in range(1, 40)])
        b = make_sample([(float(t) + 0.5, 1) for t in range(1, 40)])
        curve = survival_difference(km_fit(a), km_fit(b))
        env = permutation_envelope(
            a, b, "surv_diff", n_permutations=20, seed=3, grid=curve.grid[:-2]
        )
        spec = PlotSpec(
            title="d",
            x_label="t",
            y_label="d",
            series=(PlotSeries(label="d", grid=curve.grid, values=curve.values),),
            envelope=env,
        )
        with pytest.raises(SurvmrlError, match="envelope grid mismatch"):
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
        assert tuple(t for t, _ in parsed) == curve.survival.knots
        assert tuple(v for _, v in parsed) == curve.survival.values

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

    def test_empty_curve_rejected(self):
        flat = StepFunction(knots=(), values=(), initial_value=1.0)
        with pytest.raises(SurvmrlError, match="empty curve"):
            export_curve_csv(flat)

    def test_deterministic_bytes(self):
        assert export_curve_csv(km_fit(SAMPLE)) == export_curve_csv(km_fit(SAMPLE))
