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
from hypothesis import example, given, settings, strategies as st

import render_reference as reference
from survmrl import (
    ComparisonCurve,
    PlotSeries,
    PlotSpec,
    StepFunction,
    SurvivalSample,
    SurvmrlError,
    export_curve_csv,
    render_plot_svg,
    fit_hybrid_mrl,
    km_fit,
    load_dataset,
    permutation_envelope,
    survival_difference,
)
from survmrl import _float_text, render
from survmrl.cli import run_cli
from survmrl.km import step_eval
from survmrl.render import PALETTE, _HEIGHT, _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM, _WIDTH

TAIL_TIES = Path(__file__).resolve().parent.parent / "sample_data" / "tail_ties.csv"
RATIO_ZERO = TAIL_TIES.with_name("ratio_zero.csv")


def make_sample(pairs):
    times, statuses = zip(*pairs)
    return SurvivalSample(times, statuses)


SAMPLE = make_sample([(2, 1), (3, 0), (4, 1), (5, 1)])
STEP = StepFunction([1.0, 6.0], [0.8, 0.4], 1.0)


def km_spec():
    curve = km_fit(SAMPLE)
    return PlotSpec(
        title="survival",
        y_label="S(t)",
        series=(PlotSeries(label="g", step=curve.survival, censor_times=curve.censor_marks),),
    )


class TestRenderSvg:
    def test_empty_series_rejected(self):
        with pytest.raises(SurvmrlError, match="nothing to plot"):
            render_plot_svg(PlotSpec(title="t", y_label="y", series=()))

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
        spec = PlotSpec(title="t", y_label="y", series=(PlotSeries("s", grid=grid, values=values),))
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
        env = permutation_envelope(a, b, "surv_diff", n_permutations=50, seed=3, curve=curve)
        series = PlotSeries(label="d", grid=curve.grid, values=curve.values, lower=env.lower, upper=env.upper)
        spec = PlotSpec(title="d", y_label="d", series=(series,), reference_line=0.0)
        svg = render_plot_svg(spec).decode()
        assert svg.index("<polygon") < svg.index("<rect x=") < svg.index("<polyline")

    def test_envelope_grid_mismatch_rejected(self):
        # an envelope on a shorter grid cannot be the band of the curve's series
        a = make_sample([(float(t), 1) for t in range(1, 40)])
        b = make_sample([(float(t) + 0.5, 1) for t in range(1, 40)])
        curve = survival_difference(km_fit(a), km_fit(b))
        shorter = ComparisonCurve(grid=curve.grid[:-2], values=curve.values[:-2])
        env = permutation_envelope(a, b, "surv_diff", n_permutations=20, seed=3, curve=shorter)
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
            # a descending grid drew its first point at x = 3109.62 on the 720-px canvas
            ({"grid": [5.0, 1.0], "values": [0.5, 0.2]}, "^a grid must be finite and strictly increasing$"),
            ({"grid": [1.0, 1.0], "values": [0.5, 0.2]}, "^a grid must be finite and strictly increasing$"),
            ({"grid": [1.0, math.inf], "values": [0.5, 0.2]}, "^a grid must be finite and strictly increasing$"),
            ({"grid": [math.nan], "values": [0.5]}, "^a grid must be finite and strictly increasing$"),
        ],
    )
    def test_a_series_holds_exactly_one_form(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PlotSeries("a", **kwargs)

    @pytest.mark.parametrize("value, reference_line", [(1e308, 0.0), (1.75e308, None)])
    def test_overflowing_y_range_rejected(self, value, reference_line):
        spec = PlotSpec("t", "y", (PlotSeries("a", grid=(1.0,), values=(value,)),), reference_line=reference_line)
        with pytest.raises(SurvmrlError, match="^cannot plot: y range .* is too wide for the y axis$"):
            render_plot_svg(spec)

    def test_survival_axis_pinned_to_unit_interval(self):
        svg = render_plot_svg(km_spec()).decode()
        assert ">1<" in svg and ">0<" in svg

    def test_title_escaped(self):
        curve = km_fit(SAMPLE)
        spec = PlotSpec(
            title="a < b & c",
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
            y_label="s\tok\x1f",
            series=(PlotSeries(label="g\x00\ufffe", step=curve.survival),),
        )
        root = ET.fromstring(render_plot_svg(spec))
        texts = [node.text for node in root.iter() if node.tag.endswith("text")]
        assert "a\\x01b < c" in texts and "s\tok\\x1f" in texts
        assert "g\\x00\\ufffe" in texts

    def test_subnormal_y_range_draws_one_tick(self):
        # the y span is 1e-323, so span / 6 underflows to 0, where log10 would raise
        spec = PlotSpec("t", "y", (PlotSeries("a", grid=(1.0,), values=(5e-324,)),), reference_line=0.0)
        root = ET.fromstring(render_plot_svg(spec))
        ticks = [node.text for node in root.iter() if node.tag.endswith("text") and node.get("text-anchor") == "end"]
        assert ticks == ["-4.94066e-324"]

    def test_a_range_a_few_ulps_wide_draws_one_tick(self):
        # the tick step, 0.5, is below half an ulp of 1e16 (2.0), so t + step
        # == t: without its break the tick loop never ends
        assert render._nice_ticks(1e16, 1e16 + 2.0) == [1e16]


def censor_ticks(svg: bytes) -> list[ET.Element]:
    """The censor-tick ``<line>`` elements, in document order."""
    return [node for node in ET.fromstring(svg).iter() if node.tag.endswith("line") and node.get("stroke-width") == "1.2"]


def step_spec(*censor_lists):
    """One series per list of censor times, all on the same step function."""
    series = tuple(PlotSeries(f"g{k}", step=STEP, censor_times=times) for k, times in enumerate(censor_lists))
    return PlotSpec("km", "S", series)


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
        # every field of each CSV parses back to the same double, bit for bit; NaN to NaN
        curves = csv_curves()
        assert np.isnan(curves["ratio"][0].lower).any()
        for curve, columns in curves.values():
            reader = csv.reader(io.StringIO(export_curve_csv(curve).decode()))
            next(reader)
            parsed = np.array([[float(field) for field in row] for row in reader])
            assert parsed.shape == (columns[0].size, len(columns))
            for field, column in zip(parsed.T, columns):
                nan = np.isnan(column)
                assert np.array_equal(np.isnan(field), nan)
                assert np.array_equal(field[~nan].view(np.uint64), column[~nan].view(np.uint64))

    def test_comparison_with_envelope_columns(self):
        a = make_sample([(float(t), 1) for t in range(1, 30)])
        b = make_sample([(float(t) + 0.3, 1) for t in range(1, 30)])
        curve = survival_difference(km_fit(a), km_fit(b))
        banded = permutation_envelope(a, b, "surv_diff", n_permutations=30, seed=1, curve=curve)
        data = export_curve_csv(banded).decode()
        header = data.split("\n", 1)[0]
        assert header == "t,value,lower,upper"

    def test_envelope_grid_mismatch_rejected(self):
        # a comparison curve holds its band, so a band of the wrong length is refused when it is attached
        a = make_sample([(float(t), 1) for t in range(1, 30)])
        b = make_sample([(float(t) + 0.3, 1) for t in range(1, 30)])
        curve = survival_difference(km_fit(a), km_fit(b))
        shorter = ComparisonCurve(grid=curve.grid[:-1], values=curve.values[:-1])
        env = permutation_envelope(a, b, "surv_diff", n_permutations=30, seed=1, curve=shorter)
        with pytest.raises(ValueError, match="^a band needs one lower and one upper value per grid point$"):
            dataclasses.replace(curve, lower=env.lower, upper=env.upper)

    def test_empty_curve_rejected(self):
        all_censored = km_fit(make_sample([(1.0, 0), (2.0, 0)]))
        with pytest.raises(SurvmrlError, match="empty curve"):
            export_curve_csv(all_censored)

    def test_deterministic_bytes(self):
        assert export_curve_csv(km_fit(SAMPLE)) == export_curve_csv(km_fit(SAMPLE))


def csv_curves():
    """A KM curve, an MRL curve, and a difference and a ratio curve with
    their envelopes as bands, each with the columns its CSV writes."""
    rng = np.random.default_rng(1)
    km = km_fit(make_sample([(float(t), int(s)) for t, s in zip(rng.exponential(2, 60), rng.integers(0, 2, 60))]))
    mrl = fit_hybrid_mrl(make_sample([(float(t), 1) for t in np.random.default_rng(0).exponential(2.0, 300)]))
    ties = load_dataset(TAIL_TIES)
    diff = survival_difference(km_fit(ties["A"]), km_fit(ties["B"]))
    diff = permutation_envelope(ties["A"], ties["B"], "surv_diff", n_permutations=50, seed=1, curve=diff)
    # On a grid past both groups' follow-up every permuted denominator
    # reaches zero, so the ratio band is NaN from t = 6, as is the ratio.
    zero = load_dataset(RATIO_ZERO)
    grid = np.arange(1.0, 10.0)
    s_a, s_b = (step_eval(km_fit(zero[g]).survival, grid) for g in "AB")
    ratio = ComparisonCurve(grid, np.divide(s_a, s_b, out=np.full_like(s_a, np.nan), where=s_b != 0.0))
    ratio = permutation_envelope(zero["A"], zero["B"], "surv_ratio", n_permutations=300, seed=2, curve=ratio)
    return {
        "km": (km, (km.survival.knots, km.survival.values)),
        "mrl": (mrl, (mrl.grid, mrl.values, mrl.km_component, mrl.tail_component)),
        "diff": (diff, (diff.grid, diff.values, diff.lower, diff.upper)),
        "ratio": (ratio, (ratio.grid, ratio.values, ratio.lower, ratio.upper)),
    }


def csv_outcome(export, curve):
    try:
        return export(curve)
    except Exception as exc:  # both writers must fail alike
        return type(exc), str(exc)


@st.composite
def float_curves(draw):
    """A comparison curve of one to 40 rows, maybe with a band: a grid of
    distinct finite floats in ascending order (-0.0, subnormals, the largest
    doubles), and columns of any floats (NaN and +-inf too)."""
    n = draw(st.integers(1, 40))
    # unique: 0.0 == -0.0, so a grid holds at most one of them
    grid = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n, unique=True)))
    column = st.lists(st.floats(), min_size=n, max_size=n)
    if not draw(st.booleans()):
        return ComparisonCurve(grid, draw(column))
    return ComparisonCurve(grid, draw(column), draw(column), draw(column))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(float_curves())
@example(ComparisonCurve([-1e16, -0.0, 5e-324, 1e-4, 1e14, 1e16], [math.nan, math.inf, -math.inf, 0.0, 0.1, 1e308]))
@example(ComparisonCurve([12345678901231.25, 9.999999999999999e13], [1e-05, 0.5]))
def test_csv_matches_repr_reference(curve):
    assert csv_outcome(export_curve_csv, curve) == csv_outcome(reference.export_curve_csv, curve)


def bulk_values(rng, m=100_000):
    """About 1.3 million doubles over the classes the CSV writer treats
    apart, both signs. Random bit patterns (NaN, inf, subnormals and the
    exponent form); magnitudes log-uniform over all doubles and over the
    fixed-notation range; decimals of one to eight digits and their
    neighbouring doubles; decimals of 15 and 16 digits; integers; values
    with 14 integer digits, whose 17-digit rounding is often an exact tie;
    and powers of two."""
    sign = lambda size: rng.choice([-1.0, 1.0], size)
    decimal = lambda digits, lo, hi: np.array(
        [float(f"{d}e{e}") for d, e in zip(digits.tolist(), rng.integers(lo, hi, len(digits)).tolist())]
    )
    short = decimal(rng.integers(1, 10 ** rng.integers(1, 9, m)), -12, 12)
    return np.concatenate(
        [
            rng.integers(0, 2**64, 4 * m, dtype=np.uint64).view(np.float64),
            sign(m) * 10.0 ** rng.uniform(-320, 308, m),
            sign(2 * m) * 10.0 ** rng.uniform(-4, 14, 2 * m),
            short * sign(m),
            np.nextafter(short, np.inf),
            np.nextafter(short, -np.inf),
            decimal(rng.integers(10**14, 10**15, m // 2), -19, 0) * sign(m // 2),
            decimal(rng.integers(10**15, 10**16, m // 2), -20, -1) * sign(m // 2),
            rng.integers(-(10**15), 10**15, m // 2).astype(np.float64),
            rng.integers(-10000, 10000, m // 2).astype(np.float64),
            -rng.uniform(1e13, 1e14, m // 2),
            np.ldexp(sign(m // 2), rng.integers(-40, 60, m // 2)),
            np.ldexp([[1.0], [-1.0]], np.arange(-13, 47)).ravel(),  # every power of two in [1e-4, 1e14)
        ]
    )


def exact_ties(rng, m=200_000):
    """``(values, k)``: doubles v = ±M * 2**-p in [1e-4, 1e14), M odd, whose
    decimal M * 5**p / 10**p has 18 significant digits ending in 5, so
    T = |v| * 10**k, k = p - 1, is an exact tie of its 17-digit rounding.
    Integers of 10 to 14 digits plus a fraction j / 2**p, and the same
    values scaled down by powers of two, are of this form."""
    p = rng.integers(4, 22, m)
    lo, hi = -(-(10**17) // 5**p), (10**18 - 1) // 5**p  # M * 5**p has 18 digits
    odd = rng.integers(lo // 2, (hi - 1) // 2 + 1) * 2 + 1
    assert (odd * 5**p % 10 == 5).all() and (odd >= lo).all() and (odd <= hi).all() and (odd < 2**53).all()
    return np.ldexp(odd.astype(np.float64), -p) * rng.choice([-1.0, 1.0], m), p - 1


def test_csv_matches_repr_reference_in_bulk():
    rng = np.random.default_rng(28)
    values = bulk_values(rng)
    assert values.size >= 1_000_000
    # every class that goes through repr one value at a time occurs: non-finite,
    # exponent form and near-ties; so do significands that are a power of two,
    # whose rounding interval is lopsided
    finite = np.isfinite(values)
    magnitude = np.abs(values)
    fixed = finite & (magnitude >= 1e-4) & (magnitude < 1e14)
    _, _, ok = _float_text._shortest_digits(values)
    assert (~finite).sum() >= 100
    assert (finite & (magnitude > 0.0) & ~fixed).sum() >= 100
    assert (fixed & ~ok).sum() >= 100
    assert (fixed & ((values.view(np.uint64) & np.uint64(2**52 - 1)) == 0)).sum() >= 100
    # every value in the value and band columns; the grid a sorted draw of the distinct finite ones
    rows = values.size // 3
    grid = np.sort(rng.choice(np.unique(values[finite]), rows, replace=False))
    curve = ComparisonCurve(grid, values[:rows], values[rows : 2 * rows], values[2 * rows : 3 * rows])
    assert export_curve_csv(curve) == reference.export_curve_csv(curve)

    # Exact ties: the writer's n is T rounded half-even, as repr's last
    # digit is, so none of them goes to repr, not even the quarter or so
    # written with 17 digits, where no shorter decimal reads back.
    ties, k = exact_ties(rng)
    assert np.all(np.abs(_float_text._scaled(np.abs(ties), k)[1]) == 0.5)
    assert _float_text._shortest_digits(ties)[2].all()
    grid = np.unique(ties[: ties.size // 2])
    curve = ComparisonCurve(grid, ties[ties.size // 2 :][: grid.size])
    with mock.patch.object(_float_text, "repr", create=True, side_effect=AssertionError("repr called")):
        data = export_curve_csv(curve)
    assert data == reference.export_curve_csv(curve)
    digits = [len(text.replace("-", "").replace(".", "").strip("0")) for text in map(repr, ties.tolist())]
    assert digits.count(17) >= 50_000


BLOCK = _float_text._BLOCK_ROWS


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
def test_csv_block_edges(n):
    # a value for repr (1e300, NaN, inf, 2**-1074) at and next to each block
    # edge of the value and band columns; an ascending grid can hold one only
    # at its ends, so its first and last rows are -1e300 and 1e300
    rng = np.random.default_rng(n)
    columns = [rng.exponential(1.0, n) * rng.choice([-1.0, 1.0], n) for _ in range(3)]
    edges = np.arange(0, n + 1, BLOCK)
    for j, special in enumerate([1e300, math.nan, math.inf, 5e-324]):
        columns[j % 3][np.clip(np.concatenate([edges - 1, edges]) + j, 0, n - 1)] = special
    grid = np.arange(n) + rng.uniform(0.0, 1.0, n)
    grid[0], grid[-1] = -1e300, 1e300
    curve = ComparisonCurve(grid, *columns)
    data = export_curve_csv(curve)
    assert data.count(b"\n") == n + 1
    assert data == reference.export_curve_csv(curve)


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
        y_label="y",
        series=tuple(series),
        reference_line=draw(st.none() | levels | st.sampled_from([50.0, -50.0])),
    )


def thinned(spec):
    """``spec`` with each series thinned on the axes of the whole spec, as
    ``render_plot_svg`` draws it."""
    _, x_range, y_range = render._axes(spec)
    return dataclasses.replace(spec, series=tuple(render.thin_series(s, x_range, y_range) for s in spec.series))


def reference_svg(spec):
    """The reference's rendering of the thinned spec. The reference finds
    the axes from the thinned rows alone, so this also checks that
    thinning keeps every row that sets an axis."""
    return reference.render_plot_svg(reference.as_tuples(thinned(spec)))


def _outcome(render, spec):
    try:
        return render(spec)
    except Exception as exc:  # both renderers must fail alike
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(plot_specs())
def test_svg_matches_tuple_reference_bytewise(spec):
    assert _outcome(render_plot_svg, spec) == _outcome(reference_svg, spec)


@pytest.mark.parametrize("block_rows", [1, 3])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=plot_specs())
def test_svg_matches_tuple_reference_bytewise_in_small_blocks(block_rows, spec):
    # blocks of 1 or 3 rows: every drawn spec with a few points crosses block edges
    with mock.patch.object(render, "_BLOCK_ROWS", block_rows):
        assert _outcome(render_plot_svg, spec) == _outcome(reference_svg, spec)


def assert_matches_reference(spec):
    assert render_plot_svg(spec) == reference_svg(spec)


class TestBlockEdges:
    """Series of about one to three blocks of rows, against the reference."""

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_step_series_with_n_knots(self, n):
        knots = np.arange(1, n + 1) * 0.5
        step = StepFunction(knots, np.linspace(1.0, 0.0, n + 1)[1:], 1.0)
        # a censor tick between each pair of knots, so the tick list has n rows too
        spec = PlotSpec("km", "S", (PlotSeries("g", step=step, censor_times=knots + 0.25),))
        assert_matches_reference(spec)
        kept = thinned(spec).series[0]
        if n > render._BLOCK_ROWS:
            assert min(kept.step.knots.size, kept.censor_times.size) > render._BLOCK_ROWS
        else:  # knots and ticks at least 0.59 px apart: each is kept
            assert kept.step.knots.size == kept.censor_times.size == n

    def test_a_tick_repeated_two_blocks_later_keeps_its_first_place(self):
        # Two ticks either side of a cell edge: thinning keeps both, and
        # their lines round to one text, which is drawn once, in the first
        # place. A plot holds too few cells for two blocks of 1024 ticks
        # on one level, so the blocks are 64 rows here.
        block = 64
        times = np.arange(1, 2 * block + 11) * 1.0
        x_range = (0.0, 1.05 * times.max())
        edge = math.floor(render._px(times[5], x_range) / render._COLUMN_PX) * render._COLUMN_PX
        t_edge = (edge - _MARGIN_LEFT) / render._PLOT_W * x_range[1]
        times[5], times[2 * block + 7] = t_edge + 1e-9, t_edge - 1e-9
        first, later = render._px(times[[5, 2 * block + 7]], x_range)
        assert first // render._COLUMN_PX != later // render._COLUMN_PX and render._fmt(first) == render._fmt(later)
        step = StepFunction([0.5], [0.5], 1.0)
        spec = PlotSpec("km", "S", (PlotSeries("g", step=step, censor_times=times),))
        with mock.patch.object(render, "_BLOCK_ROWS", block):
            ticks = censor_ticks(render_plot_svg(spec))
            assert len(ticks) == times.size - 1 and float(ticks[5].get("x1")) == float(render._fmt(first))
            assert_matches_reference(spec)
            assert thinned(spec).series[0].censor_times.size == times.size > 2 * block

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
        spec = PlotSpec("d", "d", (series,), reference_line=0.0)
        assert_matches_reference(spec)
        assert thinned(spec).series[0].grid.size > 2 * block

    def test_grid_series_with_no_finite_value(self):
        grid = np.arange(1, render._BLOCK_ROWS + 2) * 1.0
        values = np.resize([math.nan, math.inf, -math.inf], grid.size)
        spec = PlotSpec("m", "m", (PlotSeries("m", grid=grid, values=values),))
        svg = render_plot_svg(spec)
        assert b"<polyline" not in svg
        assert_matches_reference(spec)
        # A row with no finite value draws nothing, so thinning keeps only
        # the two end rows, which set the x axis; no thinned row is left to
        # cross a block, and the whole spec draws the same document.
        assert np.array_equal(thinned(spec).series[0].grid, grid[[0, -1]])
        assert svg == reference.render_plot_svg(reference.as_tuples(spec))


def test_reference_agrees_on_a_fitted_km_plot():
    rng = np.random.default_rng(8)
    sample = make_sample(list(zip(rng.exponential(2.0, 400).tolist(), rng.integers(0, 2, 400).tolist())))
    spec = PlotSpec(
        title="km",
        y_label="S",
        series=(PlotSeries("g", step=km_fit(sample).survival, censor_times=km_fit(sample).censor_marks),),
    )
    assert render_plot_svg(spec) == reference_svg(spec)


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
        (comparison, {"grid": floats, "values": floats, "lower": floats, "upper": floats, "defined_counts": counts}),
        (
            permutation_envelope(a, b, "surv_diff", n_permutations=5, seed=1, curve=comparison),
            {"grid": floats, "values": floats, "lower": floats, "upper": floats, "defined_counts": counts},
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
    spec = PlotSpec("t", "y", series)
    tracemalloc.start()
    try:
        svg = render_plot_svg(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg == reference_svg(spec)
    assert peak < 2 * len(svg)


# Thinning. Dense times put up to 60 rows in a 0.15-wide cluster, under
# 5 columns of 0.5 px (the axis is at least 42 wide); a sparse time may
# stretch the axis. Step levels need not be monotone here.
cluster = st.integers(0, 600).map(lambda k: 40.0 + k / 4000.0)
dense_levels = st.integers(-3000, 3000).map(lambda k: k / 1000.0)


def dense_knots(draw):
    n = draw(st.integers(1, 60))
    knots = sorted(draw(st.lists(cluster, min_size=n, max_size=n, unique=True)))
    return knots + draw(st.lists(st.integers(41, 100).map(float), max_size=1))


@st.composite
def dense_step_series(draw):
    knots = dense_knots(draw)
    step = StepFunction(knots, draw(st.lists(dense_levels, min_size=len(knots), max_size=len(knots))), draw(dense_levels))
    n = draw(st.integers(0, 60))
    censor = draw(st.lists(cluster | st.sampled_from(knots), min_size=n, max_size=n))
    # maybe two late ticks in one cell, the later one setting the x axis
    censor += draw(st.lists(st.sampled_from([100.0, 100.0001]), max_size=2))
    return PlotSeries("s", step=step, censor_times=censor)


@st.composite
def dense_grid_series(draw):
    grid = dense_knots(draw)
    column = st.lists(dense_levels | st.sampled_from([math.nan, math.inf, -math.inf]), min_size=len(grid), max_size=len(grid))
    lower, upper = draw(st.one_of(st.just(([], [])), st.tuples(column, column)))
    return PlotSeries("g", grid=grid, values=draw(column), lower=lower, upper=upper)


@st.composite
def dense_specs(draw):
    series = draw(st.lists(dense_step_series() | dense_grid_series(), min_size=1, max_size=3))
    return PlotSpec("t", "y", tuple(series), reference_line=draw(st.none() | dense_levels))


def drawable(spec):
    """The spec, if its axes can be drawn."""
    try:
        render._axes(spec)
    except SurvmrlError:
        return None
    return spec


def drawn_lines(series, spec):
    """Each line the series draws, as canvas (x, y) vertex arrays in path order."""
    x_max, x_range, y_range = render._axes(spec)
    px, py = (lambda x: render._px(x, x_range)), (lambda y: render._py(y, y_range))
    if series.step is not None:
        f = series.step
        # M(0, initial) H knot V value ... H x_max, as vertices
        x = np.concatenate(([0.0], np.repeat(f.knots, 2), [x_max]))
        return [(px(x), py(np.repeat(np.append(f.initial_value, f.values), 2)))]
    lines = []
    for column in (series.values, series.lower, series.upper):
        shown = np.isfinite(column)
        if shown.any():
            lines.append((px(series.grid[shown]), py(column[shown])))
    return lines


def column_runs(x, y):
    """Each run of consecutive vertices in one column: the column, the
    first and last vertex, and the lowest and highest y."""
    column = np.floor(x / render._COLUMN_PX)
    starts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    ends = np.append(starts[1:], column.size)
    return [(column[a], x[a], y[a], x[b - 1], y[b - 1], y[a:b].min(), y[a:b].max()) for a, b in zip(starts, ends)]


def rows(series):
    """The series' rows, each as the bytes of its floats (NaN equals NaN)."""
    if series.step is not None:
        table = np.column_stack((series.step.knots, series.step.values))
    else:
        table = np.column_stack([c for c in (series.grid, series.values, series.lower, series.upper) if c.size])
    return [row.tobytes() for row in table]


def is_subsequence(part, whole):
    remaining = iter(whole)
    return all(item in remaining for item in part)


class TestThinning:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(plot_specs(), dense_specs()).map(drawable).filter(bool))
    # the largest censor time is the second tick of its cell
    @example(PlotSpec("t", "y", (PlotSeries("s", step=STEP, censor_times=[2.0, 100.0, 100.0001]),)))
    def test_the_thinned_spec_has_the_same_axes(self, spec):
        small = thinned(spec)
        assert render._series_x_max(small) == render._series_x_max(spec)
        assert render._y_bounds(small) == render._y_bounds(spec)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dense_specs().map(drawable).filter(bool))
    def test_each_column_keeps_its_vertical_extent(self, spec):
        # Runs of vertices in one column match one for one, with the same
        # first and last vertex (so every segment between columns is drawn
        # as before) and the same lowest and highest point.
        for full, small in zip(spec.series, thinned(spec).series):
            for (x, y), (x_kept, y_kept) in zip(drawn_lines(full, spec), drawn_lines(small, spec), strict=True):
                assert column_runs(x_kept, y_kept) == column_runs(x, y)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dense_specs().map(drawable).filter(bool))
    def test_kept_rows_are_original_rows_in_order(self, spec):
        for full, small in zip(spec.series, thinned(spec).series):
            assert is_subsequence(rows(small), rows(full))
            assert is_subsequence(small.censor_times.tolist(), full.censor_times.tolist())
            if full.step is not None:
                assert set(small.step.values.tolist()) <= set(full.step.values.tolist())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dense_specs().map(drawable).filter(bool))
    def test_ticks_keep_the_first_of_each_cell_and_the_last_time(self, spec):
        _, x_range, y_range = render._axes(spec)

        def cells(series):
            x = render._px(series.censor_times, x_range)
            y = render._py(step_eval(series.step, series.censor_times), y_range)
            return [(math.floor(a / render._COLUMN_PX), math.floor(b / render._COLUMN_PX)) for a, b in zip(x, y)]

        for full, small in zip(spec.series, thinned(spec).series):
            if full.step is None or not full.censor_times.size:
                continue
            # each kept tick stands where it stood on the whole curve
            levels = step_eval(small.step, small.censor_times)
            assert np.array_equal(levels, step_eval(full.step, small.censor_times))
            first = list(dict.fromkeys(cells(full)))
            assert list(dict.fromkeys(cells(small))) == first
            assert small.censor_times.size <= len(first) + 1
            assert small.censor_times.max() == full.censor_times.max()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dense_specs().map(drawable).filter(bool))
    def test_thinning_twice_changes_nothing(self, spec):
        once = thinned(spec)
        assert thinned(once) == once

    def test_a_monotone_step_keeps_the_first_and_last_knot_of_each_column(self):
        # 1000 knots on about 220 columns: a tick at 100 sets the x axis
        knots = np.linspace(1.0, 10.0, 1000)
        step = StepFunction(knots, np.linspace(1.0, 0.0, 1001)[1:], 1.0)
        spec = PlotSpec("km", "S", (PlotSeries("g", step=step, censor_times=[100.0]),))
        kept = thinned(spec).series[0].step.knots
        columns = np.floor(render._px(knots, render._axes(spec)[1]) / render._COLUMN_PX)
        first = np.concatenate(([True], columns[1:] != columns[:-1]))
        last = np.append(first[1:], True)
        assert np.array_equal(kept, knots[first | last])


def km_plot(n, seed):
    """A two-group KM spec on n seeded exponential rows per group, about 1/3 censored, and its curves."""
    rng = np.random.default_rng(seed)
    curves = []
    for mean in (1.0, 1.5):
        event, censor = rng.exponential(mean, n), rng.exponential(2 * mean, n)
        curves.append(km_fit(SurvivalSample(np.minimum(event, censor), (event <= censor).astype(np.int64))))
    series = tuple(PlotSeries(g, step=c.survival, censor_times=c.censor_marks) for g, c in zip("AB", curves))
    return PlotSpec("km", "S", series), curves


def test_km_svg_size_stays_bounded_as_the_rows_grow():
    small, _ = km_plot(10_000, seed=26)
    large, curves = km_plot(100_000, seed=27)
    assert len(render_plot_svg(large)) <= 1.5 * len(render_plot_svg(small))
    for curve in curves:
        # the CSV keeps every knot
        assert export_curve_csv(curve).count(b"\n") == 1 + curve.survival.knots.size > 50_000
