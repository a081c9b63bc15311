"""Metamorphic relations between whole runs.

No reference implementation is needed: two runs whose inputs differ only
in a way the output must not see have to write the same bytes. Shuffling
the data rows leaves every output of ``km``, ``mrl``, ``diff``, ``ratio``,
``mrl-diff`` and ``stats --bootstrap`` unchanged, and so does adding rows
of a group that the survival commands do not select; both are checked on
bytes through ``run_cli``. The relations on values are checked through
library calls: swapping the groups negates the survival and MRL
differences exactly, and a power-of-two change of time unit rescales the
MRL curves bitwise. The drawn inputs mix tied and censored times, quoted
labels (read by the csv module rather than the quote-free split),
``\\r\\n`` line ends and blank lines.
"""

from __future__ import annotations

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from survmrl import (
    EstimationError,
    SurvivalSample,
    fit_hybrid_mrl,
    km_fit,
    load_dataset,
    mrl_difference,
    survival_difference,
)
from survmrl.cli import run_cli

SURVIVAL_COMMANDS = {
    "km": ["km", "--groups", "A,B"],
    "mrl": ["mrl", "--groups", "A,B"],
    "diff": ["diff", "--groups", "A,B", "--permutations", "100", "--seed", "3"],
    "ratio": ["ratio", "--groups", "A,B", "--permutations", "100", "--seed", "3"],
    "mrl-diff": ["mrl-diff", "--groups", "A,B", "--min-exceedances", "10"],
}
# a drawn tie can leave fewer exceedances than an MRL fit needs: the MRL
# commands must then fail alike, however the rows are ordered
MUST_SUCCEED = {"km", "diff", "ratio"}
STATS = ["stats", "--bootstrap", "200", "--seed", "5"]


def _text(header: str, rows: list[list[str]], quoted: bool, line_end: str, blank_after: set[int]) -> str:
    """The CSV text of ``rows``, every field quoted or none, with a blank
    line after each row whose index is in ``blank_after``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=line_end, quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
    lines = [header + line_end]
    for k, row in enumerate(rows):
        out.seek(0)
        out.truncate()
        writer.writerow(row)
        lines.append(out.getvalue())
        if k in blank_after:
            lines.append(line_end)
    return "".join(lines)


def _run(argv: list[str], text: str) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout and stderr (the input's path replaced by its name)
    and the bytes of every file ``argv`` writes, run on ``text`` in a fresh
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "input.csv"
        source.write_bytes(text.encode("utf-8"))
        outputs = ["--out-csv", str(work / "out.csv")]
        if argv[0] != "stats":
            outputs += ["--out", str(work / "out.svg")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli([argv[0], "--input", str(source), *argv[1:], *outputs])
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name != "input.csv"}
    return code, *(text.getvalue().replace(str(source), "input.csv") for text in (stdout, stderr)), files


def _survival_rows(seed: int, decimals: int, censored: float) -> tuple[list[list[str]], list[bool], np.ndarray]:
    """Rows of groups A and B (60-150 each) and of an unused group C, which
    rows are C's, and a shuffle of the rows. Times are rounded to
    ``decimals`` decimals, so many tie, and a share ``censored`` is censored."""
    rng = np.random.default_rng(seed)
    rows = []
    for group, mean in (("A", 2.0), ("B", 3.0), ("C", 1.0)):
        n = int(rng.integers(60, 151)) if group != "C" else int(rng.integers(1, 40))
        times = np.round(rng.exponential(mean, n), decimals) + 10.0**-decimals
        statuses = (rng.random(n) >= censored).astype(int)
        rows += [[repr(float(t)), str(s), group] for t, s in zip(times, statuses)]
    return rows, [row[2] == "C" for row in rows], rng.permutation(len(rows))


@st.composite
def survival_cases(draw):
    """``_survival_rows`` of drawn arguments and a way to write them."""
    rows, in_c, order = _survival_rows(
        draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0.0, 0.3, 0.6]))
    )
    layout = draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"]))
    blank_after = set(draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)))
    return rows, in_c, order, layout, blank_after


def _samples(case) -> dict:
    """The groups of ``case``'s rows, loaded as the CLI loads them."""
    rows, _, _, (quoted, line_end), blank_after = case
    return load_dataset(_text("time,status,group", rows, quoted, line_end, blank_after).encode("utf-8"))


# a case on which `mrl` fits both groups
MRL_FITS = (*_survival_rows(11, 2, 0.3), (True, "\r\n"), {5})


@settings(max_examples=15, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(SURVIVAL_COMMANDS)), case=survival_cases())
@example(command="mrl", case=MRL_FITS)
def test_survival_outputs_ignore_row_order_and_unused_groups(command, case):
    rows, in_c, order, (quoted, line_end), blank_after = case
    argv = SURVIVAL_COMMANDS[command]
    without_c = [row for row, c in zip(rows, in_c) if not c]
    expected = _run(argv, _text("time,status,group", without_c, quoted, line_end, blank_after))
    if command in MUST_SUCCEED:
        assert expected[0] == 0, expected[2]
    assert bool(expected[3]) == (expected[0] == 0)
    shuffled = [rows[k] for k in order]
    assert _run(argv, _text("time,status,group", shuffled, quoted, line_end, blank_after)) == expected
    shuffled_without_c = [row for row in shuffled if row[2] != "C"]
    assert _run(argv, _text("time,status,group", shuffled_without_c, quoted, line_end, blank_after)) == expected


def test_the_pinned_mrl_case_fits_both_groups():
    rows, _, _, (quoted, line_end), blank_after = MRL_FITS
    text = _text("time,status,group", rows, quoted, line_end, blank_after)
    code, _, stderr, files = _run(SURVIVAL_COMMANDS["mrl"], text)
    assert code == 0, stderr
    assert set(files) == {"out.A.csv", "out.B.csv", "out.svg"}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(case=survival_cases())
def test_swapping_the_groups_negates_the_differences(case):
    # a - b and -(b - a) are the same float, but for the sign of a zero
    samples = _samples(case)
    km_a, km_b = km_fit(samples["A"]), km_fit(samples["B"])
    forward, backward = survival_difference(km_a, km_b), survival_difference(km_b, km_a)
    assert np.array_equal(backward.grid, forward.grid)
    assert np.array_equal(backward.values, -forward.values)
    try:
        mrl_a, mrl_b = fit_hybrid_mrl(samples["A"]), fit_hybrid_mrl(samples["B"])
    except EstimationError:
        return
    forward, backward = mrl_difference(mrl_a, mrl_b), mrl_difference(mrl_b, mrl_a)
    assert np.array_equal(backward.grid, forward.grid)
    assert np.array_equal(backward.values, -forward.values)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(case=survival_cases(), k=st.sampled_from([-3, 5]))
def test_a_power_of_two_time_unit_rescales_the_mrl_curves_bitwise(case, k):
    for group, sample in sorted(_samples(case).items()):
        scaled = SurvivalSample(np.ldexp(sample.times, k), sample.statuses)
        try:
            curve = fit_hybrid_mrl(sample)
        except EstimationError:
            with pytest.raises(EstimationError):
                fit_hybrid_mrl(scaled)
            continue
        got = fit_hybrid_mrl(scaled)
        assert (got.threshold, got.gpd.shape) == (np.ldexp(curve.threshold, k), curve.gpd.shape), group
        for name in ("grid", "values", "km_component", "tail_component"):
            assert np.array_equal(getattr(got, name), np.ldexp(getattr(curve, name), k)), (group, name)


@st.composite
def survey_cases(draw):
    """A survey of 2-40 participants and 1-6 items with some pairs left
    unanswered, its rows in file order and shuffled, and a way to write them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_participants, n_items = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    answered = rng.random((n_participants, n_items)) < draw(st.sampled_from([0.7, 1.0]))
    answered[:, 0] = True
    # participant 0 gains on every item, so each survey has a discordant
    # pair and a nonzero difference
    rows = [
        [f"p {k:02d}", f"item {j}", str(int(k and rng.random() < 0.4)), str(int(not k or rng.random() < 0.7))]
        for k in range(n_participants)
        for j in range(n_items)
        if answered[k, j]
    ]
    layout = draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"]))
    blank_after = set(draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)))
    return rows, rng.permutation(len(rows)), layout, blank_after


@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=survey_cases())
def test_stats_output_ignores_row_order(case):
    rows, order, (quoted, line_end), blank_after = case
    header = "participant,item,pre,post"
    expected = _run(STATS, _text(header, rows, quoted, line_end, blank_after))
    assert expected[0] == 0, expected[2]
    shuffled = [rows[k] for k in order]
    assert _run(STATS, _text(header, shuffled, quoted, line_end, blank_after)) == expected
