"""Random, often malformed, survival CSVs through every plotting
subcommand, and survey CSVs through ``stats``.

Whatever the input, ``run_cli`` must return 0, 1 or 2 without raising; a
data error (exit 1) prints exactly one stderr line besides any
``warning:`` lines; a run leaves no staged ``.tmp`` file, and no
output at all unless it succeeds; and every SVG a successful run writes
is well-formed XML.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import tempfile
from pathlib import Path
from xml.dom import minidom

from hypothesis import given, settings, strategies as st

from survmrl.cli import run_cli

HEADERS = [
    "time,status,group",
    "time,status",
    "group,status,time",
    "time,status,group,extra",
    'time,status,"gr\noup"',
    "time,time,status",
    "participant,item,pre,post",
]
GOOD_TIMES = ["0", "0.5", "1", "2.5", "3", "7", "1e3", " 4 "]
BAD_TIMES = ["-1", "nan", "inf", "x", ""]
GOOD_STATUSES = ["0", "1", "1.0", " 1"]
BAD_STATUSES = ["2", "-1", "yes", ""]
LABELS = ["A", "B", "a/b", "a\0b", "a\x01b", 'q"t', "'", "line\nbreak", "c\rr", "t\tb", " ", ""]
COMMANDS = {
    "km": [],
    "mrl": ["--min-exceedances", "3"],
    "diff": ["--permutations", "9", "--seed", "1"],
    "ratio": ["--permutations", "0"],
    "mrl-diff": ["--min-exceedances", "3"],
}


def _quoted(fields) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(fields)
    return out.getvalue()


@st.composite
def survival_csvs(draw) -> str:
    """A header, then maybe 60 well-formed rows for each of two groups
    (so the fits often run, also under awkward labels), then up to 12
    drawn rows, each quoted by the csv module or joined raw, or a blank
    line. Half the inputs keep the valid header, half draw only valid
    time and status tokens, and half the drawn rows join group A or B."""
    header = draw(st.sampled_from(HEADERS)) if draw(st.booleans()) else HEADERS[0]
    bad = draw(st.booleans())
    times = GOOD_TIMES + BAD_TIMES if bad else GOOD_TIMES
    statuses = GOOD_STATUSES + BAD_STATUSES if bad else GOOD_STATUSES
    pair = draw(
        st.sampled_from([("A", "B"), ("A", "a/b"), ("a\0b", "B"), ("a\x01b", "B"), ('q"t', "line\nbreak")])
    )
    lines = [header]
    for k in range(draw(st.sampled_from([0, 3, 120]))):
        lines.append(_quoted([f"{(k * 0.618) % 7 + 0.1:.3f}", int(k % 3 != 0), pair[k % 2]]))
    labels = st.sampled_from(["A", "B"]) | st.sampled_from(LABELS)
    row = st.tuples(st.sampled_from(times), st.sampled_from(statuses), labels)
    for fields in draw(st.lists(st.none() | row, max_size=12)):
        if fields is None:
            lines.append("")
        else:
            lines.append(_quoted(fields) if draw(st.booleans()) else ",".join(fields))
    return "\n".join(lines) + "\n"


SURVEY_HEADERS = [
    "participant,item,pre,post",
    "item,post,participant,pre",
    "participant,item,pre",
    "participant,item,pre,post,extra",
    "participant,participant,pre,post",
    'participant,item,"pre\npost",post',
    "time,status,group",
]
IDS = ["p1", "p2", "p3", "", " ", "a\0b", "a\x01b", "line\nbreak", 'q"t']
ITEMS = ["i1", "i2", "", "a\x01b"]
GOOD_OUTCOMES = ["0", "1", " 1"]
BAD_OUTCOMES = ["2", "-1", "yes", "", "1.0", "0x1"]


@st.composite
def survey_csvs(draw) -> str:
    """A header, then maybe a block of well-formed rows (so the statistics
    often run), then up to 12 drawn rows that may repeat a (participant,
    item) pair, each quoted or joined raw, or a blank line. Half the inputs
    keep the valid header, half draw only valid 0/1 tokens."""
    header = draw(st.sampled_from(SURVEY_HEADERS)) if draw(st.booleans()) else SURVEY_HEADERS[0]
    outcomes = GOOD_OUTCOMES + BAD_OUTCOMES if draw(st.booleans()) else GOOD_OUTCOMES
    lines = [header]
    for k in range(draw(st.sampled_from([0, 4, 40]))):
        lines.append(_quoted([f"p{k // 4}", f"i{k % 4}", int(k % 3 == 0), int(k % 5 != 0)]))
    row = st.tuples(st.sampled_from(IDS), st.sampled_from(ITEMS), st.sampled_from(outcomes), st.sampled_from(outcomes))
    for fields in draw(st.lists(st.none() | row, max_size=12)):
        if fields is None:
            lines.append("")
        else:
            lines.append(_quoted(fields) if draw(st.booleans()) else ",".join(fields))
    return "\n".join(lines) + "\n"


def _run(argv: list[str], text: str, svg: str | None):
    """Run ``argv`` on ``text`` in a fresh directory, with a CSV output and
    maybe an SVG, and check the exit code, the messages and the files left."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "input.csv"
        source.write_bytes(text.encode("utf-8"))
        argv = [argv[0], "--input", str(source), *argv[1:], "--out-csv", str(work / "plot.csv")]
        if svg:
            argv += ["--out", str(work / svg)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli(argv)
        left = sorted(name for _, _, names in os.walk(work) for name in names)
        if code == 0 and svg:
            minidom.parse(str(work / svg))

    assert code in (0, 1, 2)
    assert not [name for name in left if name.endswith(".tmp")]
    if code != 0:
        assert left == ["input.csv"]
    if code == 1:
        err = stderr.getvalue()
        assert err.endswith("\n")
        messages = [line for line in err[:-1].split("\n") if not line.startswith("warning:")]
        assert len(messages) == 1, err
        assert stdout.getvalue() == ""


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), text=survival_csvs())
def test_cli_survives_any_survival_csv(command, text):
    _run([command, *COMMANDS[command]], text, "plot.svg")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bootstrap=st.booleans(), text=survey_csvs())
def test_stats_survives_any_survey_csv(bootstrap, text):
    _run(["stats", *(["--bootstrap", "20", "--seed", "1"] if bootstrap else [])], text, None)
