"""Metamorphic relations between whole runs, checked on bytes through ``run_cli``.

No reference implementation is needed: two runs whose inputs differ only
in a way the output must not see have to write the same bytes. Shuffling
the data rows leaves every output of ``km``, ``diff``, ``mrl-diff`` and
``stats --bootstrap`` unchanged, and so does adding rows of a group that
the survival commands do not select. The drawn inputs mix tied and
censored times, quoted labels (read by the csv module rather than the
quote-free split), ``\\r\\n`` line ends and blank lines.
"""

from __future__ import annotations

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from survmrl.cli import run_cli

SURVIVAL_COMMANDS = {
    "km": ["km", "--groups", "A,B"],
    "diff": ["diff", "--groups", "A,B", "--permutations", "100", "--seed", "3"],
    "mrl-diff": ["mrl-diff", "--groups", "A,B", "--min-exceedances", "10"],
}
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


@st.composite
def survival_cases(draw):
    """Rows of groups A and B (60-150 each), rows of an unused group C,
    a shuffle of the rows and a way to write them. Times are rounded to 0-2
    decimals, so many tie, and a drawn share is censored."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.sampled_from([0, 1, 2]))
    censored = draw(st.sampled_from([0.0, 0.3, 0.6]))
    rows = []
    for group, mean in (("A", 2.0), ("B", 3.0), ("C", 1.0)):
        n = int(rng.integers(60, 151)) if group != "C" else int(rng.integers(1, 40))
        times = np.round(rng.exponential(mean, n), decimals) + 10.0**-decimals
        statuses = (rng.random(n) >= censored).astype(int)
        rows += [[repr(float(t)), str(s), group] for t, s in zip(times, statuses)]
    in_c = [row[2] == "C" for row in rows]
    layout = draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n"]))
    blank_after = set(draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)))
    return rows, in_c, rng.permutation(len(rows)), layout, blank_after


@settings(max_examples=12, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(SURVIVAL_COMMANDS)), case=survival_cases())
def test_survival_outputs_ignore_row_order_and_unused_groups(command, case):
    rows, in_c, order, (quoted, line_end), blank_after = case
    argv = SURVIVAL_COMMANDS[command]
    without_c = [row for row, c in zip(rows, in_c) if not c]
    expected = _run(argv, _text("time,status,group", without_c, quoted, line_end, blank_after))
    assert expected[0] == 0, expected[2]
    assert expected[3]
    shuffled = [rows[k] for k in order]
    assert _run(argv, _text("time,status,group", shuffled, quoted, line_end, blank_after)) == expected
    shuffled_without_c = [row for row in shuffled if row[2] != "C"]
    assert _run(argv, _text("time,status,group", shuffled_without_c, quoted, line_end, blank_after)) == expected


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
