import codecs
import csv
import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dataset_reference as reference

from survmrl import (
    ParseError,
    SchemaError,
    SurvivalSample,
    dataset,
    load_dataset,
    load_paired_survey,
)


def test_header_only_is_empty_dataset():
    with pytest.raises(SchemaError, match="empty dataset"):
        load_dataset(b"time,status,group\n")


def test_empty_file_is_empty_dataset():
    with pytest.raises(SchemaError, match="empty dataset"):
        load_dataset(b"")


def test_negative_time_names_row_1():
    with pytest.raises(ParseError, match="row 1"):
        load_dataset(b"time,status,group\n-1,1,A\n")


def test_four_row_sample_parses_sorted():
    samples = load_dataset(b"time,status,group\n2,1,A\n3,0,A\n4,1,A\n5,1,A\n")
    assert set(samples) == {"A"}
    sample = samples["A"]
    assert sample.n == 4
    assert sample.times[-1] == 5.0
    assert sample.times.tolist() == [2.0, 3.0, 4.0, 5.0]


def test_bad_status_names_row():
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(b"time,status,group\n1,1,A\n2,7,A\n")


def test_non_numeric_time_names_row():
    with pytest.raises(ParseError, match="row 3"):
        load_dataset(b"time,status,group\n1,1,A\n2,0,A\nx,1,A\n")


def test_nan_time_rejected():
    with pytest.raises(ParseError, match="row 1"):
        load_dataset(b"time,status\nnan,1\n")


def test_missing_required_column_is_schema_error():
    with pytest.raises(SchemaError, match="missing required column"):
        load_dataset(b"time,group\n1,A\n")


def test_unknown_column_is_schema_error():
    with pytest.raises(SchemaError, match="unknown column"):
        load_dataset(b"time,status,flavor\n1,1,x\n")


def test_header_names_in_messages_are_quoted():
    with pytest.raises(SchemaError) as info:
        load_dataset(b'time,status,"gr\noup"\n1,1,a\n')
    assert str(info.value) == "unknown column(s): 'gr\\noup'"


def test_bare_carriage_returns_end_lines():
    samples = load_dataset(b"time,status,group\r1,1,A\r2,0,A\r")
    assert samples["A"].times.tolist() == [1.0, 2.0]
    with pytest.raises(ParseError, match="row 2: expected 3 fields, got 1"):
        load_dataset(b"time,status,group\n1,1,a\rb\n")


def test_rows_the_csv_module_cannot_split_are_errors():
    huge = b"x" * 200_000  # beyond the csv module's field size limit
    with pytest.raises(ParseError, match="row 2: malformed CSV"):
        load_dataset(b"time,status,group\n1,1,A\n2,0," + huge + b"\n")
    with pytest.raises(SchemaError, match="malformed CSV header"):
        load_dataset(b"time,status," + huge + b"\n1,1,A\n")


@pytest.mark.parametrize("later_row", [b"2,0," + b"x" * 200_000, b"2,0", b"2,0,A,extra"])
def test_a_bad_value_before_a_split_error_wins(later_row):
    # the rows before the split error reach the loader first, from the same chunk
    with pytest.raises(ParseError) as info:
        load_dataset(b"time,status,group\n1,1,A\nx,1,A\n3,0,A\n" + later_row + b"\n")
    assert str(info.value) == "row 2: time is not numeric: 'x'"


@pytest.mark.parametrize(
    "bad_row, message",
    [
        (b"x,1,A", "row 9000: time is not numeric: 'x'"),
        (b"1,2,A", "row 9000: status must be 0 or 1, got '2'"),
        (b"1,1, ", "row 9000: group label is empty"),
        (b"1,1", "row 9000: expected 3 fields, got 2"),
    ],
)
def test_row_errors_past_the_first_chunks(bad_row, message):
    rows = [b"%d,%d,%s" % (k, k % 2, b"AB"[k % 2 : k % 2 + 1]) for k in range(1, 10_001)]
    rows[8999] = bad_row
    with pytest.raises(ParseError) as info:
        load_dataset(b"time,status,group\n" + b"\n".join(rows) + b"\n")
    assert str(info.value) == message


@pytest.mark.parametrize("line_end", ["\r\n", "\r", "\n"])
@pytest.mark.parametrize("pad", range(10))
def test_line_ends_and_characters_across_decode_blocks(monkeypatch, line_end, pad):
    # rows of 8 or 9 bytes after a pad row put every byte of a row, of its
    # 3-byte label and of its line end on the 8192-byte boundary of the
    # text stream's decode blocks for some pad, when a quote sends the
    # input through the csv module; quote-free input is cut into blocks of
    # whole lines, here 64 bytes or more
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 64)
    for quote in ("", '"'):
        text = line_end.join(["time,status,group", f"2,0,{quote}x{'x' * pad}{quote}", *["1,1,組"] * 1000, ""])
        samples = load_dataset(text.encode())
        assert samples == reference.load_dataset(text.encode()) and samples["組"].n == 1000
        with pytest.raises(ParseError) as info:
            load_dataset((text + "1,1," + line_end).encode())
        assert str(info.value) == "row 1002: group label is empty"


def test_group_column_optional_defaults_to_all():
    samples = load_dataset(b"time,status\n1,1\n2,0\n")
    assert set(samples) == {"all"}


def test_blank_lines_ignored():
    samples = load_dataset(b"time,status,group\n\n1,1,A\n\n2,0,A\n\n")
    assert samples["A"].n == 2


def test_empty_group_label_is_row_error():
    with pytest.raises(ParseError, match="row 2"):
        load_dataset(b"time,status,group\n1,1,A\n2,0,\n")


def test_row_numbers_count_blank_lines():
    with pytest.raises(ParseError, match="^row 4: time must be finite"):
        load_dataset(b"time,status,group\n1,1,A\n\n\n-2,1,A\n")


def test_bad_field_count_is_row_error():
    with pytest.raises(ParseError, match="row 1"):
        load_dataset(b"time,status,group\n1,1\n")


@pytest.mark.parametrize(
    "row, message",
    [
        (b"1_5,1,A", "row 2: time is not numeric: '1_5'"),
        (b"2,0_1,A", "row 2: status is not numeric: '0_1'"),
        (b"1_000.5,1,A", "row 2: time is not numeric: '1_000.5'"),
        ("１５,1,A".encode(), "row 2: time is not numeric: '１５'"),
        ("٣,١,A".encode(), "row 2: time is not numeric: '٣'"),
        ("3,١,A".encode(), "row 2: status is not numeric: '١'"),
    ],
)
def test_digit_separators_are_row_errors(row, message):
    # float() alone would read "1_5" as 15.0 and "0_1" as 1.0, and the
    # non-ASCII digits of fullwidth "１５" as 15.0 and Arabic-Indic "٣,١" as 3.0, 1
    with pytest.raises(ParseError) as info:
        load_dataset(b"time,status,group\n1,1,A\n" + row + b"\n")
    assert str(info.value) == message


def test_underscores_in_group_labels_stay_allowed():
    assert set(load_dataset(b"time,status,group\n1,1,arm_1\n")) == {"arm_1"}


def test_non_ascii_group_labels_stay_allowed():
    samples = load_dataset("time,status,group\n1,1,Gruppe Ä\n2,0,组\n".encode("utf-8"))
    assert set(samples) == {"Gruppe Ä", "组"}
    assert samples["组"].times.tolist() == [2.0]


def test_non_utf8_is_schema_error():
    with pytest.raises(SchemaError, match="UTF-8"):
        load_dataset(b"time,status\n\xff\xfe,1\n")


def test_tie_order_events_before_censorings():
    samples = load_dataset(b"time,status,group\n2,0,A\n2,1,A\n1,1,A\n")
    assert samples["A"].times.tolist() == [1.0, 2.0, 2.0]
    assert samples["A"].statuses.tolist() == [1, 1, 0]


def test_sample_invariants():
    for bad_time in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            SurvivalSample([1.0, bad_time], [1, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        SurvivalSample([1.0], [2])
    with pytest.raises(ValueError, match="equal length"):
        SurvivalSample([1.0, 2.0], [1])


def test_sample_columns_are_sorted_read_only_copies():
    times = np.array([3.0, 1.0, 1.0])
    statuses = np.array([1, 0, 1])
    sample = SurvivalSample(times, statuses)
    assert sample.times.tolist() == [1.0, 1.0, 3.0]
    assert sample.statuses.tolist() == [1, 0, 1]
    assert sample.times.dtype == np.float64 and sample.statuses.dtype == np.int64
    times[0] = 0.0
    assert sample.times[-1] == 3.0
    with pytest.raises(ValueError):
        sample.times[0] = 2.0
    assert sample == SurvivalSample([1.0, 3.0, 1.0], [0, 1, 1])
    assert sample != SurvivalSample([1.0, 1.0, 3.0], [1, 1, 1])


def test_sample_requires_observations():
    with pytest.raises(ValueError, match="at least one observation"):
        SurvivalSample((), ())


# Both zeros, the smallest subnormal, the smallest normal and the largest double.
EDGE_TIMES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


@st.composite
def sample_inputs(draw) -> tuple[np.ndarray, np.ndarray]:
    """Times from a small pool, the edge times and a few drawn from all
    doubles >= 0, so most times are tied, with statuses of mixed dtype."""
    pool = EDGE_TIMES + draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=4))
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    statuses = draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times)))
    return np.array(times), np.array(statuses, dtype=draw(st.sampled_from([np.int8, np.int64, np.float64, bool])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sample_inputs())
def test_sample_sort_matches_the_lexsort_reference(columns):
    sample = SurvivalSample(*columns)
    times, statuses = reference.sample_columns(*columns)
    assert sample.times.dtype == times.dtype and sample.times.tobytes() == times.tobytes()
    assert sample.statuses.dtype == statuses.dtype and sample.statuses.tobytes() == statuses.tobytes()


@pytest.mark.parametrize(
    "texts, values",
    [
        (["0", "1", "1", "0"], [0, 1, 1, 0]),
        (["1"], [1]),
        (["", "11"], None),  # as many bytes as rows when joined without a separator
        (["11", ""], None),
        (["0,1", "", ""], None),  # a quoted field may hold the separator
        (["0", "1", " 1"], None),
        (["1.0", "0"], None),
        (["1", "2"], None),
        (["/", "0"], None),
        (["１"], None),
    ],
)
def test_zero_one_column_reads_only_single_digit_texts(texts, values):
    column = dataset.zero_one_column(texts)
    if values is None:
        assert column is None
    else:
        assert column.dtype == np.int8 and column.tolist() == values


def test_label_codes_give_an_empty_text_minus_one_and_cache_it():
    table = dataset.LabelTable()
    assert dataset.label_codes(["B", " ", "A", "", "B"], table).tolist() == [0, -1, 1, -1, 0]
    # the codes of later chunks continue from the labels, not the texts, so far
    assert dataset.label_codes(["\tA", "C", " ", "A "], table).tolist() == [1, 2, -1, 1]
    assert table == {"B": 0, " ": -1, "A": 1, "": -1, "\tA": 1, "C": 2, "A ": 1}
    assert table.labels == {"B": 0, "A": 1, "C": 2}


def test_label_codes_code_a_new_text_after_an_empty_one_in_the_same_call():
    table = dataset.LabelTable()
    assert dataset.label_codes(["A", "", "  ", "B", " A", "", "C"], table).tolist() == [0, -1, -1, 1, 0, -1, 2]
    assert table.labels == {"A": 0, "B": 1, "C": 2}
    # an empty text first seen in a chunk that also codes new labels
    assert dataset.label_codes([" \t", "D", "B"], table).tolist() == [-1, 3, 1]
    assert table == {"A": 0, "": -1, "  ": -1, "B": 1, " A": 0, "C": 2, " \t": -1, "D": 3}


def test_label_codes_strip_each_distinct_text_once():
    class Text(str):
        strips = 0

        def strip(self):
            Text.strips += 1
            return str.strip(self)

    texts = [Text(t) for t in ["a", " a", "a", "", " a", ""]]
    table = dataset.LabelTable()
    assert dataset.label_codes(texts, table).tolist() == [0, 0, 0, -1, 0, -1]
    assert Text.strips == 3


@pytest.mark.parametrize("quote", ["", '"'])
def test_an_empty_status_is_an_error_when_the_texts_join_to_one_byte_a_row(quote):
    with pytest.raises(ParseError) as info:
        load_dataset(f"time,status\n1,{quote}{quote}\n2,{quote}11{quote}\n".encode())
    assert str(info.value) == "row 1: status is not numeric: ''"


def test_mixed_status_spellings_give_the_row_rules_columns():
    text = b"time,status\n4,1\n3,0\n2,1.0\n1, 1\n2,0\n"
    samples = load_dataset(text)
    assert samples == reference.load_dataset(text)
    assert samples["all"].times.tolist() == [1.0, 2.0, 2.0, 3.0, 4.0]
    assert samples["all"].statuses.tolist() == [1, 1, 0, 0, 1]


def test_an_empty_outcome_is_a_survey_error_when_the_texts_join_to_one_byte_a_row():
    with pytest.raises(ParseError) as info:
        load_paired_survey(b"participant,item,pre,post\np1,i1,,0\np2,i1,11,1\n")
    assert str(info.value) == "row 1: pre must be 0 or 1, got ''"


rows = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["A", "B", "C"]),
    ),
    min_size=1,
    max_size=60,
)


@settings(deadline=None, derandomize=True)
@given(rows)
def test_partition_preserves_row_count(data):
    text = "time,status,group\n" + "".join(f"{t!r},{s},{g}\n" for t, s, g in data)
    samples = load_dataset(text.encode())
    assert sum(sample.n for sample in samples.values()) == len(data)


@settings(deadline=None, derandomize=True)
@given(rows)
def test_samples_sorted_with_events_first_at_ties(data):
    text = "time,status,group\n" + "".join(f"{t!r},{s},{g}\n" for t, s, g in data)
    for sample in load_dataset(text.encode()).values():
        pairs = list(zip(sample.times.tolist(), sample.statuses.tolist()))
        for (t_a, s_a), (t_b, s_b) in zip(pairs, pairs[1:]):
            assert t_a <= t_b
            if t_a == t_b:
                assert s_a >= s_b
        assert sample.times[-1] == pairs[-1][0]


# Row values the loader reads as they are, values it reads after stripping
# (float() itself rejects the \x1c-\x1f and non-ASCII padding), and values
# that are row errors.
GOOD_TIMES = ["0", "1", "2.5", "0.0001", "1e3", "+2", ".5", "-0", "7", "12.25", "1e-400"]
PADDED_TIMES = [" 3 ", "\x1c4\x1f", "\t5", "5\u2003", "\xa06"]
BAD_TIMES = ["inf", "nan", "-inf", "1e400", "-1", "1_5", "１５", "٣", "", "x", "1 5"]
GOOD_STATUSES = ["0", "1"]
PADDED_STATUSES = [" 1", "1.0", "0.0", "\x1d0", "-0", "1e0", "0\u2003"]
BAD_STATUSES = ["2", "0.5", "nan", "1_0", "١", "", "inf", "x"]
GOOD_GROUPS = ["A", "B", "grp_1", "組", "a,b", 'q"t', "line\nbreak", "C\r\nD"]
QUOTE_FREE_GROUPS = ["A", "B", "grp_1", "組", "n\x00l"]  # a NUL makes the input an error
PADDED_GROUPS = [" A", "A ", "\x1eB", "\tB\u2003"]
BAD_GROUPS = ["", " ", "\x1f"]
HEADERS = [["time", "status", "group"]] * 6 + [["status", "group", "time"], ["time", "status"]]
FIELD_LIMIT = 40  # csv.field_size_limit during the test, so a split error costs a short field
LINE_ENDS = ["\n", "\r\n", "\r"]
BLOCK_BYTES = [1, 7, 16, 64]  # dataset._BLOCK_BYTES during the test: most blocks hold a line or two


@st.composite
def survival_csvs(draw, quoted: bool) -> bytes:
    """A header, then rows with the odd blank line. One input in six has
    padded values, one in six bad values, one in six a row of the wrong
    width, one in six a field too long for the csv module (after a bad
    value, at times).

    Quoted inputs are written by the csv module, with mixed line ends and
    labels it must quote, some of them multi-line. Quote-free inputs join
    each row's fields with commas and have more blank lines; one in two
    ends every line with a newline, the other mixes line ends, and one in
    four lacks the final line end."""
    header = draw(st.sampled_from(HEADERS))
    flaw = draw(st.sampled_from(["none", "none", "padded", "value", "width", "split"]))
    padded, bad = flaw == "padded", flaw in ("value", "split")
    groups = GOOD_GROUPS if quoted else QUOTE_FREE_GROUPS
    fields = {
        "time": st.sampled_from(GOOD_TIMES * 4 + PADDED_TIMES * 4 * padded + BAD_TIMES * bad),
        "status": st.sampled_from(GOOD_STATUSES * 12 + PADDED_STATUSES * 2 * padded + BAD_STATUSES * bad),
        "group": st.sampled_from(groups * 3 + PADDED_GROUPS * 3 * padded + BAD_GROUPS * bad),
    }
    rows = draw(st.lists(st.tuples(*(fields[name] for name in header)).map(list), min_size=1, max_size=30))
    if rows and flaw == "width":
        row = draw(st.sampled_from(rows))
        row[:] = row[: draw(st.integers(0, len(row) - 1))] if draw(st.booleans()) else row + ["1"]
    if rows and flaw == "split":
        draw(st.sampled_from(rows))[-1] = "y" * (FIELD_LIMIT + 1)
    line_ends = LINE_ENDS if quoted else draw(st.sampled_from([["\n"], LINE_ENDS]))
    out = io.StringIO()
    out.write(",".join(header) + draw(st.sampled_from(line_ends)))
    for row in rows:
        line_end = draw(st.sampled_from(line_ends))
        if quoted:
            csv.writer(out, lineterminator=line_end).writerow(row)
        else:
            out.write(",".join(row) + line_end)
        if draw(st.integers(0, 10 if quoted else 4)) == 0:
            out.write(draw(st.sampled_from(line_ends)))
    text = out.getvalue()
    if not quoted and draw(st.integers(0, 3)) == 0:
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


# Both arms: quoted input takes the csv module's path, quote-free input the split path.
SURVIVAL_CSVS = st.one_of(survival_csvs(quoted=True), survival_csvs(quoted=False))


def _loaded(load, text):
    try:
        samples = load(text)
    except Exception as exc:  # both loaders must fail alike
        return type(exc), str(exc)
    return [(label, s.times.dtype, s.times.tobytes(), s.statuses.dtype, s.statuses.tobytes())
            for label, s in samples.items()]


@settings(
    max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=SURVIVAL_CSVS, block_bytes=st.sampled_from(BLOCK_BYTES))
def test_loader_matches_the_per_row_reference(monkeypatch, text, block_bytes):
    # blocks of a few bytes, so the drawn rows cross block and chunk boundaries
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", block_bytes)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        assert _loaded(load_dataset, text) == _loaded(reference.load_dataset, text)
    finally:
        csv.field_size_limit(limit)


def _numbered_rows(text, chunked):
    out = []
    try:
        header, rows = (dataset if chunked else reference).read_csv(text)
        out.append(header)
        for item in rows:
            if chunked:
                numbers, columns = item
                assert len(columns) == len(header) and all(len(column) == len(numbers) for column in columns)
                out += zip(numbers, map(list, zip(*columns)))
            else:
                out.append(tuple(item))
    except Exception as exc:  # both readers must fail alike, after the same rows
        out.append((type(exc), str(exc)))
    return out


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=SURVIVAL_CSVS, block_bytes=st.sampled_from(BLOCK_BYTES))
def test_reader_matches_the_per_row_reference(monkeypatch, text, block_bytes):
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", block_bytes)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        assert _numbered_rows(text, chunked=True) == _numbered_rows(text, chunked=False)
    finally:
        csv.field_size_limit(limit)


# Lines that csv does not split as str.split does, and a last line with no
# line end; each goes at the first and at the last line of a block.
EDGE_LINES = {
    "blank": "\n",
    "bare-cr": "3,1,B\r4,0,A\n",
    "crlf": "3,1,B\r\n",
    "nul": "3,1,n\x00l\n",
    "quoted-multi-line": '3,1,"B\nC"\n',
    "too-long": "3,1," + "y" * (FIELD_LIMIT + 1) + "\n",
    "wrong-width": "3,1\n",
    "no-final-newline": "3,1,B",
}


@pytest.mark.parametrize("edge", ["first", "last"])
@pytest.mark.parametrize("line", EDGE_LINES.values(), ids=EDGE_LINES)
def test_lines_csv_reads_apart_at_block_edges(monkeypatch, line, edge):
    head = "1,1,A\n2,0,B\n" * 3
    tail = "5,1,A\n6,0,B\n" * 6 if line.endswith("\n") else ""  # so a block follows the edge line's
    # a block ends at the first line end at or past _BLOCK_BYTES - 1 bytes into it
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", len((head + line * (edge == "last")).encode()))
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        text = "time,status,group\n" + head + line + tail
        for text in (text, text + "x,1,A\n") if tail else (text,):  # and with a row error past the edge
            assert _numbered_rows(text.encode(), chunked=True) == _numbered_rows(text.encode(), chunked=False)
            assert _loaded(load_dataset, text.encode()) == _loaded(reference.load_dataset, text.encode())
            if "\0" in line:
                assert _loaded(load_dataset, text.encode()) == (SchemaError, "input holds a NUL byte")
    finally:
        csv.field_size_limit(limit)


def test_quote_free_rows_skip_the_csv_row_loop(monkeypatch):
    def row_loop(*args):
        raise AssertionError("the csv.reader row loop ran")

    monkeypatch.setattr(dataset, "_reader_chunks", row_loop)
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 8)
    samples = load_dataset("time,status,group\n1,1,A\n2,0,組\n3,1,A\n".encode())
    assert samples["A"].times.tolist() == [1.0, 3.0] and samples["組"].n == 1


@pytest.mark.parametrize(
    "rows, ruled",
    [
        (["1,1,B", "\u20032,1, A", "3,0,A\t"], [2]),
        (["1,1,A", "2,0, B", "\u20033,1,B\t", "4,0,B"], [3]),
    ],
    ids=["row-rules-first", "whole-columns-first"],
)
def test_labels_keep_their_codes_between_the_row_rules_and_the_whole_columns(monkeypatch, rows, ruled):
    # one row per chunk; the whole-column checks reject a time led by
    # U+2003, which the row rules strip, so its chunk is a false alarm whose
    # stripped label must share a code with the group's padded texts
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 1)
    row_numbers = []
    row_rules = dataset._survival_row

    def spy(row_number, *texts):
        row_numbers.append(row_number)
        return row_rules(row_number, *texts)

    monkeypatch.setattr(dataset, "_survival_row", spy)
    text = ("time,status,group\n" + "".join(row + "\n" for row in rows)).encode()
    assert _loaded(load_dataset, text) == _loaded(reference.load_dataset, text)
    assert row_numbers == ruled


def _spy_on_row_loop(monkeypatch) -> list[int]:
    """The line offset of each ``_reader_chunks`` call from now on."""
    offsets = []
    row_loop = dataset._reader_chunks

    def spy(reader, offset, width):
        offsets.append(offset)
        return row_loop(reader, offset, width)

    monkeypatch.setattr(dataset, "_reader_chunks", spy)
    return offsets


@pytest.mark.parametrize("line_end", LINE_ENDS, ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "header", ["{0}{0}time,status,group{0}", '"time{0}",status,group{0}'], ids=["blank-lines", "quoted-name"]
)
def test_data_starts_below_the_header(monkeypatch, header, line_end):
    # the rows fill several blocks, each split while the data starts at a line
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 64)
    offsets = _spy_on_row_loop(monkeypatch)
    rows = "".join(f"{k},{k % 2},{'AB'[k % 3 % 2]}\n" for k in range(1, 60))
    text = (header.format(line_end) + rows).encode()
    assert _numbered_rows(text, chunked=True) == _numbered_rows(text, chunked=False)
    assert _loaded(load_dataset, text) == _loaded(reference.load_dataset, text)
    assert offsets == []


def test_the_csv_row_loop_starts_at_the_first_block_with_a_quote(monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 64)
    offsets = _spy_on_row_loop(monkeypatch)
    rows = [f"{k:03d},1,A\n" for k in range(1, 41)]  # 8 bytes each, so blocks of 8 lines
    rows[35] = '036,1,"B"\n'  # in the last block, lines 33 to 40
    text = ("time,status,group\n" + "".join(rows)).encode()
    assert _numbered_rows(text, chunked=True) == _numbered_rows(text, chunked=False)
    assert offsets == [32]


@pytest.mark.parametrize("label", [b"A", b'"A"'])
def test_a_leading_byte_order_mark_is_ignored(label):
    # "CSV UTF-8" files saved by spreadsheets start with EF BB BF
    text = b"time,status,group\n1,1," + label + b"\n2,0,A\n"
    assert load_dataset(codecs.BOM_UTF8 + text) == load_dataset(text)
    with pytest.raises(SchemaError) as info:  # past the start, the mark is text
        load_dataset(b"\n" + codecs.BOM_UTF8 + text)
    assert str(info.value) == "unknown column(s): '\\ufefftime'"


def _collections(load, text) -> tuple[int, ...]:
    """The cyclic garbage collections of each generation that ``load(text)`` runs."""
    gc.collect()
    before = [stats["collections"] for stats in gc.get_stats()]
    load(text)
    return tuple(stats["collections"] - b for stats, b in zip(gc.get_stats(), before))


def test_quote_free_loads_build_no_list_per_row():
    # a list or tuple per row would run a generation-0 collection every
    # 700 rows, and a full one now and then
    survival = "time,status,group\n" + "".join(
        f"{k * 0.0137:.4f},{k % 3 % 2},{'AB'[k % 2]}\n" for k in range(100_000)
    )
    survey = "participant,item,pre,post\n" + "".join(
        f"p{p:04d},i{i},{(p + i) % 2},{p * i % 2}\n" for p in range(2000) for i in range(8)
    )
    for load, text in ((load_dataset, survival.encode()), (load_paired_survey, survey.encode())):
        gen0, _, gen2 = _collections(load, text)
        assert gen0 <= 3 and gen2 == 0


def _peak_bytes(load, text) -> int:
    """The most memory that ``load(text)`` holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        load(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("line_end", ["\r", "\r\n"])
def test_carriage_return_input_streams_through_one_csv_reader(monkeypatch, line_end):
    # the first block holds a carriage return, so one csv.reader reads the
    # rest from a text stream, not from the input decoded whole
    offsets = _spy_on_row_loop(monkeypatch)
    rows = "".join(f"{k * 0.0137:.4f},{k % 3 % 2},{'AB'[k % 2]}\n" for k in range(30_000))
    newline = ("time,status,group\n" + rows).encode()
    other = newline.replace(b"\n", line_end.encode())
    assert load_dataset(other) == load_dataset(newline)
    assert offsets == [0]
    assert _peak_bytes(load_dataset, other) < 1.25 * _peak_bytes(load_dataset, newline)
