import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from survmrl import (
    ParseError,
    SchemaError,
    SurvivalSample,
    dump_dataset,
    load_dataset,
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
    assert sample.max_time == 5.0
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


def test_non_utf8_is_schema_error():
    with pytest.raises(SchemaError, match="UTF-8"):
        load_dataset(b"time,status\n\xff\xfe,1\n")


def test_custom_column_names():
    samples = load_dataset(
        b"t,dead,arm\n5,1,X\n", time_col="t", status_col="dead", group_col="arm"
    )
    assert samples["X"].times[0] == 5.0


def test_tie_order_events_before_censorings():
    samples = load_dataset(b"time,status,group\n2,0,A\n2,1,A\n1,1,A\n")
    assert samples["A"].times.tolist() == [1.0, 2.0, 2.0]
    assert samples["A"].statuses.tolist() == [1, 1, 0]


def test_round_trip_identity():
    raw = b"time,status,group\n2.5,1,A\n3,0,A\n0.125,1,B\n7,1,B\n"
    first = load_dataset(raw)
    second = load_dataset(dump_dataset(first))
    assert first == second


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
    assert sample.max_time == 3.0
    with pytest.raises(ValueError):
        sample.times[0] = 2.0
    assert sample == SurvivalSample([1.0, 3.0, 1.0], [0, 1, 1])
    assert sample != SurvivalSample([1.0, 1.0, 3.0], [1, 1, 1])


def test_sample_requires_observations():
    with pytest.raises(ValueError, match="at least one observation"):
        SurvivalSample((), ())


rows = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["A", "B", "C"]),
    ),
    min_size=1,
    max_size=60,
)


@given(rows)
def test_partition_preserves_row_count(data):
    text = "time,status,group\n" + "".join(f"{t!r},{s},{g}\n" for t, s, g in data)
    samples = load_dataset(text.encode())
    assert sum(sample.n for sample in samples.values()) == len(data)


@given(rows)
def test_samples_sorted_with_events_first_at_ties(data):
    text = "time,status,group\n" + "".join(f"{t!r},{s},{g}\n" for t, s, g in data)
    for sample in load_dataset(text.encode()).values():
        pairs = list(zip(sample.times.tolist(), sample.statuses.tolist()))
        for (t_a, s_a), (t_b, s_b) in zip(pairs, pairs[1:]):
            assert t_a <= t_b
            if t_a == t_b:
                assert s_a >= s_b
        assert sample.max_time == pairs[-1][0]


@given(rows)
def test_round_trip_property(data):
    text = "time,status,group\n" + "".join(f"{t!r},{s},{g}\n" for t, s, g in data)
    first = load_dataset(text.encode())
    assert load_dataset(dump_dataset(first)) == first


def test_load_from_text_stream():
    samples = load_dataset(io.StringIO("time,status\n1,1\n"))
    assert samples["all"].n == 1
