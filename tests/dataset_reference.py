"""The per-row CSV reader and survival loader as they were before the
columnar decode, kept as a reference for ``survmrl.dataset``.

``read_csv`` decodes the whole input into one string, reads it through
``io.StringIO`` and yields one numbered row at a time; ``load_dataset``
parses, checks and appends each row's time and status to per-group
lists before building the samples. ``sample_columns`` is
``SurvivalSample``'s sort as it was before the packed-key sort.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from survmrl.dataset import DEFAULT_GROUP, SurvivalSample
from survmrl.errors import ParseError, SchemaError


def _decode(source) -> str:
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not valid UTF-8: {exc}") from None
    if "\0" in text:
        raise SchemaError("input holds a NUL byte")
    return text


def sample_columns(times, statuses) -> tuple[np.ndarray, np.ndarray]:
    """The sorted times and statuses (int64) of a sample: one lexsort by
    time, events first at ties, then a gather of each column."""
    times = np.asarray(times, dtype=float) + 0.0
    statuses = np.asarray(statuses).astype(np.int64)
    order = np.lexsort((-statuses, times))
    return times[order], statuses[order]


def read_csv(source):
    reader = csv.reader(io.StringIO(_decode(source), newline=""))
    try:
        header = next((row for row in reader if row), None)
    except csv.Error as exc:
        raise SchemaError(f"malformed CSV header: {exc}") from None
    if header is None:
        raise SchemaError("empty dataset")
    header_line = reader.line_num

    def rows():
        try:
            for row in reader:
                if not row:
                    continue
                row_number = reader.line_num - header_line
                if len(row) != len(header):
                    raise ParseError(row_number, f"expected {len(header)} fields, got {len(row)}")
                yield row_number, row
        except csv.Error as exc:
            raise ParseError(reader.line_num - header_line, f"malformed CSV: {exc}") from None

    return [h.strip() for h in header], rows()


def load_dataset(source) -> dict[str, SurvivalSample]:
    header, rows = read_csv(source)
    unknown = [h for h in header if h not in ("time", "status", "group")]
    if unknown:
        raise SchemaError(f"unknown column(s): {', '.join(map(repr, unknown))}")
    if len(set(header)) != len(header):
        raise SchemaError("duplicate column names in header")
    for required in ("time", "status"):
        if required not in header:
            raise SchemaError(f"missing required column: {required}")

    idx = {name: header.index(name) for name in header}
    has_group = "group" in idx

    grouped: dict[str, tuple[list[float], list[int]]] = {}
    for row_number, row in rows:
        time_text = row[idx["time"]].strip()
        status_text = row[idx["status"]].strip()
        try:
            if "_" in time_text or not time_text.isascii():
                raise ValueError
            time = float(time_text)
        except ValueError:
            raise ParseError(row_number, f"time is not numeric: {time_text!r}") from None
        if not math.isfinite(time) or time < 0.0:
            raise ParseError(row_number, f"time must be finite and >= 0, got {time_text!r}")
        try:
            if "_" in status_text or not status_text.isascii():
                raise ValueError
            status_value = float(status_text)
        except ValueError:
            raise ParseError(row_number, f"status is not numeric: {status_text!r}") from None
        if status_value not in (0.0, 1.0):
            raise ParseError(row_number, f"status must be 0 or 1, got {status_text!r}")
        group = row[idx["group"]].strip() if has_group else DEFAULT_GROUP
        if not group:
            raise ParseError(row_number, "group label is empty")
        times, statuses = grouped.setdefault(group, ([], []))
        times.append(time)
        statuses.append(int(status_value))

    if not grouped:
        raise SchemaError("empty dataset")
    return {label: SurvivalSample(*columns) for label, columns in grouped.items()}
