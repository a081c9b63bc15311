"""Ingest right-censored survival data from CSV into typed, grouped samples.

Input schema: UTF-8 CSV with a header row and columns ``time`` (decimal,
>= 0), ``status`` (1 = event observed, 0 = right-censored) and an optional
``group`` label. Rows are partitioned by group and each group's sample is
sorted ascending by time with events ordered before censorings at ties.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .errors import ParseError, SchemaError

DEFAULT_GROUP = "all"


def freeze_columns(obj, **dtypes) -> None:
    """Set each named field of frozen ``obj`` to a read-only copy of that dtype, all 1-D of one length."""
    columns = {name: np.array(getattr(obj, name), dtype=dtype) for name, dtype in dtypes.items()}
    shapes = {c.shape for c in columns.values()}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ValueError(f"{', '.join(columns)} must be 1-D arrays of one length")
    for name, column in columns.items():
        column.setflags(write=False)
        object.__setattr__(obj, name, column)


def fields_equal(a, b) -> bool:
    """``==`` for dataclasses with array fields, ``np.array_equal`` on arrays (NaN equals NaN)."""
    if type(b) is not type(a):
        return NotImplemented
    return all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True, eq=False)
class SurvivalSample:
    """A non-empty group of subjects as sorted, read-only columns.

    ``times`` (float) ascend; at equal times, events (status 1) precede
    censorings (status 0), the standard tie convention for product-limit
    estimation. The constructor copies, validates and sorts its inputs,
    and reads a time of -0.0 as 0.0.
    """

    times: np.ndarray
    statuses: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float) + 0.0
        statuses = np.asarray(self.statuses)
        if times.ndim != 1 or statuses.shape != times.shape:
            raise ValueError("times and statuses must be 1-D arrays of equal length")
        if times.size == 0:
            raise ValueError("a sample needs at least one observation")
        if not np.all(np.isfinite(times) & (times >= 0.0)):
            raise ValueError("times must be finite and >= 0")
        if not np.all((statuses == 0) | (statuses == 1)):
            raise ValueError("statuses must be 0 or 1")
        statuses = statuses.astype(np.int64)
        order = np.lexsort((-statuses, times))
        for name, column in (("times", times[order]), ("statuses", statuses[order])):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    __eq__ = fields_equal

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def max_time(self) -> float:
        return float(self.times[-1])


def _decode(source: str | bytes | os.PathLike) -> str:
    """The UTF-8 text of ``source``: raw bytes, or the bytes of the file at a path."""
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not valid UTF-8: {exc}") from None


def read_csv(source: str | bytes | os.PathLike) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Decode a CSV path or bytes into its stripped header and numbered data rows.

    Blank lines are skipped but counted: data row k sits k lines below
    the header. A bare carriage return ends a line, as in any CSV
    dialect. Rows are checked for the header's field count as they are
    consumed, so a caller validates the header before any row error can
    surface. An input without a header is an empty dataset; a row the csv
    module cannot split is a ParseError, a header it cannot split a
    SchemaError.
    """
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


def load_dataset(source: str | bytes | os.PathLike) -> dict[str, SurvivalSample]:
    """Parse a CSV path or bytes into one SurvivalSample per group label.

    The header must contain ``time`` and ``status``; ``group`` is optional
    and defaults every row to group "all" when absent. Any other column is
    a schema error. Blank lines are skipped; any malformed row raises a
    ParseError naming its 1-based data row number (see read_csv).
    """
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
        # float() reads the digit separator in "1_5" as 15.0 and the fullwidth
        # digits "１５" as 15.0; a CSV number has neither.
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
