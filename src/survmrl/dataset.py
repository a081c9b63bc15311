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
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Mapping

import numpy as np

from .errors import ParseError, SchemaError, SurvmrlError

DEFAULT_GROUP = "all"


@dataclass(frozen=True, eq=False)
class SurvivalSample:
    """A non-empty group of subjects as sorted, read-only columns.

    ``times`` (float) ascend; at equal times, events (status 1) precede
    censorings (status 0), the standard tie convention for product-limit
    estimation. The constructor copies, validates and sorts its inputs.
    """

    times: np.ndarray
    statuses: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
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

    def __eq__(self, other):
        if not isinstance(other, SurvivalSample):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.statuses, other.statuses
        )

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def max_time(self) -> float:
        return float(self.times[-1])


def _decode(source: str | bytes | os.PathLike | BinaryIO | io.TextIOBase) -> str:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, bytes):
        raw = source
    elif isinstance(source, io.TextIOBase):
        return source.read()
    else:
        raw = source.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not valid UTF-8: {exc}") from None


def read_csv(
    source: str | bytes | os.PathLike | BinaryIO | io.TextIOBase,
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Decode a CSV source into its stripped header and numbered data rows.

    Blank lines are skipped but counted: data row k sits k lines below
    the header. Rows are checked for the header's field count as they are
    consumed, so a caller validates the header before any row error can
    surface. An input without a header is an empty dataset.
    """
    reader = csv.reader(io.StringIO(_decode(source)))
    header = next((row for row in reader if row), None)
    if header is None:
        raise SchemaError("empty dataset")
    header_line = reader.line_num

    def rows():
        for row in reader:
            if not row:
                continue
            row_number = reader.line_num - header_line
            if len(row) != len(header):
                raise ParseError(row_number, f"expected {len(header)} fields, got {len(row)}")
            yield row_number, row

    return [h.strip() for h in header], rows()


def load_dataset(
    source: str | bytes | os.PathLike | BinaryIO | io.TextIOBase,
    *,
    time_col: str = "time",
    status_col: str = "status",
    group_col: str = "group",
) -> dict[str, SurvivalSample]:
    """Parse a CSV source into one SurvivalSample per group label.

    ``source`` may be a path, raw bytes, or an open file. The header must
    contain ``time_col`` and ``status_col``; ``group_col`` is optional and
    defaults every row to group "all" when absent. Columns outside these
    three are a schema error. Blank lines are skipped; any malformed row
    raises a ParseError naming its 1-based data row number (see read_csv).
    """
    header, rows = read_csv(source)
    known = {time_col, status_col, group_col}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise SchemaError(f"unknown column(s): {', '.join(unknown)}")
    if len(set(header)) != len(header):
        raise SchemaError("duplicate column names in header")
    for required in (time_col, status_col):
        if required not in header:
            raise SchemaError(f"missing required column: {required}")

    idx = {name: header.index(name) for name in header}
    has_group = group_col in idx

    grouped: dict[str, tuple[list[float], list[int]]] = {}
    for row_number, row in rows:
        time_text = row[idx[time_col]].strip()
        status_text = row[idx[status_col]].strip()
        try:
            time = float(time_text)
        except ValueError:
            raise ParseError(row_number, f"time is not numeric: {time_text!r}") from None
        if not math.isfinite(time) or time < 0.0:
            raise ParseError(row_number, f"time must be finite and >= 0, got {time_text!r}")
        try:
            status_value = float(status_text)
        except ValueError:
            raise ParseError(row_number, f"status is not numeric: {status_text!r}") from None
        if status_value not in (0.0, 1.0):
            raise ParseError(row_number, f"status must be 0 or 1, got {status_text!r}")
        group = row[idx[group_col]].strip() if has_group else DEFAULT_GROUP
        if not group:
            raise ParseError(row_number, "group label is empty")
        times, statuses = grouped.setdefault(group, ([], []))
        times.append(time)
        statuses.append(int(status_value))

    if not grouped:
        raise SchemaError("empty dataset")
    return {label: SurvivalSample(*columns) for label, columns in grouped.items()}


def dump_dataset(samples: Mapping[str, SurvivalSample]) -> bytes:
    """Serialize samples back to the input CSV schema (UTF-8 bytes).

    Times are written with full precision so a dump/load round trip
    reproduces the samples exactly.
    """
    if not samples:
        raise SurvmrlError("nothing to export: no samples")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time", "status", "group"])
    for label, sample in samples.items():
        for time, status in zip(sample.times.tolist(), sample.statuses.tolist()):
            writer.writerow([repr(time), status, label])
    return out.getvalue().encode("utf-8")
