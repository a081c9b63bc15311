"""Ingest right-censored survival data from CSV into typed, grouped samples.

Input schema: UTF-8 CSV with no NUL byte, a header row and columns
``time`` (decimal, >= 0), ``status`` (1 = event observed, 0 =
right-censored) and an optional ``group`` label. Rows are partitioned by
group and each group's sample is sorted ascending by time with events
ordered before censorings at ties.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import operator
import os
import re
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import ParseError, SchemaError

DEFAULT_GROUP = "all"
_BLOCK_BYTES = 16 * 1024  # input bytes per block, so per chunk, of read_csv
# Every byte but the comma, the line ends and the quote: the bytes that
# csv reads as they are in a field.
_PLAIN_BYTES = bytes(sorted(set(range(256)) - set(b',\n\r"')))
# A line end as csv reads it, so that a cut after one never splits a line.
_LINE_END = re.compile(rb"\r\n?|\n")
# The byte of each 0/1 digit's value, for zero_one_column.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


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


def order_keys(times: np.ndarray, censored: np.ndarray) -> np.ndarray:
    """Packed uint64 keys that ascend in ``SurvivalSample`` order: a time's
    bits shifted left by one, with the low bit set for a censoring.

    The bits of a finite double >= 0 (not -0.0) ascend with its value, and
    its sign bit is 0, so the keys sort by time and then events first.
    """
    return times.view(np.uint64) << 1 | censored


@dataclass(frozen=True, eq=False)
class SurvivalSample:
    """A non-empty group of subjects as sorted, read-only columns.

    ``times`` (float) ascend; at equal times, events (status 1) precede
    censorings (status 0), the standard tie convention for product-limit
    estimation. The constructor copies, validates and sorts its inputs,
    and reads a time of -0.0 as 0.0.

    The sort is one ``np.sort`` of ``order_keys``, and both columns are
    decoded from the sorted keys.
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
        keys = np.sort(order_keys(times, statuses == 0))
        times, statuses = (keys >> 1).view(np.float64), 1 - (keys & 1).astype(np.int64)
        for name, column in (("times", times), ("statuses", statuses)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    __eq__ = fields_equal

    @property
    def n(self) -> int:
        return self.times.size


def _input_bytes(source: str | bytes | os.PathLike) -> tuple[bytes, int]:
    """The bytes of ``source`` (raw bytes, or the file at a path) and the
    offset of its text, past a leading UTF-8 byte-order mark.

    The whole input is checked first, so invalid UTF-8 or a NUL byte
    anywhere is an error before any row is read.
    """
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    if not source.isascii():
        try:
            source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"input is not valid UTF-8: {exc}") from None
    if b"\0" in source:
        raise SchemaError("input holds a NUL byte")
    return source, len(codecs.BOM_UTF8) if source.startswith(codecs.BOM_UTF8) else 0


def read_csv(
    source: str | bytes | os.PathLike,
) -> tuple[list[str], Iterator[tuple[Sequence[int], list[list[str]]]]]:
    """Decode a CSV path or bytes into its stripped header and chunks of numbered data columns.

    Each chunk is a pair: the data row numbers (a range for a split block),
    and one list of field texts per header column, from about
    ``_BLOCK_BYTES`` of input. Blank lines are skipped but counted: data
    row k sits k lines below the header. A bare carriage return ends a
    line, as in any CSV dialect. Rows are checked
    for the header's field count as they are consumed, so a caller
    validates the header before any row error can surface; on a row of the
    wrong width, or one the csv module cannot split (a ParseError), the
    rows before it are yielded first, so that a caller checking them raises
    their errors first. An input without a header is an empty dataset, a
    header the csv module cannot split a SchemaError. A caller that drops a
    chunk before asking for the next holds one chunk at a time.

    The header is read by csv.reader, so a quoted name may hold a comma or
    a line break; the data starts past as many line ends as that reader
    consumed. It is split a block of lines at a time, with no list per
    row, while its blocks are plain, and read by one csv.reader from the
    first block that is not (see ``_split_chunks``).
    """
    data, pos = _input_bytes(source)
    reader = csv.reader(_text_lines(data, pos))
    try:
        header = next((row for row in reader if row), None)
    except csv.Error as exc:
        raise SchemaError(f"malformed CSV header: {exc}") from None
    if header is None:
        raise SchemaError("empty dataset")
    for _ in range(reader.line_num):
        line_end = _LINE_END.search(data, pos)
        pos = line_end.end() if line_end else len(data)
    return [h.strip() for h in header], _split_chunks(data, pos, len(header))


def _text_lines(data: bytes, pos: int) -> io.TextIOWrapper:
    """The UTF-8 text of ``data`` from byte ``pos`` on, a stream of lines with their line ends as csv reads them."""
    stream = io.BytesIO(data)
    stream.seek(pos)
    return io.TextIOWrapper(stream, encoding="utf-8", newline="")


def _reader_chunks(reader, offset: int, width: int) -> Iterator[tuple[list[int], list[list[str]]]]:
    """Chunks of the rows left in csv ``reader``, each row numbered
    ``reader.line_num + offset``, as ``read_csv`` yields them.

    This per-row loop, which numbers, checks and keeps a list per row,
    reads on from the first block that ``_split_chunks`` cannot split.
    """
    chunk_rows = max(1, _BLOCK_BYTES // 8)  # a block's worth of 8-byte rows
    numbers: list[int] = []
    rows: list[list[str]] = []
    error = None
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                error = ParseError(reader.line_num + offset, f"expected {width} fields, got {len(row)}")
                break
            numbers.append(reader.line_num + offset)
            rows.append(row)
            if len(rows) == chunk_rows:
                yield numbers, _columns(rows, width)
                numbers, rows = [], []
    except csv.Error as exc:
        error = ParseError(reader.line_num + offset, f"malformed CSV: {exc}")
    if rows:
        yield numbers, _columns(rows, width)
    if error is not None:
        raise error


def _columns(rows: list[list[str]], width: int) -> list[list[str]]:
    """The ``width`` columns of ``rows``, as lists."""
    return [list(map(operator.itemgetter(k), rows)) for k in range(width)]


def _split_chunks(data: bytes, pos: int, width: int) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Chunks of ``data`` past ``pos``, the first line below the header,
    as ``read_csv`` yields them.

    The data is cut after a line end into blocks of at least
    ``_BLOCK_BYTES`` (UTF-8 never has a line end byte inside a character,
    and a carriage return and newline pair stays whole). While each block
    is plain, that is its lines all hold ``width`` fields split at each
    comma and end in a newline, with no quote, no carriage return, no
    blank line and no field past csv.field_size_limit(), it is read as csv
    would read it by str.split, and its columns are slices of that field
    list. From the first block that is not plain to the end, the data goes
    through one csv.reader (``_reader_chunks``) under the same line numbers.
    """
    limit = csv.field_size_limit()
    line_shape = b"," * (width - 1) + b"\n"
    line = 0  # lines below the header before the block
    while pos < len(data):
        cut = _LINE_END.search(data, pos + _BLOCK_BYTES - 1)
        end = cut.end() if cut else len(data)
        block = data[pos:end] if data[end - 1] in b"\r\n" else data[pos:end] + b"\n"
        n_lines = block.count(b"\n")
        fields = None
        blank = block.startswith(b"\n") or b"\n\n" in block
        # without its plain bytes, a plain block is each line's commas and newline
        if not blank and block.translate(None, _PLAIN_BYTES) == line_shape * n_lines:
            fields = block.decode("utf-8")[:-1].replace("\n", ",").split(",")
            if len(block) > limit and max(map(len, fields)) > limit:
                fields = None
        if fields is None:
            yield from _reader_chunks(csv.reader(_text_lines(data, pos)), line, width)
            return
        yield range(line + 1, line + 1 + n_lines), [fields[k::width] for k in range(width)]
        pos = end
        line += n_lines


def _survival_row(row_number: int, time_text: str, status_text: str, group_code: int) -> tuple[float, int]:
    """The row rules: a data row's time and status, or the ParseError of its
    first fault; a group code below 0 (``label_codes``) is an empty label."""
    time_text = time_text.strip()
    status_text = status_text.strip()
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
    if group_code < 0:
        raise ParseError(row_number, "group label is empty")
    return time, int(status_value)


def zero_one_column(texts: list[str]) -> np.ndarray | None:
    """The values (int8) of ``texts`` when each is exactly ``"0"`` or ``"1"``, else None.

    The texts are read as bytes from their join with commas. Those bytes
    alternate a 0/1 digit and a comma, 2n - 1 of them, only when each of
    the n texts is one digit: a join without separators would also read
    the texts ``""`` and ``"11"`` as two rows.
    """
    joined = ",".join(texts).encode()
    digits = joined[::2]
    if len(joined) != 2 * len(texts) - 1 or joined[1::2] != b"," * (len(texts) - 1) or digits.translate(None, b"01"):
        return None
    return np.frombuffer(digits.translate(_DIGIT_VALUES), np.int8)


def _survival_columns(time_texts: list[str], status_texts: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """A chunk's times and statuses (int8) when every text passes the
    whole-column checks, else None.

    A status column written exactly ``0``/``1`` is read as bytes
    (``zero_one_column``); any other column goes through float(), as the
    times do. float() strips less than str.strip() and rejects what it
    does not strip, so a value it reads unstripped is the row rules' value.
    """
    statuses = zero_one_column(status_texts)
    text = "".join(time_texts if statuses is not None else time_texts + status_texts)
    if "_" in text or not text.isascii():
        return None
    try:
        times = np.fromiter(map(float, time_texts), np.float64, len(time_texts))
        if statuses is None:
            values = np.fromiter(map(float, status_texts), np.float64, len(status_texts))
            if not np.all((values == 0.0) | (values == 1.0)):
                return None
            statuses = values.astype(np.int8)
    except ValueError:
        return None
    if not (times.min() >= 0.0 and times.max() < math.inf):
        return None
    return times, statuses


class LabelTable(dict):
    """Each label text seen so far -> its code, and ``labels``: each
    stripped label -> its code, in order of first appearance.

    A text not yet in the table is stripped once, on its first lookup
    (``__missing__``), and cached with its label's code, or -1 for a text
    that strips to nothing.
    """

    def __init__(self):
        super().__init__()
        self.labels: dict[str, int] = {}

    def __missing__(self, text: str) -> int:
        label = text.strip()
        code = self[text] = self.labels.setdefault(label, len(self.labels)) if label else -1
        return code


def label_codes(texts: Sequence[str], table: LabelTable) -> np.ndarray:
    """Each text's code in ``table`` (-1 for an empty label), coding new labels
    as they appear: one dict lookup per text."""
    return np.fromiter(map(table.__getitem__, texts), np.intp, len(texts))


def load_dataset(source: str | bytes | os.PathLike) -> dict[str, SurvivalSample]:
    """Parse a CSV path or bytes into one SurvivalSample per group label.

    The header must contain ``time`` and ``status``; ``group`` is optional
    and defaults every row to group "all" when absent. Any other column is
    a schema error. Blank lines are skipped; any malformed row raises a
    ParseError naming its 1-based data row number (see read_csv). The
    dict is in order of each group's first row.
    """
    header, chunks = read_csv(source)
    unknown = [h for h in header if h not in ("time", "status", "group")]
    if unknown:
        raise SchemaError(f"unknown column(s): {', '.join(map(repr, unknown))}")
    if len(set(header)) != len(header):
        raise SchemaError("duplicate column names in header")
    for required in ("time", "status"):
        if required not in header:
            raise SchemaError(f"missing required column: {required}")

    time_at, status_at = header.index("time"), header.index("status")
    group_at = header.index("group") if "group" in header else None

    groups = LabelTable()  # .labels: group label -> code, in order of first row

    def columns(chunk: tuple[Sequence[int], list[list[str]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A chunk's times, statuses (int8) and group codes; adds its labels to ``groups``."""
        row_numbers, texts = chunk
        time_texts, status_texts = texts[time_at], texts[status_at]
        group_texts = texts[group_at] if group_at is not None else [DEFAULT_GROUP] * len(time_texts)
        group_codes = label_codes(group_texts, groups)
        parsed = _survival_columns(time_texts, status_texts)
        if parsed is None or (group_codes < 0).any():
            # A check failed: the row rules raise the chunk's first error, or
            # on a false alarm give the same values.
            times, statuses = zip(*map(_survival_row, row_numbers, time_texts, status_texts, group_codes.tolist()))
            parsed = np.array(times), np.array(statuses, dtype=np.int8)
        return parsed[0], parsed[1], group_codes

    # map() drops each chunk before the next is read.
    parts = list(map(columns, chunks))
    if not groups.labels:
        raise SchemaError("empty dataset")
    times, statuses, group_codes = map(np.concatenate, zip(*parts))
    del parts
    # One stable sort by code keeps each group's rows in row order.
    order = np.argsort(group_codes, kind="stable")
    bounds = np.cumsum(np.bincount(group_codes))[:-1]
    pieces = zip(np.split(times[order], bounds), np.split(statuses[order], bounds))
    return {label: SurvivalSample(*piece) for label, piece in zip(groups.labels, pieces)}
