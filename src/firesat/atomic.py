"""Data files: atomic writers for CSV and JSON, and the readers that check them.

Every file the package writes goes through `atomic_write`: a temporary file
that is renamed into place. JSON is indented by 2 with sorted keys and ends
in a newline; CSV rows end in a bare newline and floats are written by repr,
so files round-trip losslessly. CSV is read column-wise, a fixed number of
rows at a time.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import ValidationError

# Before the reason a field does not parse, in the error of its row.
MALFORMED = "malformed row: "

# Data rows parsed and converted at a time: bounds the row strings alive at
# once, which parsing a whole file at once would hold all together.
_CHUNK_ROWS = 1024


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Text file object whose content replaces `path` when the block ends.

    The content goes to a new temporary file in the same directory, which
    `os.replace` renames over `path` once the block finishes. If the block
    raises, `path` keeps its old content and the temporary file is removed.
    The file is created with the permissions `open(path, "w")` would give.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """A header row, then `rows`; None is written as an empty cell."""
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _finite(token: str) -> float:
    if not math.isfinite(value := float(token)):
        raise ValueError(f"{token} is not a finite number")
    return value


def read_json(path) -> dict:
    """The JSON object in `path`, every number in it finite; anything else is a ValidationError."""
    try:
        with open(path) as f:
            payload = json.load(f, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # also undecodable text
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top-level JSON value is not an object")
    return payload


@dataclass(frozen=True)
class CsvColumns:
    """Typed columns of the CSV at `path`, up to the first row that breaks
    the header's width or its field types.

    A float field gives a float64 array; an int or str field a list. The
    breaking row's error waits in `error`, so that a caller checking rows of
    its own reports a fault in an earlier row first: the first offending row
    wins. `lines` holds the physical line each data row starts on, which
    `fault` names.
    """

    path: object
    columns: tuple
    error: ValidationError | None
    lines: np.ndarray

    def rows(self):
        """Each row's values as Python ints, floats and strs."""
        return zip(*(c if isinstance(c, list) else c.tolist() for c in self.columns))

    def fault(self, row: int, message) -> ValidationError:
        """The error for a fault in data row `row`, named by path and line."""
        return ValidationError(f"{self.path}:{int(self.lines[row])}: {message}")

    def raise_error(self) -> None:
        if self.error is not None:
            raise self.error


def read_csv(path, header: list[str], types: tuple) -> CsvColumns:
    """Columns of a CSV whose header is `header`, each converted by its type
    in `types` (int, float or str).

    Blank lines hold no row. The first row whose field count differs from the
    header's, or whose field its type rejects, ends the columns; its error
    names the line it starts on, and a rejected field's message follows
    MALFORMED.
    """
    parts: list[list] = [[] for _ in types]
    lines: list[np.ndarray] = []
    error = None
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            try:
                fieldnames = next(reader, None)
            except csv.Error as exc:
                raise ValidationError(f"{path}:1: {exc}") from None
            if fieldnames != header:
                raise ValidationError(
                    f"{path}: expected header {','.join(header)}, got {fieldnames}"
                )
            start = reader.line_num + 1  # line on which the next record starts
            while True:
                chunk_start = start
                rows: list[list[str]] = []
                starts: list[int] = []
                try:
                    for fields in islice(reader, _CHUNK_ROWS):
                        if fields:
                            rows.append(fields)
                            starts.append(start)
                        start = reader.line_num + 1
                except UnicodeDecodeError as exc:
                    error = ValidationError(f"{path}: cannot decode as text: {exc}")
                except csv.Error as exc:
                    error = ValidationError(f"{path}:{start}: {exc}")
                try:
                    chunk = _columns(rows, types)
                except ValueError:
                    bad, text = _first_bad_row(rows, types)
                    error = ValidationError(f"{path}:{starts[bad]}: {text}")
                    del rows[bad:], starts[bad:]
                    chunk = _columns(rows, types)
                for part, column in zip(parts, chunk):
                    part.append(column)
                lines.append(np.array(starts, dtype=np.int64))
                if error is not None or start == chunk_start:  # fault or end of file
                    break
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: cannot decode as text: {exc}") from None
    columns = tuple(
        (np.concatenate(part) if part else np.empty(0)) if t is float
        else list(chain.from_iterable(part))
        for t, part in zip(types, parts)
    )
    return CsvColumns(path, columns, error, np.concatenate(lines))


def _columns(rows: list[list[str]], types: tuple) -> list:
    """`rows` transposed and converted (no columns for no rows); ValueError if
    a row's width or a field is wrong."""
    if set(map(len, rows)) - {len(types)}:
        raise ValueError("field count")
    return [
        np.fromiter(map(t, column), np.float64, len(rows)) if t is float else list(map(t, column))
        for t, column in zip(types, zip(*rows))
    ]


def _first_bad_row(rows: list[list[str]], types: tuple):
    """Index of the first row of `rows` that `_columns` rejects, and its error text."""
    for i, row in enumerate(rows):
        if len(row) != len(types):
            return i, f"expected {len(types)} fields, got {len(row)}"
        try:
            _columns([row], types)
        except ValueError as exc:
            return i, f"{MALFORMED}{exc}"
    raise AssertionError("no bad row")
