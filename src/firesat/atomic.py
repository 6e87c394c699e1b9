"""Data files: atomic writers for CSV and JSON, and the readers that check them.

Every file the package writes goes through `atomic_write`: a temporary file
that is renamed into place. JSON is indented by 2 with sorted keys and ends
in a newline; CSV rows end in a bare newline and floats are written by repr,
so files round-trip losslessly.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ValidationError


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


def read_json(path) -> dict:
    """The JSON object in `path`; anything else is a ValidationError."""
    try:
        with open(path) as f:
            payload = json.load(f)
    except ValueError as exc:  # also undecodable text
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top-level JSON value is not an object")
    return payload


def read_csv(path, header: list[str]):
    """(row number, row dict) of each data row of a CSV whose header is `header`."""
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames != header:
                raise ValidationError(
                    f"{path}: expected header {','.join(header)}, got {reader.fieldnames}"
                )
            yield from enumerate(reader, start=2)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: cannot decode as text: {exc}") from None
