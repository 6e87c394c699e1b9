"""Row-by-row reference for region ingest.

`ingest_regions` is the reader as it stood before CSV was read column-wise:
`csv.DictReader`, one dict per row, a scalar `int`/`float` per field, rows
numbered by their count of non-blank records. Tests check
`firesat.ingest.ingest_regions` against it; nothing at runtime imports this
module.
"""

from __future__ import annotations

import csv

import numpy as np

from firesat.errors import ValidationError
from firesat.grid import COLUMNS, RegionGrid
from firesat.ingest import REGION_FIELDS


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


def ingest_regions(path, cell_area_km2: float) -> RegionGrid:
    rows: dict[int, list[float]] = {}
    for row_no, row in read_csv(path, REGION_FIELDS):
        try:
            rid = int(row["id"])
            values = [float(row[name]) for name in COLUMNS]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{row_no}: malformed row: {exc}") from exc
        if rid in rows:
            raise ValidationError(f"{path}:{row_no}: duplicate region id {rid}")
        rows[rid] = values
    if not rows:
        raise ValidationError(f"{path}: no region rows found")
    n = len(rows)
    missing = [i for i in range(n) if i not in rows]
    if missing:
        raise ValidationError(f"{path}: region ids not contiguous; missing {missing[:5]}")
    columns = np.array([rows[i] for i in range(n)]).T
    try:
        return RegionGrid(**dict(zip(COLUMNS, columns)), cell_area_km2=cell_area_km2)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
