"""CSV ingestion and emission for region grids and fire catalogs.

All readers validate eagerly: parse errors name the row number, bad region
values the region id and field. Writers emit floats via repr so files
round-trip losslessly.
"""

from __future__ import annotations

import csv

import numpy as np

from .atomic import atomic_write
from .errors import ValidationError
from .geo import GeoPoint
from .grid import COLUMNS, FireEvent, RegionGrid

REGION_FIELDS = ["id", *COLUMNS]

FIRE_FIELDS = ["fire_id", "lat", "lon", "recorded_area_km2"]


def ingest_regions(path, cell_area_km2: float = 100.0) -> RegionGrid:
    """Load a region grid from CSV; ids must cover 0..N-1 exactly once."""
    rows: dict[int, list[float]] = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != REGION_FIELDS:
            raise ValidationError(
                f"{path}: expected header {','.join(REGION_FIELDS)}, "
                f"got {reader.fieldnames}"
            )
        for row_no, row in enumerate(reader, start=2):
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


def write_regions_csv(grid: RegionGrid, path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(REGION_FIELDS)
        columns = (getattr(grid, name).tolist() for name in COLUMNS)
        for rid, values in enumerate(zip(*columns)):
            writer.writerow([rid, *map(repr, values)])


def ingest_fires(path, grid: RegionGrid) -> list[FireEvent]:
    """Load a fire catalog; each ignition is assigned to its containing cell."""
    frame = grid.frame
    events: list[FireEvent] = []
    seen: set[int] = set()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != FIRE_FIELDS:
            raise ValidationError(
                f"{path}: expected header {','.join(FIRE_FIELDS)}, got {reader.fieldnames}"
            )
        for row_no, row in enumerate(reader, start=2):
            try:
                fid = int(row["fire_id"])
                point = GeoPoint(float(row["lat"]), float(row["lon"]))
                area = float(row["recorded_area_km2"])
            except ValidationError as exc:
                raise ValidationError(f"{path}:{row_no}: {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{row_no}: malformed row: {exc}") from exc
            if fid in seen:
                raise ValidationError(f"{path}:{row_no}: duplicate fire id {fid}")
            seen.add(fid)
            try:
                events.append(FireEvent(fid, point, frame.locate(point), area))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{row_no}: {exc}") from exc
    return events


def write_fires_catalog_csv(events: list[FireEvent], path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(FIRE_FIELDS)
        for e in events:
            writer.writerow(
                [
                    e.id,
                    repr(float(e.ignition.lat)),
                    repr(float(e.ignition.lon)),
                    repr(float(e.recorded_area_km2)),
                ]
            )
