"""CSV ingestion and emission for region grids and fire catalogs.

All readers validate eagerly: parse errors name the row number, bad region
values the region id and field. Writers emit floats via repr so files
round-trip losslessly.
"""

from __future__ import annotations

import numpy as np

from .atomic import MALFORMED, CsvColumns, read_csv, write_csv
from .errors import ValidationError
from .geo import GeoPoint
from .grid import COLUMNS, FireEvent, RegionGrid

REGION_FIELDS = ["id", *COLUMNS]

FIRE_FIELDS = ["fire_id", "lat", "lon", "recorded_area_km2"]


def ingest_regions(path, cell_area_km2: float) -> RegionGrid:
    """Load a region grid from CSV; ids must cover 0..N-1 exactly once."""
    table = read_csv(path, REGION_FIELDS, (int,) + (float,) * len(COLUMNS))
    order = _region_order(table)
    columns = [column[order] for column in table.columns[1:]]
    try:
        return RegionGrid(**dict(zip(COLUMNS, columns)), cell_area_km2=cell_area_km2)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _region_order(table: CsvColumns) -> np.ndarray:
    """Row of each region id from 0 up; an earlier row's fault is raised first."""
    row_of: dict[int, int] = {}
    for row, rid in enumerate(table.columns[0]):
        if row_of.setdefault(rid, row) != row:
            raise table.fault(row, f"duplicate region id {rid}")
    table.raise_error()
    n = len(row_of)
    if not n:
        raise ValidationError(f"{table.path}: no region rows found")
    try:
        return np.fromiter(map(row_of.__getitem__, range(n)), np.intp, n)
    except KeyError:
        missing = [i for i in range(n) if i not in row_of]
        raise ValidationError(
            f"{table.path}: region ids not contiguous; missing {missing[:5]}"
        ) from None


def write_regions_csv(grid: RegionGrid, path) -> None:
    columns = [getattr(grid, name).tolist() for name in COLUMNS]
    write_csv(path, REGION_FIELDS, ([rid, *values] for rid, values in enumerate(zip(*columns))))


def ingest_fires(path, grid: RegionGrid) -> list[FireEvent]:
    """Load a fire catalog of at least one fire; each ignition is assigned to
    its containing cell."""
    table = read_csv(path, FIRE_FIELDS, (int, float, float, str))
    frame = grid.frame
    events: list[FireEvent] = []
    seen: set[int] = set()
    for row, (fid, lat, lon, area) in enumerate(table.rows()):
        try:  # in order: the point, the area's text, the id, the cell and area
            ignition = GeoPoint(lat, lon)
            try:
                area = float(area)
            except ValueError as exc:
                raise ValidationError(f"{MALFORMED}{exc}") from None
            if fid in seen:
                raise ValidationError(f"duplicate fire id {fid}")
            seen.add(fid)
            events.append(FireEvent(fid, ignition, frame.locate(ignition), area))
        except ValidationError as exc:
            raise table.fault(row, exc) from exc
    table.raise_error()
    if not events:
        raise ValidationError(f"{path}: no fire rows found")
    return events


def write_fires_catalog_csv(events: list[FireEvent], path) -> None:
    write_csv(
        path,
        FIRE_FIELDS,
        (
            [e.id, float(e.ignition.lat), float(e.ignition.lon), float(e.recorded_area_km2)]
            for e in events
        ),
    )
