"""The region grid: one read-only column per cell field, and its planar frame.

A region's id is its index in every column. The planar frame treats cells as
squares in an equirectangular projection anchored at the grid's midpoint,
consistent with 10 km cells over a state-sized area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geo import EARTH_RADIUS_KM, GeoPoint

KM_PER_DEG_LAT = math.pi / 180.0 * EARTH_RADIUS_KM

COLUMNS = ("lat", "lon", "biomass", "soil_moisture", "lightning", "p_human", "spread_rate")


def _require(ok: np.ndarray, name: str, col: np.ndarray, rule: str) -> None:
    """Raise naming the first region whose `name` value breaks `rule`."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        i = int(bad[0])
        raise ValidationError(f"region {i}: {name} {float(col[i])} {rule}")


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Equal-area regions as float64 columns; region i is row i of each."""

    lat: np.ndarray  # degrees
    lon: np.ndarray  # degrees, normalized into [-180, 180)
    biomass: np.ndarray  # KgC/m^2
    soil_moisture: np.ndarray  # volumetric fraction
    lightning: np.ndarray  # flashes/km^2/month
    p_human: np.ndarray
    spread_rate: np.ndarray  # km/h
    cell_area_km2: float

    def __post_init__(self):
        if not (math.isfinite(self.cell_area_km2) and self.cell_area_km2 > 0):
            raise ValidationError("cell_area_km2 must be finite and > 0")
        n = len(self.lat)
        for name in COLUMNS:
            col = np.array(getattr(self, name), dtype=np.float64)
            if col.shape != (n,):
                raise ValidationError(f"column {name} has shape {col.shape}, expected ({n},)")
            _require(np.isfinite(col), name, col, "is not finite")
            object.__setattr__(self, name, col)
        _require(np.abs(self.lat) <= 90.0, "lat", self.lat, "outside [-90, 90]")
        for name in ("biomass", "lightning", "spread_rate"):
            col = getattr(self, name)
            _require(col >= 0.0, name, col, "must be >= 0")
        _require((self.p_human >= 0.0) & (self.p_human <= 1.0), "p_human", self.p_human,
                 "outside [0, 1]")
        # Longitude wraps exactly as geo._normalize_lon does.
        lon = np.fmod(self.lon, 360.0)
        lon = np.where(lon >= 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
        object.__setattr__(self, "lon", lon)
        for name in COLUMNS:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.lat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegionGrid):
            return NotImplemented
        return self.cell_area_km2 == other.cell_area_km2 and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in COLUMNS
        )

    @cached_property
    def memo(self) -> dict:
        """Values derived from the read-only columns, kept under their
        callers' keys for the grid's lifetime."""
        return {}

    @cached_property
    def frame(self) -> GridFrame:
        """The grid's planar frame, built on first use."""
        return GridFrame(self)


class GridFrame:
    """Planar view of a RegionGrid: cell centers in km, square cells, km_per_deg_lon at ref_lat."""

    def __init__(self, grid: RegionGrid):
        lats = grid.lat
        lons = grid.lon
        self.ref_lat = 0.5 * (lats.min() + lats.max())
        self.ref_lon = 0.5 * (lons.min() + lons.max())
        self.km_per_deg_lon = KM_PER_DEG_LAT * math.cos(math.radians(self.ref_lat))
        self.centers_xy = np.column_stack(
            [(lons - self.ref_lon) * self.km_per_deg_lon, (lats - self.ref_lat) * KM_PER_DEG_LAT]
        )
        self.side_km = math.sqrt(grid.cell_area_km2)
        self.biomass = grid.biomass

    def project(self, p: GeoPoint) -> tuple[float, float]:
        return (
            (p.lon - self.ref_lon) * self.km_per_deg_lon,
            (p.lat - self.ref_lat) * KM_PER_DEG_LAT,
        )

    def locate(self, p: GeoPoint) -> int:
        """Index of the cell containing p; ValidationError when outside the grid.

        The cell with the nearest centre, lowest index on ties. A centre that
        passes the test lies within (side/2 + 1e-9) * sqrt(2) of p, so the
        x-band of that half-width, plus rounding slack, holds the nearest one.
        """
        x, y = self.project(p)
        half = self.side_km / 2.0 + 1e-9
        cells = self._x_band(x, half * math.sqrt(2.0) * (1.0 + 1e-9) + 1e-9)
        dx = self.centers_xy[cells, 0] - x
        dy = self.centers_xy[cells, 1] - y
        k = int(np.argmin(dx * dx + dy * dy)) if len(cells) else -1
        if k < 0 or abs(dx[k]) > half or abs(dy[k]) > half:
            raise ValidationError(f"point ({p.lat}, {p.lon}) lies outside the region grid")
        return int(cells[k])

    def rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of each cell, ranked south-to-north / west-to-east."""
        y = np.round(self.centers_xy[:, 1] / self.side_km * 1e6) / 1e6
        x = np.round(self.centers_xy[:, 0] / self.side_km * 1e6) / 1e6
        _, rows = np.unique(y, return_inverse=True)
        _, cols = np.unique(x, return_inverse=True)
        return rows, cols

    @cached_property
    def _x_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell indices sorted by centre x, and the sorted x values."""
        order = np.argsort(self.centers_xy[:, 0])
        return order, self.centers_xy[order, 0]

    def _x_band(self, x: float, half_width: float) -> np.ndarray:
        """Cells whose centre x lies within half_width of x, in ascending order."""
        order, xs = self._x_order
        lo, hi = np.searchsorted(xs, x - half_width), np.searchsorted(xs, x + half_width, "right")
        return np.sort(order[lo:hi])

    def cells_within(self, x: float, y: float, reach: float) -> tuple[np.ndarray, np.ndarray]:
        """Cells whose square lies within `reach` of (x, y), in ascending order,
        and their squared gaps (0 inside the square), each bit-equal to a scan
        of all cells. Such a centre lies within reach + side/2 of x, to a few
        ulp; the x-band adds a relative 1e-9 and 1e-9 km for rounding.
        """
        half = self.side_km / 2.0
        cells = self._x_band(x, (reach + half) * (1.0 + 1e-9) + 1e-9)
        ddx = np.maximum(np.abs(self.centers_xy[cells, 0] - x) - half, 0.0)
        ddy = np.maximum(np.abs(self.centers_xy[cells, 1] - y) - half, 0.0)
        gap_sq = ddx * ddx + ddy * ddy
        keep = gap_sq <= reach * reach
        return cells[keep], gap_sq[keep]

    def disks(self, xy, reach) -> tuple[np.ndarray, np.ndarray]:
        """Per point of the (n, 2) `xy`, the cells whose square lies within
        that row's `reach` (a scalar or n values), as cells_within finds them.

        Returns (gap_sq, cells): row i holds point i's cells in ascending
        order and their squared gaps; rows are padded with gap inf and cell -1.
        """
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2).tolist()
        reach = np.broadcast_to(reach, len(xy)).tolist()
        found = [self.cells_within(x, y, r) for (x, y), r in zip(xy, reach)]
        width = max([1] + [len(c) for c, _ in found])
        gap_sq = np.full((len(found), width), np.inf)
        cells = np.full((len(found), width), -1)
        for i, (c, gap) in enumerate(found):
            gap_sq[i, : len(c)] = gap
            cells[i, : len(c)] = c
        return gap_sq, cells

    def disk_biomass(self, gap_sq: np.ndarray, cells: np.ndarray, radius) -> np.ndarray:
        """Mean biomass of the cells whose square intersects each row's disk
        of finite `radius`, from rows of disks(); 0.0 where none does.

        Equal bit for bit to biomass[selected].mean(): numpy sums fewer than 8
        values left to right, and adding the cells left out as +0.0 leaves a
        sum of non-negative biomass unchanged. At 8 or more selected cells
        numpy sums pairwise, so those rows call .mean() themselves.
        """
        radius = np.asarray(radius, dtype=np.float64)
        mask = gap_sq <= (radius * radius)[:, None]
        biomass = self.biomass[cells]
        selected = np.count_nonzero(mask, axis=1)
        total = np.cumsum(np.where(mask, biomass, 0.0), axis=1)[:, -1]
        means = np.divide(total, selected, out=np.zeros_like(total), where=selected > 0)
        for k in np.flatnonzero(selected >= 8):
            means[k] = biomass[k][mask[k]].mean()
        return means

    def biomass_avg(self, cx: float, cy: float, radius: float) -> float:
        """Mean biomass of the cells whose square intersects the disk."""
        return float(self.disk_biomass(*self.disks([(cx, cy)], radius), [radius])[0])


@dataclass(frozen=True)
class FireEvent:
    """One cataloged ignition with its historically recorded burned area."""

    id: int
    ignition: GeoPoint
    region_id: int
    recorded_area_km2: float

    def __post_init__(self):
        area = self.recorded_area_km2
        if not (math.isfinite(area) and area >= 0):
            raise ValidationError(f"fire {self.id}: recorded_area_km2 {area} must be finite and >= 0")
