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
    def frame(self) -> GridFrame:
        """The grid's planar frame, built on first use."""
        return GridFrame(self)


class GridFrame:
    """Planar view of a RegionGrid: cell centers in km, square cells."""

    def __init__(self, grid: RegionGrid):
        lats = grid.lat
        lons = grid.lon
        self.ref_lat = 0.5 * (lats.min() + lats.max())
        self.ref_lon = 0.5 * (lons.min() + lons.max())
        self._kx = KM_PER_DEG_LAT * math.cos(math.radians(self.ref_lat))
        self.centers_xy = np.column_stack(
            [(lons - self.ref_lon) * self._kx, (lats - self.ref_lat) * KM_PER_DEG_LAT]
        )
        self.side_km = math.sqrt(grid.cell_area_km2)
        self.biomass = grid.biomass

    def project(self, p: GeoPoint) -> tuple[float, float]:
        return (
            (p.lon - self.ref_lon) * self._kx,
            (p.lat - self.ref_lat) * KM_PER_DEG_LAT,
        )

    def locate(self, p: GeoPoint) -> int:
        """Index of the cell containing p; ValidationError when outside the grid."""
        x, y = self.project(p)
        dx = self.centers_xy[:, 0] - x
        dy = self.centers_xy[:, 1] - y
        idx = int(np.argmin(dx * dx + dy * dy))
        cx, cy = self.centers_xy[idx]
        half = self.side_km / 2.0 + 1e-9
        if abs(x - cx) > half or abs(y - cy) > half:
            raise ValidationError(f"point ({p.lat}, {p.lon}) lies outside the region grid")
        return idx

    def rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of each cell, ranked south-to-north / west-to-east."""
        y = np.round(self.centers_xy[:, 1] / self.side_km * 1e6) / 1e6
        x = np.round(self.centers_xy[:, 0] / self.side_km * 1e6) / 1e6
        _, rows = np.unique(y, return_inverse=True)
        _, cols = np.unique(x, return_inverse=True)
        return rows, cols

    def intersecting_mask(self, cx: float, cy: float, radius: float, cells=None) -> np.ndarray:
        """Boolean mask of cells whose square intersects the disk.

        With `cells` (ascending cell indices) the mask covers those cells only.
        """
        centers = self.centers_xy if cells is None else self.centers_xy[cells]
        half = self.side_km / 2.0
        ddx = np.maximum(np.abs(centers[:, 0] - cx) - half, 0.0)
        ddy = np.maximum(np.abs(centers[:, 1] - cy) - half, 0.0)
        return ddx * ddx + ddy * ddy <= radius * radius

    def biomass_avg(self, cx: float, cy: float, radius: float, cells=None) -> float:
        """Mean biomass of the cells whose square intersects the disk.

        `cells` (ascending cell indices) restricts the search to cells known
        to hold every intersecting one; the result is then unchanged.
        """
        mask = self.intersecting_mask(cx, cy, radius, cells)
        if not mask.any():
            return 0.0
        biomass = self.biomass if cells is None else self.biomass[cells]
        return float(biomass[mask].mean())


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
