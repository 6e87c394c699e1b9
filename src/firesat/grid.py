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

# Items a blocked pass over runs takes at a time: a catalog's band search (~60 000
# pairs) or a trial's gather in one pass would build temporaries that large.
_BLOCK_ROWS = 8192

COLUMNS = ("lat", "lon", "biomass", "soil_moisture", "lightning", "p_human", "spread_rate")


def _require(ok: np.ndarray, name: str, col: np.ndarray, rule: str) -> None:
    """Raise naming the first region whose `name` value breaks `rule`."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        i = int(bad[0])
        raise ValidationError(f"region {i}: {name} {float(col[i])} {rule}")


def wrap_lon(lon: np.ndarray) -> np.ndarray:
    """Longitudes wrapped into [-180, 180) exactly as geo._normalize_lon wraps one."""
    lon = np.fmod(lon, 360.0)
    return np.where(lon >= 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))


def blocks_of_runs(first: np.ndarray, lengths: np.ndarray):
    """Per block of the runs that start in one span of _BLOCK_ROWS items of
    their concatenation, (a, b, starts, index): runs a to b - 1, each run's
    offset in the block, and first[i] + j for j < lengths[i], run after run.
    A zero-length run adds no index, so its start is no reduceat offset."""
    start = np.cumsum(lengths) - lengths
    # (np.unique would find the cuts too, but its first call imports numpy.ma: 10 ms, 1 MB.)
    cuts = np.flatnonzero(np.diff(start // _BLOCK_ROWS, prepend=-1)).tolist()
    for a, b in zip(cuts, cuts[1:] + [len(start)]):
        starts = start[a:b] - start[a]
        runs = lengths[a:b]
        yield a, b, starts, np.repeat(first[a:b] - starts, runs) + np.arange(runs.sum())


def _columns_xy(xy) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of (n, 2) points."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    return xy[:, 0], xy[:, 1]


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
        object.__setattr__(self, "lon", wrap_lon(self.lon))
        for name in COLUMNS:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.lat)

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
        self.centers_xy = self.project_columns(lats, lons)
        self.side_km = math.sqrt(grid.cell_area_km2)
        self.biomass = grid.biomass

    def project_columns(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """(n, 2) planar km of the points at latitudes `lat` and normalized
        longitudes `lon`, in degrees."""
        return np.column_stack(
            [(lon - self.ref_lon) * self.km_per_deg_lon, (lat - self.ref_lat) * KM_PER_DEG_LAT]
        )

    def locate_xy(self, xy) -> np.ndarray:
        """Per finite point of the (n, 2) `xy`, the index of the cell
        containing it, or -1 where it lies outside the grid.

        The cell with the nearest centre, lowest index on ties, if the point
        lies within side/2 + 1e-9 of it along both axes. A centre that passes
        the test lies within (side/2 + 1e-9) * sqrt(2) of the point, so the
        x-band of that half-width, plus rounding slack, holds the nearest one.
        """
        x, y = _columns_xy(xy)
        half = self.side_km / 2.0 + 1e-9
        found = np.full(len(x), -1)
        for point, cell in self._x_bands(x, half * math.sqrt(2.0) * (1.0 + 1e-9) + 1e-9):
            dx = self.centers_xy[cell, 0] - x[point]
            dy = self.centers_xy[cell, 1] - y[point]
            d2 = dx * dx + dy * dy
            # Each point's first smallest d2: its lowest nearest cell.
            starts = np.flatnonzero(np.diff(point, prepend=-1))
            lowest = np.minimum.reduceat(d2, starts)
            nearest = np.flatnonzero(d2 == np.repeat(lowest, np.diff(starts, append=len(point))))
            k = nearest[np.diff(point[nearest], prepend=-1) != 0]
            inside = (np.abs(dx[k]) <= half) & (np.abs(dy[k]) <= half)
            found[point[k[inside]]] = cell[k[inside]]
        return found

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

    def _x_bands(self, x: np.ndarray, half_width):
        """Per block of points, the (point, cell) pairs of each point's
        cells whose centre x lies within its half_width (a scalar or one per
        point) of its x: points ascending, each point's cells ascending.

        Blocks are those of blocks_of_runs over each point's cells in x order.
        """
        order, xs = self._x_order
        lo = np.searchsorted(xs, x - half_width)
        width = np.maximum(np.searchsorted(xs, x + half_width, "right") - lo, 0)
        n_cells = len(order)
        for a, b, _, at in blocks_of_runs(lo, width):
            # Sorting point * n_cells + cell orders each point's cells.
            key = np.sort(np.repeat(np.arange(a, b), width[a:b]) * n_cells + order[at])
            yield np.divmod(key, n_cells)

    def disks(self, xy, reach) -> tuple[np.ndarray, np.ndarray]:
        """Per point of the (n, 2) `xy`, the cells whose square lies within
        that row's `reach` (a scalar or n values), and their squared gaps (0
        inside the square), each bit-equal to a scan of all cells.

        Returns (gap_sq, cells): row i holds point i's cells in ascending
        order and their squared gaps; rows are padded with gap inf and cell
        -1. Such a centre lies within reach + side/2 of x, to a few ulp; the
        x-band adds a relative 1e-9 and 1e-9 km for rounding.
        """
        x, y = _columns_xy(xy)
        reach = np.broadcast_to(np.asarray(reach, dtype=np.float64), len(x))
        half = self.side_km / 2.0
        found = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)]
        for point, cell in self._x_bands(x, (reach + half) * (1.0 + 1e-9) + 1e-9):
            ddx = np.maximum(np.abs(self.centers_xy[cell, 0] - x[point]) - half, 0.0)
            ddy = np.maximum(np.abs(self.centers_xy[cell, 1] - y[point]) - half, 0.0)
            gap_sq = ddx * ddx + ddy * ddy
            keep = gap_sq <= (reach * reach)[point]
            found.append((point[keep], cell[keep], gap_sq[keep]))
        point, cell, gap = (np.concatenate(parts) for parts in zip(*found))
        per_point = np.bincount(point, minlength=len(x))
        col = np.arange(len(point)) - np.repeat(np.cumsum(per_point) - per_point, per_point)
        width = max(1, int(per_point.max(initial=0)))
        gap_sq = np.full((len(x), width), np.inf)
        cells = np.full((len(x), width), -1)
        gap_sq[point, col] = gap
        cells[point, col] = cell
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
