"""Slow references for the campaign's sensor draw, nearest-sensor query and
cell lookups.

`scatter_sensors` is the full draw: every sensor of a placement, from one
stream. `nearest_kdtree` is the nearest-sensor search as it stood before the
cell-local scan: every trial scatters every sensor with `scatter_sensors`,
indexes them all in a KD-tree and queries it for each fire.
`run_campaign_kdtree` is the campaign loop over those distances: it
resolves one fire at a time and averages biomass over the whole grid for
every detected or escaped fire.
`locate_kdtree` finds the containing cell through a KD-tree over the cell
centres. `gap_sq`, `intersecting_mask`, `biomass_avg_full` and
`locate_full` scan every cell, as GridFrame did before its x-band lookup.
`cells_within` is that x-band lookup for one point, and `disks_loop` runs it
point by point, as `GridFrame.disks` did before its batched band search.
`simulate_fire` resolves one fire against given sensor positions with the
same rule, and `FireRecord` holds its outcome. The baseline of
`run_campaign_kdtree` comes from `biomass_avg_full` too, so no part of it
runs the code under test. `project_point` gives one point's row of
`GridFrame.project_columns`, the planar frame every lookup works in.
Property tests check the fast paths against these; nothing at runtime
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from firesat.campaign import (
    CampaignResult,
    CampaignTotals,
    FireOutcome,
    carbon_emission_ton,
)
from firesat.errors import ValidationError
from firesat.grid import FireEvent, GridFrame, RegionGrid
from firesat.placement import Placement


@dataclass(frozen=True)
class FireRecord:
    """Outcome of one fire under one sensor scatter."""

    detected: bool
    degenerate: bool
    detection_time_h: float | None
    burned_km2: float
    carbon_ton: float


def project_point(frame: GridFrame, p) -> tuple[float, float]:
    """The planar (x, y) km of the GeoPoint p: its row of frame.project_columns."""
    x, y = frame.project_columns(np.array([p.lat]), np.array([p.lon]))[0]
    return x, y


def gap_sq(frame: GridFrame, cx: float, cy: float) -> np.ndarray:
    """Squared distance from (cx, cy) to each cell's square, 0 inside it."""
    half = frame.side_km / 2.0
    ddx = np.maximum(np.abs(frame.centers_xy[:, 0] - cx) - half, 0.0)
    ddy = np.maximum(np.abs(frame.centers_xy[:, 1] - cy) - half, 0.0)
    return ddx * ddx + ddy * ddy


def intersecting_mask(frame: GridFrame, cx: float, cy: float, radius: float) -> np.ndarray:
    """Boolean mask of cells whose square intersects the disk."""
    return gap_sq(frame, cx, cy) <= radius * radius


def biomass_avg_full(frame: GridFrame, cx: float, cy: float, radius: float) -> float:
    mask = intersecting_mask(frame, cx, cy, radius)
    if not mask.any():
        return 0.0
    return float(frame.biomass[mask].mean())


def locate_full(frame: GridFrame, p) -> int:
    x, y = project_point(frame, p)
    dx = frame.centers_xy[:, 0] - x
    dy = frame.centers_xy[:, 1] - y
    idx = int(np.argmin(dx * dx + dy * dy))
    cx, cy = frame.centers_xy[idx]
    half = frame.side_km / 2.0 + 1e-9
    if abs(x - cx) > half or abs(y - cy) > half:
        raise ValidationError(f"point ({p.lat}, {p.lon}) lies outside the region grid")
    return idx


def cells_within(frame: GridFrame, x: float, y: float, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells whose square lies within `reach` of (x, y), in ascending order,
    and their squared gaps, from an x-band of the centres sorted by x."""
    order = np.argsort(frame.centers_xy[:, 0])
    xs = frame.centers_xy[order, 0]
    half = frame.side_km / 2.0
    band = (reach + half) * (1.0 + 1e-9) + 1e-9
    lo, hi = np.searchsorted(xs, x - band), np.searchsorted(xs, x + band, "right")
    cells = np.sort(order[lo:hi])
    ddx = np.maximum(np.abs(frame.centers_xy[cells, 0] - x) - half, 0.0)
    ddy = np.maximum(np.abs(frame.centers_xy[cells, 1] - y) - half, 0.0)
    gap_sq = ddx * ddx + ddy * ddy
    keep = gap_sq <= reach * reach
    return cells[keep], gap_sq[keep]


def disks_loop(frame: GridFrame, xy, reach) -> tuple[np.ndarray, np.ndarray]:
    """`cells_within` of each point, padded into (gap_sq, cells) rows with gap
    inf and cell -1."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2).tolist()
    reach = np.broadcast_to(reach, len(xy)).tolist()
    found = [cells_within(frame, x, y, r) for (x, y), r in zip(xy, reach)]
    width = max([1] + [len(c) for c, _ in found])
    gap_sq = np.full((len(found), width), np.inf)
    cells = np.full((len(found), width), -1)
    for i, (c, gap) in enumerate(found):
        gap_sq[i, : len(c)] = gap
        cells[i, : len(c)] = c
    return gap_sq, cells


def locate_kdtree(frame: GridFrame, p) -> int:
    x, y = project_point(frame, p)
    _, idx = cKDTree(frame.centers_xy).query([x, y])
    cx, cy = frame.centers_xy[idx]
    half = frame.side_km / 2.0 + 1e-9
    if abs(x - cx) > half or abs(y - cy) > half:
        raise ValidationError(f"point ({p.lat}, {p.lon}) lies outside the region grid")
    return int(idx)


def scatter_sensors(placement: Placement, grid: RegionGrid, seed) -> np.ndarray:
    """Uniform sensor positions inside each region's square cell, (n, 2) km.

    Deterministic under a fixed seed; seed may be an int or a sequence of
    ints (used to derive independent per-trial streams).
    """
    if len(placement.counts) != len(grid):
        raise ValidationError("placement length does not match grid size")
    counts = np.asarray(placement.counts, dtype=np.int64)
    total = placement.deployed  # a Python int: an int64 sum could wrap
    if total == 0:
        return np.empty((0, 2))
    reps = np.repeat(np.arange(len(counts)), counts)
    offsets = (np.random.default_rng(seed).random((total, 2)) - 0.5) * grid.frame.side_km
    return grid.frame.centers_xy[reps] + offsets


def _resolve_fire(event, nearest_km, u_p, r_max, frame, fire_xy) -> FireRecord:
    fx, fy = fire_xy
    detected = nearest_km <= r_max and (u_p > 0.0 or nearest_km == 0.0)
    if detected:
        time_h = 0.0 if nearest_km == 0.0 else nearest_km / u_p
        burned = math.pi * nearest_km**2
        carbon = carbon_emission_ton(burned, biomass_avg_full(frame, fx, fy, nearest_km))
        return FireRecord(True, False, time_h, burned, carbon)
    if u_p == 0.0:
        return FireRecord(False, True, None, 0.0, 0.0)
    return _escaped(event, frame, fire_xy)


def _escaped(event, frame, fire_xy) -> FireRecord:
    """An undetected fire: it burns its cataloged area."""
    burned = event.recorded_area_km2
    radius = math.sqrt(burned / math.pi)
    carbon = carbon_emission_ton(burned, biomass_avg_full(frame, *fire_xy, radius))
    return FireRecord(False, False, None, burned, carbon)


def simulate_fire(event: FireEvent, sensors: np.ndarray, grid: RegionGrid) -> FireRecord:
    """Outcome of a single fire against fixed sensor positions.

    The burned circle grows at the ignition region's spread rate until it
    touches the nearest sensor; a fire whose nearest sensor sits farther than
    sqrt(A/pi) escapes detection and burns its cataloged area.
    """
    frame = grid.frame
    fx, fy = project_point(frame, event.ignition)
    sensors = np.asarray(sensors, dtype=float).reshape(-1, 2)
    if len(sensors):
        nearest = float(np.min(np.hypot(sensors[:, 0] - fx, sensors[:, 1] - fy)))
    else:
        nearest = math.inf
    u_p = float(grid.spread_rate[event.region_id])
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)
    return _resolve_fire(event, nearest, u_p, r_max, frame, (fx, fy))


def _fire_xy(grid: RegionGrid, catalog: list[FireEvent]) -> np.ndarray:
    return np.array([project_point(grid.frame, e.ignition) for e in catalog]).reshape(len(catalog), 2)


def nearest_kdtree(grid: RegionGrid, placement: Placement, catalog: list[FireEvent],
                   trials: int, seed: int) -> np.ndarray:
    """(trials, fires) nearest-sensor distances: trial t scatters every
    sensor with `scatter_sensors(..., [seed, t])`, indexes them all in a
    KD-tree and queries it for each fire, up to just past r_max; inf beyond
    that or when no sensor is deployed."""
    fire_xy = _fire_xy(grid, catalog)
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)
    dists = np.full((trials, len(catalog)), np.inf)
    for trial in range(trials):
        positions = scatter_sensors(placement, grid, [seed, trial])
        if len(positions):
            tree = cKDTree(positions)
            dists[trial], _ = tree.query(fire_xy, k=1, distance_upper_bound=r_max * (1.0 + 1e-9))
    return dists


def run_campaign_kdtree(grid, placement, catalog, econ, trials, seed, scheme="") -> CampaignResult:
    frame = grid.frame
    baseline = [_escaped(e, frame, project_point(frame, e.ignition)) for e in catalog]

    n_fires = len(catalog)
    fire_xy = _fire_xy(grid, catalog)
    u_p = np.array([grid.spread_rate[e.region_id] for e in catalog])
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)

    burned_sum = np.zeros(n_fires)
    carbon_sum = np.zeros(n_fires)
    time_sum = np.zeros(n_fires)
    detected_count = np.zeros(n_fires, dtype=np.int64)
    degenerate = np.zeros(n_fires, dtype=bool)

    for dists in nearest_kdtree(grid, placement, catalog, trials, seed):
        for i, event in enumerate(catalog):
            record = _resolve_fire(
                event, float(dists[i]), float(u_p[i]), r_max, frame,
                (float(fire_xy[i, 0]), float(fire_xy[i, 1])),
            )
            burned_sum[i] += record.burned_km2
            carbon_sum[i] += record.carbon_ton
            if record.detected:
                detected_count[i] += 1
                time_sum[i] += record.detection_time_h
            degenerate[i] |= record.degenerate

    outcomes = []
    for i, event in enumerate(catalog):
        n_det = int(detected_count[i])
        outcomes.append(
            FireOutcome(
                fire_id=event.id,
                region_id=event.region_id,
                recorded_area_km2=event.recorded_area_km2,
                detection_rate=n_det / trials,
                detection_time_h=float(time_sum[i]) / n_det if n_det else None,
                burned_km2=float(burned_sum[i]) / trials,
                carbon_ton=float(carbon_sum[i]) / trials,
                degenerate=bool(degenerate[i]),
            )
        )

    total_carbon = sum(o.carbon_ton for o in outcomes)
    base_carbon = sum(r.carbon_ton for r in baseline)
    reduction = base_carbon - total_carbon
    revenue = reduction * econ.carbon_price_usd_per_ton
    device_cost = placement.deployed * econ.device_cost_usd
    totals = CampaignTotals(
        burned_km2=sum(o.burned_km2 for o in outcomes),
        carbon_ton=total_carbon,
        baseline_burned_km2=sum(r.burned_km2 for r in baseline),
        baseline_carbon_ton=base_carbon,
        carbon_reduction_ton=reduction,
        carbon_revenue_usd=revenue,
        device_cost_usd=device_cost,
        bandwidth_cost_usd=econ.bandwidth_cost_usd,
        savings_usd=revenue - device_cost - econ.bandwidth_cost_usd,
    )
    return CampaignResult(
        scheme=scheme,
        seed=seed,
        trials=trials,
        budget=placement.budget,
        sensors_deployed=placement.deployed,
        fires=tuple(outcomes),
        totals=totals,
    )
