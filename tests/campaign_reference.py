"""Slow references for the campaign's nearest-sensor query and cell lookup.

`run_campaign_kdtree` is the campaign loop as it stood before the cell-local
scan: every trial scatters every sensor, indexes them all in a KD-tree,
queries it for each fire, and averages biomass over the whole grid for every
detected or escaped fire. `locate_kdtree` finds the containing cell through a
KD-tree over the cell centres. Property tests check the fast paths against
both; nothing at runtime imports this module.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from firesat.campaign import (
    CampaignResult,
    CampaignTotals,
    FireOutcome,
    FireRecord,
    baseline_outcomes,
    carbon_emission_ton,
    scatter_sensors,
)
from firesat.errors import ValidationError
from firesat.grid import GridFrame


def locate_kdtree(frame: GridFrame, p) -> int:
    x, y = frame.project(p)
    _, idx = cKDTree(frame.centers_xy).query([x, y])
    cx, cy = frame.centers_xy[idx]
    half = frame.side_km / 2.0 + 1e-9
    if abs(x - cx) > half or abs(y - cy) > half:
        raise ValidationError(f"point ({p.lat}, {p.lon}) lies outside the region grid")
    return int(idx)


def _resolve_fire(event, nearest_km, u_p, r_max, frame, fire_xy) -> FireRecord:
    fx, fy = fire_xy
    detected = nearest_km <= r_max and (u_p > 0.0 or nearest_km == 0.0)
    if detected:
        time_h = 0.0 if nearest_km == 0.0 else nearest_km / u_p
        burned = math.pi * nearest_km**2
        carbon = carbon_emission_ton(burned, frame.biomass_avg(fx, fy, nearest_km))
        return FireRecord(True, False, time_h, burned, carbon)
    if u_p == 0.0:
        return FireRecord(False, True, None, 0.0, 0.0)
    burned = event.recorded_area_km2
    radius = math.sqrt(burned / math.pi)
    carbon = carbon_emission_ton(burned, frame.biomass_avg(fx, fy, radius))
    return FireRecord(False, False, None, burned, carbon)


def run_campaign_kdtree(grid, placement, catalog, econ, trials=20, seed=0, scheme="") -> CampaignResult:
    frame = grid.frame
    baseline = baseline_outcomes(catalog, grid)

    n_fires = len(catalog)
    fire_xy = np.array([frame.project(e.ignition) for e in catalog]).reshape(n_fires, 2)
    u_p = np.array([grid.spread_rate[e.region_id] for e in catalog])
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)

    burned_sum = np.zeros(n_fires)
    carbon_sum = np.zeros(n_fires)
    time_sum = np.zeros(n_fires)
    detected_count = np.zeros(n_fires, dtype=np.int64)
    degenerate = np.zeros(n_fires, dtype=bool)

    for trial in range(trials):
        positions = scatter_sensors(placement, grid, [seed, trial])
        if len(positions):
            tree = cKDTree(positions)
            dists, _ = tree.query(fire_xy, k=1, distance_upper_bound=r_max * (1.0 + 1e-9))
        else:
            dists = np.full(n_fires, np.inf)
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
