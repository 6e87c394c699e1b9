"""Seeded Monte Carlo simulation of a fire season against an ignition catalog.

Sensors are scattered uniformly inside their assigned cells, each cataloged
fire grows as a circle from its ignition point until the circle first touches
a sensor, and burned area converts to carbon and money. Distances are taken
in the grid's planar frame (RegionGrid.frame).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ValidationError
from .grid import FireEvent, GridFrame, RegionGrid
from .placement import Placement

@dataclass(frozen=True)
class EconomicsParams:
    """Monetary coefficients for the savings computation."""

    carbon_price_usd_per_ton: float = 200.0
    device_cost_usd: float = 10.0
    bandwidth_cost_usd: float = 0.0

    def __post_init__(self):
        if min(self.carbon_price_usd_per_ton, self.device_cost_usd, self.bandwidth_cost_usd) < 0:
            raise ValidationError("economic parameters must be >= 0")


@dataclass(frozen=True)
class FireRecord:
    """Outcome of one fire under one sensor scatter."""

    detected: bool
    degenerate: bool
    detection_time_h: float | None
    burned_km2: float
    carbon_ton: float


@dataclass(frozen=True)
class FireOutcome:
    """Per-fire outcome averaged over all trials."""

    fire_id: int
    region_id: int
    recorded_area_km2: float
    detection_rate: float
    detection_time_h: float | None
    burned_km2: float
    carbon_ton: float
    degenerate: bool


@dataclass(frozen=True)
class CampaignTotals:
    burned_km2: float
    carbon_ton: float
    baseline_burned_km2: float
    baseline_carbon_ton: float
    carbon_reduction_ton: float
    carbon_revenue_usd: float
    device_cost_usd: float
    bandwidth_cost_usd: float
    savings_usd: float


@dataclass(frozen=True)
class CampaignResult:
    scheme: str
    seed: int
    trials: int
    budget: int
    sensors_deployed: int
    fires: tuple[FireOutcome, ...]
    totals: CampaignTotals


def carbon_emission_ton(burned_km2: float, biomass_avg: float) -> float:
    """Carbon emitted by a burned area: area x 1.2 x average biomass x 100."""
    return burned_km2 * 1.2 * biomass_avg * 100.0


def scatter_sensors(placement: Placement, grid: RegionGrid, seed) -> np.ndarray:
    """Uniform sensor positions inside each region's square cell, (n, 2) km.

    Deterministic under a fixed seed; seed may be an int or a sequence of
    ints (used to derive independent per-trial streams).
    """
    if len(placement.counts) != len(grid):
        raise ValidationError("placement length does not match grid size")
    return _scatter(placement, grid.frame, np.random.default_rng(seed))


def _scatter(placement: Placement, frame: GridFrame, rng: np.random.Generator) -> np.ndarray:
    counts = np.asarray(placement.counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, 2))
    reps = np.repeat(np.arange(len(counts)), counts)
    offsets = (rng.random((total, 2)) - 0.5) * frame.side_km
    return frame.centers_xy[reps] + offsets


def _resolve_fire(
    nearest_km: float,
    u_p: float,
    r_max: float,
    frame: GridFrame,
    fire_xy: tuple[float, float],
    escaped: FireRecord,
    cells: np.ndarray | None = None,
) -> FireRecord:
    """Outcome of one fire whose nearest sensor lies nearest_km away.

    `escaped` is the fire's no-detection record (see baseline_outcomes);
    `cells` is passed through to GridFrame.biomass_avg.
    """
    fx, fy = fire_xy
    detected = nearest_km <= r_max and (u_p > 0.0 or nearest_km == 0.0)
    if detected:
        time_h = 0.0 if nearest_km == 0.0 else nearest_km / u_p
        burned = math.pi * nearest_km**2
        carbon = carbon_emission_ton(burned, frame.biomass_avg(fx, fy, nearest_km, cells))
        return FireRecord(True, False, time_h, burned, carbon)
    if u_p == 0.0:
        # The fire cannot spread, so nothing burns, but no sensor ever sees it.
        return FireRecord(False, True, None, 0.0, 0.0)
    return escaped


def simulate_fire(event: FireEvent, sensors: np.ndarray, grid: RegionGrid) -> FireRecord:
    """Outcome of a single fire against fixed sensor positions.

    The burned circle grows at the ignition region's spread rate until it
    touches the nearest sensor; a fire whose nearest sensor sits farther than
    sqrt(A/pi) escapes detection and burns its cataloged area.
    """
    frame = grid.frame
    fx, fy = frame.project(event.ignition)
    sensors = np.asarray(sensors, dtype=float).reshape(-1, 2)
    if len(sensors):
        nearest = float(np.min(np.hypot(sensors[:, 0] - fx, sensors[:, 1] - fy)))
    else:
        nearest = math.inf
    u_p = float(grid.spread_rate[event.region_id])
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)
    escaped = baseline_outcomes([event], grid)[0]
    return _resolve_fire(nearest, u_p, r_max, frame, (fx, fy), escaped)


def baseline_outcomes(catalog: list[FireEvent], grid: RegionGrid) -> list[FireRecord]:
    """No-detection outcomes: every fire burns its cataloged area."""
    frame = grid.frame
    records = []
    for event in catalog:
        fx, fy = frame.project(event.ignition)
        burned = event.recorded_area_km2
        radius = math.sqrt(burned / math.pi)
        carbon = carbon_emission_ton(burned, frame.biomass_avg(fx, fy, radius))
        records.append(FireRecord(False, False, None, burned, carbon))
    return records


def run_campaign(
    grid: RegionGrid,
    placement: Placement,
    catalog: list[FireEvent],
    econ: EconomicsParams,
    trials: int = 20,
    seed: int = 0,
    scheme: str = "",
) -> CampaignResult:
    """Average fire outcomes over independent sensor scatters.

    Each trial draws its generator stream from (seed, trial_index), so results
    do not depend on execution order. Savings follow
    carbon reduction x carbon price - device cost - bandwidth cost, with the
    device cost charged on deployed sensors.

    A scattered sensor never leaves its cell's square, so a fire can only be
    detected by a sensor of a cell whose square reaches within r_max of it.
    Those candidate cells are found once; each trial draws the same stream as
    scatter_sensors and scans only their sensors, which sit in one contiguous
    slice per cell. Positions and squared distances use the same arithmetic as
    a KD-tree over all scattered sensors, so the nearest distance matches it
    bit for bit whenever it is at most r_max; farther sensors never detect.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if len(placement.counts) != len(grid):
        raise ValidationError("placement length does not match grid size")
    frame = grid.frame
    if not catalog:
        warnings.warn("empty fire catalog; campaign totals are zero")
    baseline = baseline_outcomes(catalog, grid)

    n_fires = len(catalog)
    fire_xy = np.array([frame.project(e.ignition) for e in catalog]).reshape(n_fires, 2)
    u_p = grid.spread_rate[[e.region_id for e in catalog]]
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)

    counts = np.asarray(placement.counts, dtype=np.int64)
    total = int(counts.sum())
    ends = np.cumsum(counts)
    # Per fire: its candidate cells, and (start, end, center) of each
    # candidate cell that holds sensors.
    candidates = [
        np.flatnonzero(frame.intersecting_mask(x, y, r_max * (1.0 + 1e-9))) for x, y in fire_xy
    ]
    slices = [
        [(int(ends[j] - counts[j]), int(ends[j]), frame.centers_xy[j]) for j in cells if counts[j]]
        for cells in candidates
    ]

    burned_sum = np.zeros(n_fires)
    carbon_sum = np.zeros(n_fires)
    time_sum = np.zeros(n_fires)
    detected_count = np.zeros(n_fires, dtype=np.int64)
    degenerate = np.zeros(n_fires, dtype=bool)

    for trial in range(trials):
        # The draws _scatter turns into positions, row j of cell k at ends[k-1] + j.
        unit = np.random.default_rng([seed, trial]).random((total, 2))
        for i in range(n_fires):
            xy = fire_xy[i]
            nearest_sq = math.inf
            for start, end, center in slices[i]:
                d = unit[start:end] - 0.5
                d *= frame.side_km
                d += center
                d -= xy
                d *= d
                nearest_sq = min(nearest_sq, float((d[:, 0] + d[:, 1]).min()))
            record = _resolve_fire(
                math.sqrt(nearest_sq), float(u_p[i]), r_max, frame,
                (float(xy[0]), float(xy[1])), baseline[i], candidates[i],
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

    total_burned = sum(o.burned_km2 for o in outcomes)
    total_carbon = sum(o.carbon_ton for o in outcomes)
    base_burned = sum(r.burned_km2 for r in baseline)
    base_carbon = sum(r.carbon_ton for r in baseline)
    reduction = base_carbon - total_carbon
    revenue = reduction * econ.carbon_price_usd_per_ton
    device_cost = placement.deployed * econ.device_cost_usd
    savings = revenue - device_cost - econ.bandwidth_cost_usd
    totals = CampaignTotals(
        burned_km2=total_burned,
        carbon_ton=total_carbon,
        baseline_burned_km2=base_burned,
        baseline_carbon_ton=base_carbon,
        carbon_reduction_ton=reduction,
        carbon_revenue_usd=revenue,
        device_cost_usd=device_cost,
        bandwidth_cost_usd=econ.bandwidth_cost_usd,
        savings_usd=savings,
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


def campaign_summary_dict(result: CampaignResult) -> dict:
    return {
        "scheme": result.scheme,
        "seed": result.seed,
        "trials": result.trials,
        "budget": result.budget,
        "sensors_deployed": result.sensors_deployed,
        "n_fires": len(result.fires),
        "totals": {
            "burned_km2": result.totals.burned_km2,
            "carbon_ton": result.totals.carbon_ton,
            "baseline_burned_km2": result.totals.baseline_burned_km2,
            "baseline_carbon_ton": result.totals.baseline_carbon_ton,
            "carbon_reduction_ton": result.totals.carbon_reduction_ton,
            "carbon_revenue_usd": result.totals.carbon_revenue_usd,
            "device_cost_usd": result.totals.device_cost_usd,
            "bandwidth_cost_usd": result.totals.bandwidth_cost_usd,
            "savings_usd": result.totals.savings_usd,
        },
    }


def write_campaign_json(result: CampaignResult, path) -> None:
    with atomic_write(path) as f:
        json.dump(campaign_summary_dict(result), f, indent=2, sort_keys=True)
        f.write("\n")


def write_fires_csv(result: CampaignResult, path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            [
                "fire_id",
                "region_id",
                "recorded_area_km2",
                "detection_rate",
                "detection_time_h",
                "burned_km2",
                "carbon_ton",
            ]
        )
        for o in result.fires:
            writer.writerow(
                [
                    o.fire_id,
                    o.region_id,
                    repr(o.recorded_area_km2),
                    repr(o.detection_rate),
                    "" if o.detection_time_h is None else repr(o.detection_time_h),
                    repr(o.burned_km2),
                    repr(o.carbon_ton),
                ]
            )
